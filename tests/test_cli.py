"""Command-line runner: config validation, artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qflearn
from qflearn.cli import OUTPUT_DIR_ENV, config_hash, load_config, main
from qflearn.feedback import gaussian_one_bit_gain


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def base_config(out_dir, **extra):
    cfg = {
        "schema_version": 1,
        "seed": 7,
        "output_dir": str(out_dir),
        "channel": {"family": "awgn", "sigma_sq_dbm": -21.3, "P_dbm": -6.3},
        "training": {
            "num_iterations": 1,
            "n_rx_steps": 3,
            "n_tx_steps": 2,
            "batch_rx": 16,
            "batch_tx": 16,
            "ser_symbols": 200,
        },
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def test_missing_config_exits_2_and_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = main(["train", missing])
    assert code == 2
    assert missing in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["train", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["typo_section"] = {}
    assert main(["train", write_config(tmp_path, cfg)]) == 2
    assert "typo_section" in capsys.readouterr().err


def test_unknown_nested_key_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["training"]["learning_rate"] = 0.01
    assert main(["train", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "learning_rate" in err and "training" in err


def test_wrong_schema_version_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["schema_version"] = 99
    assert main(["train", write_config(tmp_path, cfg)]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_non_integer_seed_rejected(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["seed"] = "seven"
    assert main(["train", write_config(tmp_path, cfg)]) == 2


def test_bsc_without_quantizer_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["bsc"] = {"flip_prob": 0.1}
    assert main(["train", write_config(tmp_path, cfg)]) == 2
    assert "quantizer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value, literal",
    [
        ("training", "lr_rx", float("nan"), "NaN"),
        ("channel", "P_dbm", float("inf"), "Infinity"),
        ("channel", "sigma_sq_dbm", float("nan"), "NaN"),
        ("quantizer", "clip_fraction", float("nan"), "NaN"),
    ],
)
def test_non_finite_json_literal_rejected(tmp_path, capsys, section, key, value, literal):
    out = tmp_path / "out"
    cfg = base_config(out, quantizer={"q_bits": 1})
    cfg[section][key] = value  # json.dumps writes NaN / Infinity literals
    path = write_config(tmp_path, cfg)
    assert literal in open(path).read()
    assert main(["train", path]) == 2
    assert literal in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("clip_fraction", [1.0, 1.5, -0.05])
def test_clip_fraction_out_of_range_rejected_before_training(tmp_path, capsys, clip_fraction):
    out = tmp_path / "out"
    cfg = base_config(out, quantizer={"q_bits": 1, "clip_fraction": clip_fraction})
    assert main(["train", write_config(tmp_path, cfg)]) == 2
    assert "clip_fraction" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


# The command that reads each section, and a valid section to start from.
SECTION_COMMANDS = {
    "channel": ("train", None),
    "training": ("train", None),
    "quantizer": ("train", {"q_bits": 1}),
    "sweep": ("ser-sweep", {"parameter": "snr_db", "values": [15.0], "num_symbols": 1000}),
    "verify": ("verify", {"num_samples": 1000}),
    "grid": ("decision-regions", {"bounds": [-1.0, 1.0], "resolution": 5}),
    "bussgang": ("bussgang", {"num_samples": 1000}),
}


@pytest.mark.parametrize(
    "section, key",
    [
        ("channel", "P_dbm"),
        ("channel", "K"),
        ("training", "num_iterations"),
        ("training", "lr_tx"),
        ("quantizer", "q_bits"),
        ("sweep", "num_symbols"),
        ("verify", "num_samples"),
        ("verify", "snapshot_iter"),
        ("grid", "resolution"),
        ("bussgang", "num_samples"),
    ],
)
def test_minus_infinity_rejected_outside_noise_power(tmp_path, capsys, section, key):
    out = tmp_path / "out"
    command, body = SECTION_COMMANDS[section]
    cfg = base_config(out)
    if body is not None:
        cfg[section] = dict(body)
    cfg[section][key] = float("-inf")
    assert main([command, write_config(tmp_path, cfg)]) == 2
    assert f"invalid {section} config" in capsys.readouterr().err
    assert not any(out.iterdir())  # rejected before any artifact is written


@pytest.mark.parametrize(
    "section, body, message",
    [
        ("quantizer", {"q_bits": 0}, "q_bits must be >= 1"),
        ("bsc", {"flip_prob": 0.7}, "flip_prob must lie in [0, 0.5]"),
    ],
)
def test_out_of_range_feedback_config_exits_2(tmp_path, capsys, section, body, message):
    out = tmp_path / "out"
    cfg = base_config(out, quantizer={"q_bits": 1})
    cfg[section] = body
    assert main(["train", write_config(tmp_path, cfg)]) == 2
    assert f"invalid {section} config: {message}" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("parameter", ["snr_db", "p_dbm"])
def test_sweep_point_with_non_finite_power_exits_2(tmp_path, capsys, parameter):
    out = tmp_path / "out"
    cfg = base_config(out, sweep={"parameter": parameter, "values": [15.0, float("-inf")], "num_symbols": 1000})
    assert main(["ser-sweep", write_config(tmp_path, cfg)]) == 2
    assert "invalid sweep config" in capsys.readouterr().err
    assert not any(out.iterdir())  # rejected before any point is trained


def test_noiseless_minus_infinity_config_still_loads_and_trains(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["channel"]["sigma_sq_dbm"] = float("-inf")
    path = write_config(tmp_path, cfg)
    assert "-Infinity" in open(path).read()
    assert load_config(path)["channel"]["sigma_sq_dbm"] == float("-inf")
    assert main(["train", path]) == 0
    assert (out / "metrics.csv").exists()


def test_train_writes_artifacts_and_row_count(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    code = main(["train", write_config(tmp_path, cfg)])
    assert code == 0
    for name in ("tx.json", "rx.json", "metrics.csv", "constellation.csv"):
        assert (out / name).exists(), name
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    data = [l for l in lines[1:] if not l.startswith("#")]
    # one row per gradient step: N * (N_R + N_T)
    assert len(data) == 1 * (3 + 2)
    assert lines[1].startswith("# config_sha256=")
    const_lines = (out / "constellation.csv").read_text().strip().split("\n")
    assert len(const_lines) == 17


def test_train_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    assert main(["train", cfg_path]) == 0
    first_metrics = (out / "metrics.csv").read_bytes()
    first_const = (out / "constellation.csv").read_bytes()
    first_tx = (out / "tx.json").read_bytes()
    assert main(["train", cfg_path]) == 0
    assert (out / "metrics.csv").read_bytes() == first_metrics
    assert (out / "constellation.csv").read_bytes() == first_const
    assert (out / "tx.json").read_bytes() == first_tx


def test_seed_override_changes_run(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    assert main(["train", cfg_path]) == 0
    first = (out / "constellation.csv").read_bytes()
    assert main(["train", cfg_path, "--seed", "8"]) == 0
    assert (out / "constellation.csv").read_bytes() != first


def test_iterations_override_changes_row_count(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    assert main(["train", cfg_path, "--iterations", "2"]) == 0
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 2 * (3 + 2)


def test_output_dir_env_override(tmp_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_out))
    cfg_path = write_config(tmp_path, base_config(tmp_path / "ignored"))
    assert main(["train", cfg_path]) == 0
    assert (env_out / "metrics.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_output_dir_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env_out"))
    flag_out = tmp_path / "flag_out"
    cfg_path = write_config(tmp_path, base_config(tmp_path / "ignored"))
    assert main(["train", cfg_path, "--output-dir", str(flag_out)]) == 0
    assert (flag_out / "metrics.csv").exists()
    assert not (tmp_path / "env_out").exists()


def test_ser_sweep_single_point_with_ml_column(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(
        out,
        sweep={
            "parameter": "snr_db",
            "values": [15.0],
            "num_symbols": 100,
            "include_qam16_ml": True,
        },
    )
    assert main(["ser-sweep", write_config(tmp_path, cfg)]) == 0
    lines = (out / "ser_sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:4] == ["snr_db", "p_dbm", "ser", "stderr"]
    assert "qam16_ml_ser" in header
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 1
    row = dict(zip(header, data[0].split(",")))
    assert 0.0 <= float(row["ser"]) <= 1.0
    assert row["num_symbols"] == "100"
    assert row["feedback_mode"] == "perfect"
    assert 0.0 <= float(row["qam16_ml_ser"]) <= 1.0


def test_ser_sweep_requires_sweep_section(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["ser-sweep", cfg_path]) == 2
    assert "sweep" in capsys.readouterr().err


def test_ser_sweep_nlpn_power_points(tmp_path):
    """Power sweeps retrain per point, so the rows differ in P as trained."""
    out = tmp_path / "out"
    cfg = base_config(
        out,
        channel={
            "family": "nlpn",
            "sigma_sq_dbm": -21.3,
            "P_dbm": 0.0,
            "gamma": 1.27,
            "L_km": 5000.0,
            "K": 3,
        },
        sweep={
            "parameter": "p_dbm",
            "values": [-2.0, 0.0],
            "num_symbols": 100,
            "include_qam16_ml": False,
        },
    )
    cfg["quantizer"] = {"q_bits": 1}
    assert main(["ser-sweep", write_config(tmp_path, cfg)]) == 0
    lines = (out / "ser_sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 2
    rows = [dict(zip(header, d.split(","))) for d in data]
    assert [float(r["p_dbm"]) for r in rows] == [-2.0, 0.0]
    assert all(r["feedback_mode"] == "quantized" for r in rows)
    assert all(r["q_bits"] == "1" for r in rows)


def test_decision_regions_artifact(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, grid={"bounds": [-1.0, 1.0], "resolution": 5})
    assert main(["decision-regions", write_config(tmp_path, cfg)]) == 0
    lines = (out / "decision_regions.csv").read_text().strip().split("\n")
    assert lines[0] == "re,im,message"
    assert lines[1].startswith("# config_sha256=")
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 25
    messages = {int(l.split(",")[2]) for l in data}
    assert messages <= set(range(1, 17))
    assert (out / "constellation.csv").exists()


def test_verify_rejects_wide_bitflip_quantizer(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", verify={"bitflip_bits": [3]})
    assert main(["verify", write_config(tmp_path, cfg)]) == 2
    assert "1- or 2-bit" in capsys.readouterr().err


def test_verify_report_smoke(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(
        out,
        verify={
            "num_samples": 20_000,
            "quantized_bits": [1, 16],
            "bitflip_bits": [1],
            "flip_probs": [0.1],
            "snapshot_iter": 1,
        },
    )
    cfg["training"]["num_iterations"] = 2
    code = main(["verify", write_config(tmp_path, cfg)])
    assert code in (0, 1)  # statistical checks may fail at this sample size
    report = json.loads((out / "verify_report.json").read_text())
    assert set(report["quantized_scaling"]) == {"q1", "q16"}
    q1 = report["quantized_scaling"]["q1"]
    for field in ("cosine", "magnitude_ratio", "g_hat", "var_test", "var_bound"):
        assert isinstance(q1[field], float)
    # a 16-bit quantizer is transparent: unit gain to high accuracy
    assert report["quantized_scaling"]["q16"]["g_hat"] == pytest.approx(1.0, abs=0.01)
    assert set(report["bitflip_scaling"]) == {"q1_p0.1"}
    flip = report["bitflip_scaling"]["q1_p0.1"]
    assert flip["scale_target"] == pytest.approx(0.8)
    assert isinstance(report["all_pass"], bool)
    assert (out / "tx_snapshot.json").exists()
    assert (out / "rx_snapshot.json").exists()


def test_bussgang_artifact(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(
        out, bussgang={"q_bits": [1, 2], "num_samples": 200_000}
    )
    assert main(["bussgang", write_config(tmp_path, cfg)]) == 0
    lines = (out / "bussgang.csv").read_text().strip().split("\n")
    assert lines[0] == "q_bits,g_hat,w_bar,w_mean,w_var,gaussian_one_bit_gain"
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 2
    one_bit = data[0].split(",")
    # default synthetic losses use the variance whose closed-form gain is 1
    assert float(one_bit[1]) == pytest.approx(1.0, rel=0.02)
    assert float(one_bit[5]) == pytest.approx(gaussian_one_bit_gain(1.0 / (8.0 * np.pi)))
    two_bit = data[1].split(",")
    assert two_bit[5] == ""


def test_config_hash_is_stable_and_key_order_free(tmp_path):
    a = {"schema_version": 1, "seed": 1, "channel": {"family": "awgn"}}
    b = {"channel": {"family": "awgn"}, "seed": 1, "schema_version": 1}
    assert config_hash(a) == config_hash(b)
    c = dict(a, seed=2)
    assert config_hash(a) != config_hash(c)


def test_load_config_happy_path(tmp_path):
    cfg = base_config(tmp_path / "out", quantizer={"q_bits": 2})
    loaded = load_config(write_config(tmp_path, cfg))
    assert loaded["seed"] == 7
    assert loaded["quantizer"]["q_bits"] == 2


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    # the child imports the same package this test imported, however pytest found it
    src_dir = os.path.dirname(os.path.dirname(qflearn.__file__))
    search_path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qflearn.cli", "train", cfg_path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=search_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "artifacts written" in proc.stdout
    assert (out / "metrics.csv").exists()
