"""Command-line runner: config validation, artifacts, determinism, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qflearn
import qflearn.cli
from qflearn.cli import OUTPUT_DIR_ENV, config_hash, load_config, main
from qflearn.feedback import gaussian_one_bit_gain
from qflearn.training import advance


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
    """Only the integer 1 passes: True and 1.0 compare equal to it."""
    cfg = base_config(tmp_path / "out")
    for version in (99, True, 1.0, "1"):
        cfg["schema_version"] = version
        assert main(["bussgang", write_config(tmp_path, cfg)]) == 2, version
        assert "schema_version" in capsys.readouterr().err


def test_non_integer_seed_rejected(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["seed"] = "seven"
    assert main(["train", write_config(tmp_path, cfg)]) == 2


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_seed_that_is_not_a_non_negative_integer_rejected(tmp_path, capsys, seed):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["seed"] = seed
    assert main(["train", write_config(tmp_path, cfg)]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_override_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", write_config(tmp_path, base_config(out)), "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_include_qam16_ml_must_be_a_json_boolean(tmp_path, capsys, value):
    out = tmp_path / "out"
    sweep = {"parameter": "snr_db", "values": [15.0], "num_symbols": 100, "include_qam16_ml": value}
    assert main(["ser-sweep", write_config(tmp_path, base_config(out, sweep=sweep))]) == 2
    assert "invalid sweep config: include_qam16_ml must be true or false" in capsys.readouterr().err
    assert not any(out.iterdir())  # rejected before training


@pytest.mark.parametrize("output_dir", [5, None, "", ["out"]])
def test_output_dir_that_is_not_a_nonempty_string_exits_2(tmp_path, capsys, monkeypatch, output_dir):
    monkeypatch.chdir(tmp_path)
    cfg = base_config(tmp_path / "out")
    cfg["output_dir"] = output_dir
    path = write_config(tmp_path, cfg)
    assert main(["train", path]) == 2
    assert f"invalid config: output_dir must be a non-empty string, got {output_dir!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


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
    assert literal in Path(path).read_text()
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


def _minus_infinity(section, key):
    return pytest.param(section, key, float("-inf"), id=f"{section}-{key}")


def _wrong_type(section, key, value):
    return pytest.param(section, key, value, id=f"{section}-{key}-{value!r}")


@pytest.mark.parametrize(
    "section, key, value",
    [
        _minus_infinity("channel", "P_dbm"),
        _minus_infinity("channel", "K"),
        _minus_infinity("training", "num_iterations"),
        _minus_infinity("training", "lr_tx"),
        _minus_infinity("quantizer", "q_bits"),
        _minus_infinity("sweep", "num_symbols"),
        _minus_infinity("verify", "num_samples"),
        _minus_infinity("verify", "snapshot_iter"),
        _minus_infinity("grid", "resolution"),
        _minus_infinity("bussgang", "num_samples"),
        _minus_infinity("grid", "bounds"),
        _minus_infinity("bussgang", "loss_mean"),
        _minus_infinity("bussgang", "loss_std"),
        # an int entry takes only a JSON integer, a float entry any JSON number
        _wrong_type("training", "num_iterations", 2.9),
        _wrong_type("training", "n_rx_steps", True),
        _wrong_type("training", "batch_tx", "15"),
        _wrong_type("channel", "K", 2.0),
        _wrong_type("quantizer", "q_bits", 1.5),
        _wrong_type("sweep", "num_symbols", "15"),
        _wrong_type("verify", "snapshot_iter", True),
        _wrong_type("grid", "resolution", 2.9),
        _wrong_type("bussgang", "num_samples", True),
        _wrong_type("training", "lr_tx", True),
        _wrong_type("channel", "P_dbm", "15"),
        _wrong_type("bussgang", "loss_std", False),
        _wrong_type("channel", "sigma_sq_dbm", None),
    ],
)
def test_minus_infinity_rejected_outside_noise_power(tmp_path, capsys, section, key, value):
    out = tmp_path / "out"
    command, body = SECTION_COMMANDS[section]
    cfg = base_config(out)
    if body is not None:
        cfg[section] = dict(body)
    # bounds is a [lo, hi] pair; hi > lo still holds with lo = -Infinity
    cfg[section][key] = [value, 1.0] if key == "bounds" else value
    assert main([command, write_config(tmp_path, cfg)]) == 2
    assert f"invalid {section} config" in capsys.readouterr().err
    assert not any(out.iterdir())  # rejected before any artifact is written


@pytest.mark.parametrize(
    "section, body, message",
    [
        ("quantizer", {"q_bits": 0}, "q_bits must be >= 1"),
        ("bsc", {"flip_prob": 0.7}, "flip_prob must lie in [0, 0.5]"),
        ("quantizer", {"q_bits": 63}, "q_bits must be <= 62"),
    ],
)
def test_out_of_range_feedback_config_exits_2(tmp_path, capsys, section, body, message):
    out = tmp_path / "out"
    cfg = base_config(out, quantizer={"q_bits": 1})
    cfg[section] = body
    assert main(["train", write_config(tmp_path, cfg)]) == 2
    assert f"invalid {section} config: {message}" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "command, section, body, message",
    [
        ("ser-sweep", "sweep", {"parameter": "snr_db", "values": [15.0], "num_symbols": 0}, "num_symbols must be >= 1"),
        (
            "ser-sweep",
            "sweep",
            {"parameter": "p_dbm", "values": [0.0], "include_qam16_ml": True, "ml_draws_per_point": 0},
            "ml_draws_per_point must be >= 1",
        ),
        ("verify", "verify", {"num_samples": 0}, "num_samples must be >= 1"),
        ("verify", "verify", {"num_samples": 1000, "quantized_bits": [0]}, "q_bits must be >= 1"),
        ("verify", "verify", {"num_samples": 1000, "flip_probs": [0.7]}, "flip_prob must lie in [0, 0.5]"),
        ("bussgang", "bussgang", {"q_bits": [0], "num_samples": 1000}, "q_bits must be >= 1"),
        ("bussgang", "bussgang", {"num_samples": 0}, "num_samples must be >= 1"),
        ("verify", "verify", {"snapshot_iter": 0}, "snapshot_iter 0 must lie in 1..num_iterations (1)"),
        ("verify", "verify", {"snapshot_iter": -1}, "snapshot_iter -1 must lie in 1..num_iterations (1)"),
        ("verify", "verify", {"snapshot_iter": 2}, "snapshot_iter 2 must lie in 1..num_iterations (1)"),
        ("decision-regions", "grid", {"bounds": [-1.0, 1.0], "resolution": 1}, "resolution must be >= 2 per axis"),
        ("decision-regions", "grid", {"bounds": [1.0, -1.0], "resolution": 5}, "bounds must be finite with hi > lo"),
        ("bussgang", "bussgang", {"loss_std": -0.1, "num_samples": 1000}, "loss_std must be positive and finite"),
        ("bussgang", "bussgang", {"loss_std": 0.0, "num_samples": 1000}, "loss_std must be positive and finite"),
        ("verify", "verify", {"num_samples": 1000, "quantized_bits": [63]}, "q_bits must be <= 62"),
        ("bussgang", "bussgang", {"q_bits": [64], "num_samples": 1000}, "q_bits must be <= 62"),
        # a verify config must run a check, and each check once
        (
            "verify",
            "verify",
            {"num_samples": 1000, "quantized_bits": [], "bitflip_bits": [], "flip_probs": []},
            "no check to run: quantized_bits is empty, and so is bitflip_bits or flip_probs",
        ),
        (
            "verify",
            "verify",
            {"num_samples": 1000, "quantized_bits": [], "flip_probs": []},
            "no check to run: quantized_bits is empty",
        ),
        (
            "verify",
            "verify",
            {"num_samples": 1000, "quantized_bits": [], "bitflip_bits": []},
            "no check to run: quantized_bits is empty",
        ),
        ("verify", "verify", {"num_samples": 1000, "flip_probs": [0.1, 0.1]}, "flip_probs repeats a value: [0.1, 0.1]"),
        ("verify", "verify", {"num_samples": 1000, "quantized_bits": [1, 3, 1]}, "quantized_bits repeats a value"),
        ("verify", "verify", {"num_samples": 1000, "bitflip_bits": [2, 2]}, "bitflip_bits repeats a value"),
        # pre-processing keeps one order statistic: zero range after clipping
        ("verify", "verify", {"num_samples": 1}, "num_samples 1 leaves one loss unclipped at clip_fraction 0.05"),
        ("verify", "verify", {"num_samples": 2}, "num_samples 2 leaves one loss unclipped at clip_fraction 0.05"),
    ],
)
def test_out_of_range_command_section_exits_2_before_training(tmp_path, capsys, command, section, body, message):
    out = tmp_path / "out"
    cfg = base_config(out, **{section: body})
    assert main([command, write_config(tmp_path, cfg)]) == 2
    assert f"invalid {section} config: {message}" in capsys.readouterr().err
    assert not (out / "tx.json").exists() and not (out / "tx_snapshot.json").exists()
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "section, key",
    [
        ("sweep", "values"),
        ("verify", "quantized_bits"),
        ("verify", "bitflip_bits"),
        ("verify", "flip_probs"),
        ("bussgang", "q_bits"),
    ],
)
def test_list_key_given_a_string_exits_2(tmp_path, capsys, section, key):
    out = tmp_path / "out"
    command, body = SECTION_COMMANDS[section]
    cfg = base_config(out, **{section: dict(body, **{key: "15"})})
    assert main([command, write_config(tmp_path, cfg)]) == 2
    assert f"invalid {section} config: {key} must be a list" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_bussgang_needs_no_channel_or_training_section(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {"schema_version": 1, "seed": 7, "output_dir": str(out), "bussgang": {"q_bits": [1], "num_samples": 1000}}
    path = write_config(tmp_path, cfg)
    assert main(["bussgang", path]) == 0
    assert main(["bussgang", path, "--iterations", "3"]) == 0
    assert (out / "bussgang.csv").exists()
    cfg["channel"] = base_config(out)["channel"]
    assert main(["train", write_config(tmp_path, cfg)]) == 2
    assert "missing required key 'training' in config" in capsys.readouterr().err


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
    assert "-Infinity" in Path(path).read_text()
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


def test_ser_sweep_nlpn_power_points_with_ml_column(tmp_path):
    """The NLPN 16-QAM ML column of a power sweep is a probability, and two
    runs write the same bytes."""
    channel = {"family": "nlpn", "sigma_sq_dbm": -21.3, "P_dbm": 0.0, "gamma": 1.27, "L_km": 5000.0, "K": 5}
    sweep = {
        "parameter": "p_dbm",
        "values": [-3.0, 0.0],
        "num_symbols": 2000,
        "include_qam16_ml": True,
        "ml_draws_per_point": 2000,
    }
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out, channel=channel, sweep=sweep))
    texts = []
    for _ in range(2):
        assert main(["ser-sweep", cfg_path]) == 0
        texts.append((out / "ser_sweep.csv").read_bytes())
    assert texts[0] == texts[1]
    lines = texts[0].decode().strip().split("\n")
    header = lines[0].split(",")
    data = [dict(zip(header, l.split(","))) for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 2
    for row in data:
        assert 0.0 <= float(row["qam16_ml_ser"]) <= 1.0


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


# Commands that train their own networks: the section each one needs, the
# suffix of the network files it writes, and a command that leaves such files.
NETWORK_COMMANDS = {
    "decision-regions": ({"grid": {"bounds": [-1.0, 1.0], "resolution": 5}}, "", "train"),
    "ser-sweep": ({"sweep": {"parameter": "snr_db", "values": [15.0], "num_symbols": 1000}}, "", "train"),
    "verify": (
        {"verify": {"num_samples": 2000, "quantized_bits": [1], "bitflip_bits": [1], "flip_probs": [0.1]}},
        "_snapshot",
        "verify",
    ),
}


@pytest.mark.parametrize("command", sorted(NETWORK_COMMANDS))
def test_networks_left_by_another_seed_are_not_reused(tmp_path, command):
    out = tmp_path / "out"
    sections, suffix, stale_command = NETWORK_COMMANDS[command]
    cfg_path = write_config(tmp_path, base_config(out, **sections))
    fresh_code = main([command, cfg_path])
    fresh = {p.name: p.read_bytes() for p in out.iterdir()}
    assert f"tx{suffix}.json" in fresh
    shutil.rmtree(out)
    assert main([stale_command, cfg_path, "--seed", "8"]) in (0, 1)
    assert (out / f"tx{suffix}.json").read_bytes() != fresh[f"tx{suffix}.json"]
    assert main([command, cfg_path]) == fresh_code
    assert {name: (out / name).read_bytes() for name in fresh} == fresh


@pytest.mark.parametrize("command", sorted(NETWORK_COMMANDS))
def test_garbage_network_file_is_overwritten(tmp_path, command):
    out = tmp_path / "out"
    out.mkdir()
    sections, suffix, _ = NETWORK_COMMANDS[command]
    for name in (f"tx{suffix}.json", f"rx{suffix}.json"):
        (out / name).write_text("{not json")
    assert main([command, write_config(tmp_path, base_config(out, **sections))]) in (0, 1)
    assert json.loads((out / f"tx{suffix}.json").read_text())["layers"]


def test_verify_rejects_wide_bitflip_quantizer(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", verify={"bitflip_bits": [3]})
    assert main(["verify", write_config(tmp_path, cfg)]) == 2
    assert "1- or 2-bit" in capsys.readouterr().err


def test_verify_trains_only_to_the_snapshot(tmp_path, monkeypatch):
    advanced = []

    def recording_advance(state, cfg, channel_cfg, n):
        state = advance(state, cfg, channel_cfg, n)
        advanced.append((n, state.outer))
        return state

    monkeypatch.setattr(qflearn.cli, "advance", recording_advance)
    out = tmp_path / "out"
    cfg = base_config(
        out,
        verify={
            "num_samples": 20_000,
            "quantized_bits": [1],
            "bitflip_bits": [1],
            "flip_probs": [0.1],
            "snapshot_iter": 2,
        },
    )
    cfg["training"]["num_iterations"] = 5
    assert main(["verify", write_config(tmp_path, cfg)]) in (0, 1)
    assert advanced == [(2, 2)]
    assert json.loads((out / "verify_report.json").read_text())["snapshot_iter"] == 2


def test_verify_runs_one_moments_pass(tmp_path, monkeypatch):
    """Both claims come from one score_moments pass, which replays each
    collection chunk's exploration noise once. Only the replay reaches
    evaluation.exploration_noise: the collection draws through perturb."""
    calls = {"moments": 0, "noise": []}
    moments, noise = qflearn.evaluation.score_moments, qflearn.evaluation.exploration_noise

    def counted_moments(*args, **kwargs):
        calls["moments"] += 1
        return moments(*args, **kwargs)

    def counted_noise(shape, sigma_p_sq, rng):
        calls["noise"].append(shape)
        return noise(shape, sigma_p_sq, rng)

    monkeypatch.setattr(qflearn.evaluation, "score_moments", counted_moments)
    monkeypatch.setattr(qflearn.evaluation, "exploration_noise", counted_noise)
    cfg = base_config(
        tmp_path / "out",
        verify={"num_samples": 70_000, "quantized_bits": [1, 3], "bitflip_bits": [1, 2], "flip_probs": [0.1], "snapshot_iter": 1},
    )
    assert main(["verify", write_config(tmp_path, cfg)]) in (0, 1)
    assert calls == {"moments": 1, "noise": [(65_536, 2), (4_464, 2)]}


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


def test_cli_import_leaves_out_process_and_executor_modules():
    """Importing the package is the whole set-up time of the bench's training
    workloads (about 150 ms); concurrent.futures and multiprocessing add 7
    and 9 ms to it. The helper threads need threading and queue alone."""
    src_dir = os.path.dirname(os.path.dirname(qflearn.__file__))
    code = "import sys, qflearn.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
