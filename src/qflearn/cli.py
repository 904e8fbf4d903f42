"""Experiment runner: JSON configs in, figure-data artifacts out.

Subcommands: train, ser-sweep, decision-regions, verify, bussgang. Every
output file is reproducible byte-for-byte from (config, seed); CSVs carry a
comment line recording the sha256 of the effective config and the seed.
Config schema is versioned and strict: unknown keys are errors.
"""

import argparse
import hashlib
import json
import math
import os
import sys

from . import rngstreams
from .channels import AWGN, NLPN, BscConfig, ChannelConfig
from .evaluation import (
    ExactAwgnDetector,
    SampledNlpnDetector,
    collect_score_samples,
    decision_regions,
    detector_ser,
    estimate_ser,
    export_decision_regions_csv,
    qam16,
    verify_bitflip_gradient_scaling,
    verify_quantized_gradient_scaling,
)
from .feedback import DEFAULT_CLIP_FRACTION, QuantizerConfig, bussgang_gain, gaussian_one_bit_gain
from .neuralnet import load_network, save_network
from .training import TrainingConfig, train, write_metrics_csv
from .transceiver import constellation, export_constellation_csv

CONFIG_SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "QFLEARN_OUTPUT_DIR"

# Verification pass thresholds (fixed, not configurable: they define the checks).
COSINE_MIN = 0.99
RATIO_REL_TOL = 0.05
SCALE_ABS_TOL = 0.05
SIGMA_SLACK = 3.0


class ConfigError(Exception):
    pass


_TOP_KEYS = {
    "schema_version",
    "seed",
    "output_dir",
    "channel",
    "training",
    "quantizer",
    "bsc",
    "sweep",
    "grid",
    "verify",
    "bussgang",
}
_CHANNEL_KEYS = {"family", "sigma_sq_dbm", "P_dbm", "gamma", "L_km", "K"}
_TRAINING_KEYS = {
    "num_iterations",
    "num_messages",
    "n_rx_steps",
    "n_tx_steps",
    "batch_rx",
    "batch_tx",
    "lr_rx",
    "lr_tx",
    "ser_every",
    "ser_symbols",
}
_QUANTIZER_KEYS = {"q_bits", "clip_fraction"}
_BSC_KEYS = {"flip_prob"}
_SWEEP_KEYS = {"parameter", "values", "num_symbols", "include_qam16_ml", "ml_draws_per_point"}
_GRID_KEYS = {"bounds", "resolution"}
_VERIFY_KEYS = {"num_samples", "quantized_bits", "bitflip_bits", "flip_probs", "snapshot_iter"}
_BUSSGANG_KEYS = {"q_bits", "loss_mean", "loss_std", "num_samples"}


def _check_keys(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")


def _require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return mapping[key]


def _reject_non_finite(literal):
    # -Infinity stays legal: it is how a config asks for a noiseless channel.
    if literal != "-Infinity":
        raise ConfigError(f"{literal} is not allowed in a config")
    return -math.inf


def load_config(path):
    """Read and validate an experiment config; returns the raw dict."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_non_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    version = _require(cfg, "schema_version", "config")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; this build expects {CONFIG_SCHEMA_VERSION}")
    if not isinstance(_require(cfg, "seed", "config"), int):
        raise ConfigError("seed must be an integer")
    _check_keys(_require(cfg, "channel", "config"), _CHANNEL_KEYS, "channel")
    _check_keys(_require(cfg, "training", "config"), _TRAINING_KEYS, "training")
    for section, keys in (
        ("quantizer", _QUANTIZER_KEYS),
        ("bsc", _BSC_KEYS),
        ("sweep", _SWEEP_KEYS),
        ("grid", _GRID_KEYS),
        ("verify", _VERIFY_KEYS),
        ("bussgang", _BUSSGANG_KEYS),
    ):
        if section in cfg:
            _check_keys(cfg[section], keys, section)
    if "bsc" in cfg and "quantizer" not in cfg:
        raise ConfigError("bsc requires a quantizer section")
    return cfg


def config_hash(cfg):
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_channel(cfg):
    ch = cfg["channel"]
    try:
        return ChannelConfig(
            family=_require(ch, "family", "channel"),
            sigma_sq_dbm=float(_require(ch, "sigma_sq_dbm", "channel")),
            P_dbm=float(_require(ch, "P_dbm", "channel")),
            gamma=float(ch.get("gamma", 0.0)),
            L_km=float(ch.get("L_km", 0.0)),
            K=int(ch.get("K", 1)),
        )
    except (ValueError, OverflowError) as exc:  # OverflowError: int(-Infinity)
        raise ConfigError(f"invalid channel config: {exc}") from exc


def build_training(cfg):
    tr = cfg["training"]
    quantizer = None
    clip_fraction = DEFAULT_CLIP_FRACTION
    if "quantizer" in cfg:
        qc = cfg["quantizer"]
        quantizer = QuantizerConfig(int(_require(qc, "q_bits", "quantizer")))
        clip_fraction = float(qc.get("clip_fraction", DEFAULT_CLIP_FRACTION))
    bsc = None
    if "bsc" in cfg:
        bsc = BscConfig(float(_require(cfg["bsc"], "flip_prob", "bsc")))
    try:
        return TrainingConfig(
            num_iterations=int(_require(tr, "num_iterations", "training")),
            num_messages=int(tr.get("num_messages", 16)),
            n_rx_steps=int(tr.get("n_rx_steps", 30)),
            n_tx_steps=int(tr.get("n_tx_steps", 20)),
            batch_rx=int(tr.get("batch_rx", 64)),
            batch_tx=int(tr.get("batch_tx", 64)),
            lr_rx=float(tr.get("lr_rx", 0.008)),
            lr_tx=float(tr.get("lr_tx", 0.001)),
            quantizer=quantizer,
            bsc=bsc,
            clip_fraction=clip_fraction,
            ser_every=int(tr.get("ser_every", 50)),
            ser_symbols=int(tr.get("ser_symbols", 10_000)),
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid training config: {exc}") from exc


def feedback_mode_label(training_cfg):
    if training_cfg.quantizer is None:
        return "perfect"
    if training_cfg.bsc is not None and training_cfg.bsc.flip_prob > 0.0:
        return "quantized_noisy"
    return "quantized"


def _comment_lines(cfg):
    return [f"config_sha256={config_hash(cfg)} seed={cfg['seed']}"]


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_train(cfg, out_dir):
    channel = build_channel(cfg)
    training = build_training(cfg)
    result = train(training, channel, cfg["seed"])
    save_network(result.tx, os.path.join(out_dir, "tx.json"))
    save_network(result.rx, os.path.join(out_dir, "rx.json"))
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), result.metrics, _comment_lines(cfg))
    points = constellation(result.tx, training.num_messages, channel.P_mw)
    export_constellation_csv(os.path.join(out_dir, "constellation.csv"), points)
    final_ser = next((r.ser for r in reversed(result.metrics) if r.ser is not None), None)
    print(f"trained {training.num_iterations} outer iterations "
          f"({len(result.metrics)} gradient steps), feedback={feedback_mode_label(training)}")
    if final_ser is not None:
        print(f"final SER estimate: {final_ser:.4g}")
    print(f"artifacts written to {out_dir}")
    return 0


def _load_or_train(cfg, out_dir, channel, training):
    tx_path = os.path.join(out_dir, "tx.json")
    rx_path = os.path.join(out_dir, "rx.json")
    if os.path.exists(tx_path) and os.path.exists(rx_path):
        return load_network(tx_path), load_network(rx_path)
    result = train(training, channel, cfg["seed"])
    save_network(result.tx, tx_path)
    save_network(result.rx, rx_path)
    return result.tx, result.rx


def cmd_ser_sweep(cfg, out_dir):
    if "sweep" not in cfg:
        raise ConfigError("ser-sweep requires a sweep section")
    sweep = cfg["sweep"]
    parameter = _require(sweep, "parameter", "sweep")
    if parameter not in ("snr_db", "p_dbm"):
        raise ConfigError(f"sweep parameter must be 'snr_db' or 'p_dbm', got {parameter!r}")
    values = _require(sweep, "values", "sweep")
    if not values:
        raise ConfigError("sweep values must be nonempty")
    num_symbols = int(sweep.get("num_symbols", 100_000))
    include_ml = bool(sweep.get("include_qam16_ml", False))
    ml_draws = int(sweep.get("ml_draws_per_point", 100_000))
    channel = build_channel(cfg)
    training = build_training(cfg)
    mode = feedback_mode_label(training)
    q_bits = training.quantizer.q_bits if training.quantizer else ""
    flip_prob = training.bsc.flip_prob if training.bsc else ""
    seed = cfg["seed"]

    rows = []
    if parameter == "snr_db":
        # Train once at the configured operating point, evaluate each SNR by
        # re-normalizing the constellation to the corresponding power.
        tx, rx = _load_or_train(cfg, out_dir, channel, training)
        for idx, snr in enumerate(values):
            eval_channel = ChannelConfig(
                family=channel.family,
                sigma_sq_dbm=channel.sigma_sq_dbm,
                P_dbm=channel.sigma_sq_dbm + float(snr),
                gamma=channel.gamma,
                L_km=channel.L_km,
                K=channel.K,
            )
            rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx)
            res = estimate_ser(tx, rx, eval_channel, training.num_messages, num_symbols, rng)
            rows.append((eval_channel, res, idx))
    else:
        # One transceiver pair per power point, seeded by seed + index.
        for idx, p_dbm in enumerate(values):
            point_channel = ChannelConfig(
                family=channel.family,
                sigma_sq_dbm=channel.sigma_sq_dbm,
                P_dbm=float(p_dbm),
                gamma=channel.gamma,
                L_km=channel.L_km,
                K=channel.K,
            )
            result = train(training, point_channel, seed + idx)
            rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx)
            res = estimate_ser(result.tx, result.rx, point_channel, training.num_messages, num_symbols, rng)
            rows.append((point_channel, res, idx))

    header = "snr_db,p_dbm,ser,stderr,num_symbols,feedback_mode,q_bits,flip_prob"
    if include_ml:
        header += ",qam16_ml_ser"
    path = os.path.join(out_dir, "ser_sweep.csv")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for line in _comment_lines(cfg):
            fh.write(f"# {line}\n")
        for eval_channel, res, idx in rows:
            cells = [
                repr(float(res.snr_db)),
                repr(float(res.p_dbm)),
                repr(float(res.ser)),
                repr(float(res.stderr)),
                str(res.num_symbols),
                mode,
                str(q_bits),
                str(flip_prob),
            ]
            if include_ml:
                baseline_points = qam16(eval_channel.P_mw)
                if eval_channel.family == AWGN:
                    detector = ExactAwgnDetector(baseline_points)
                else:
                    fit_rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx, 1)
                    detector = SampledNlpnDetector.fit(
                        baseline_points, eval_channel, fit_rng, draws_per_point=ml_draws
                    )
                ml_rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx, 2)
                ml_res = detector_ser(baseline_points, detector, eval_channel, num_symbols, ml_rng)
                cells.append(repr(ml_res.ser))
            fh.write(",".join(cells) + "\n")
    print(f"wrote {len(rows)} sweep rows to {path}")
    return 0


def cmd_decision_regions(cfg, out_dir):
    if "grid" not in cfg:
        raise ConfigError("decision-regions requires a grid section")
    grid_cfg = cfg["grid"]
    bounds = _require(grid_cfg, "bounds", "grid")
    resolution = int(_require(grid_cfg, "resolution", "grid"))
    if not (isinstance(bounds, list) and len(bounds) == 2):
        raise ConfigError("grid bounds must be a [lo, hi] pair")
    channel = build_channel(cfg)
    training = build_training(cfg)
    tx, rx = _load_or_train(cfg, out_dir, channel, training)
    try:
        grid = decision_regions(rx, (float(bounds[0]), float(bounds[1])), resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = os.path.join(out_dir, "decision_regions.csv")
    # export, then splice the comment line under the header for provenance
    export_decision_regions_csv(path, grid)
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.write(lines[0])
        for line in _comment_lines(cfg):
            fh.write(f"# {line}\n")
        fh.writelines(lines[1:])
    points = constellation(tx, training.num_messages, channel.P_mw)
    export_constellation_csv(os.path.join(out_dir, "constellation.csv"), points)
    print(f"wrote {resolution}x{resolution} grid to {path}")
    return 0


def _report_entry(report, extra):
    # float() everywhere so numpy scalars never reach the JSON encoder
    entry = {
        "scale_target": float(report.scale_target),
        "fitted_scale": float(report.fitted_scale),
        "cosine": float(report.cosine),
        "magnitude_ratio": float(report.magnitude_ratio),
        "mean_gap_norm": float(report.mean_gap_norm),
        "mean_gap_se": float(report.mean_gap_se),
        "gap_within_3se": bool(report.mean_gap_norm <= SIGMA_SLACK * report.mean_gap_se),
        "var_test": None if math.isnan(report.var_test) else float(report.var_test),
        "var_bound": None if math.isnan(report.var_bound) else float(report.var_bound),
        "fisher_trace": float(report.fisher_trace),
        "num_samples": int(report.num_samples),
    }
    entry.update(extra)
    return entry


def cmd_verify(cfg, out_dir):
    vf = cfg.get("verify", {})
    num_samples = int(vf.get("num_samples", 1_000_000))
    quantized_bits = [int(q) for q in vf.get("quantized_bits", [1, 3, 5])]
    bitflip_bits = [int(q) for q in vf.get("bitflip_bits", [1, 2])]
    flip_probs = [float(p) for p in vf.get("flip_probs", [0.1, 0.2, 0.3])]
    bad = [q for q in bitflip_bits if q not in (1, 2)]
    if bad:
        raise ConfigError(
            f"bitflip scaling is only claimed for 1- or 2-bit quantization with the natural "
            f"bit mapping; got q_bits={bad}"
        )
    channel = build_channel(cfg)
    training = build_training(cfg)
    snapshot_iter = int(vf.get("snapshot_iter", max(1, training.num_iterations // 2)))

    tx_path = os.path.join(out_dir, "tx_snapshot.json")
    rx_path = os.path.join(out_dir, "rx_snapshot.json")
    if os.path.exists(tx_path) and os.path.exists(rx_path):
        tx, rx = load_network(tx_path), load_network(rx_path)
    else:
        result = train(training, channel, cfg["seed"], snapshot_iter=snapshot_iter)
        if result.snapshot is None:
            raise ConfigError(
                f"snapshot_iter {snapshot_iter} exceeds num_iterations {training.num_iterations}"
            )
        tx, rx = result.snapshot
        save_network(tx, tx_path)
        save_network(rx, rx_path)

    rng = rngstreams.substream(cfg["seed"], rngstreams.VERIFY)
    samples = collect_score_samples(tx, rx, channel, training.num_messages, num_samples, rng)
    quant_reports = verify_quantized_gradient_scaling(samples, quantized_bits, training.clip_fraction)
    flip_rng = rngstreams.substream(cfg["seed"], rngstreams.VERIFY, 1)
    flip_reports = verify_bitflip_gradient_scaling(
        samples, flip_rng, bitflip_bits, flip_probs, training.clip_fraction
    )

    payload = {
        "config_sha256": config_hash(cfg),
        "seed": cfg["seed"],
        "num_samples": num_samples,
        "snapshot_iter": snapshot_iter,
        "quantized_scaling": {},
        "bitflip_scaling": {},
    }
    all_pass = True
    for q, rep in sorted(quant_reports.items()):
        cosine_pass = rep.cosine > COSINE_MIN
        ratio_pass = abs(rep.magnitude_ratio - rep.g_hat) <= RATIO_REL_TOL * rep.g_hat
        var_pass = rep.var_test <= rep.var_bound + SIGMA_SLACK * rep.var_slack_se
        entry = _report_entry(
            rep,
            {
                "g_hat": rep.g_hat,
                "w_bar": rep.w_bar,
                "cosine_pass": bool(cosine_pass),
                "ratio_pass": bool(ratio_pass),
                "var_pass": bool(var_pass),
                "pass": bool(cosine_pass and ratio_pass and var_pass),
            },
        )
        payload["quantized_scaling"][f"q{q}"] = entry
        all_pass = all_pass and entry["pass"]
    for (q, p), rep in sorted(flip_reports.items()):
        scale_pass = abs(rep.fitted_scale - rep.scale_target) <= SCALE_ABS_TOL
        var_pass = True
        if q == 1:
            var_pass = rep.var_test <= rep.var_bound + SIGMA_SLACK * rep.var_slack_se
        entry = _report_entry(
            rep,
            {
                "flip_prob": p,
                "scale_pass": bool(scale_pass),
                "var_pass": bool(var_pass),
                "pass": bool(scale_pass and var_pass),
            },
        )
        payload["bitflip_scaling"][f"q{q}_p{p}"] = entry
        all_pass = all_pass and entry["pass"]
    payload["all_pass"] = all_pass
    path = os.path.join(out_dir, "verify_report.json")
    _write_json(path, payload)
    print(f"verification report written to {path}")
    print(f"all checks passed: {all_pass}")
    return 0 if all_pass else 1


def cmd_bussgang(cfg, out_dir):
    """Bussgang gain of the fixed quantizer on synthetic Gaussian losses."""
    bg = cfg.get("bussgang", {})
    q_list = [int(q) for q in bg.get("q_bits", [1, 2, 3, 4, 5, 6, 8])]
    loss_mean = float(bg.get("loss_mean", 0.5))
    loss_std = float(bg.get("loss_std", 1.0 / math.sqrt(8.0 * math.pi)))
    num_samples = int(bg.get("num_samples", 1_000_000))
    rng = rngstreams.substream(cfg["seed"], rngstreams.VERIFY, 2)
    losses = rng.normal(loss_mean, loss_std, size=num_samples)
    path = os.path.join(out_dir, "bussgang.csv")
    with open(path, "w") as fh:
        fh.write("q_bits,g_hat,w_bar,w_mean,w_var,gaussian_one_bit_gain\n")
        for line in _comment_lines(cfg):
            fh.write(f"# {line}\n")
        for q in q_list:
            est = bussgang_gain(losses, QuantizerConfig(q))
            closed_cell = repr(gaussian_one_bit_gain(loss_std**2)) if q == 1 else ""
            fh.write(
                f"{q},{est.g!r},{est.w_bar!r},{est.w_mean!r},{est.w_var!r},{closed_cell}\n"
            )
    print(f"wrote {len(q_list)} rows to {path}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "ser-sweep": cmd_ser_sweep,
    "decision-regions": cmd_decision_regions,
    "verify": cmd_verify,
    "bussgang": cmd_bussgang,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qflearn",
        description="Transceiver learning with quantized feedback: experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--iterations", type=int, default=None, help="override training.num_iterations"
        )
        p.add_argument("--output-dir", default=None, help="override config output_dir")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.iterations is not None:
            cfg["training"]["num_iterations"] = args.iterations
        out_dir = cfg.get("output_dir", "out")
        if os.environ.get(OUTPUT_DIR_ENV):
            out_dir = os.environ[OUTPUT_DIR_ENV]
        if args.output_dir is not None:
            out_dir = args.output_dir
        cfg["output_dir"] = out_dir
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
