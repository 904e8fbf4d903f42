"""Experiment runner: JSON configs in, figure-data artifacts out.

Subcommands: train, ser-sweep, decision-regions, verify, bussgang. Every
output file is reproducible byte-for-byte from (config, seed); CSVs carry a
comment line recording the sha256 of the effective config and the seed.
Config schema is versioned and strict: unknown keys are errors.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

from . import rngstreams
from .channels import AWGN, BscConfig, ChannelConfig
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
from .feedback import QuantizerConfig, bussgang_gain, gaussian_one_bit_gain
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
_CHANNEL_KEYS = {f.name for f in dataclasses.fields(ChannelConfig)}
# The quantizer and bsc sections set the other TrainingConfig fields.
_TRAINING_KEYS = {f.name for f in dataclasses.fields(TrainingConfig)} - {"quantizer", "bsc", "clip_fraction"}
_QUANTIZER_KEYS = {"q_bits", "clip_fraction"}
_BSC_KEYS = {f.name for f in dataclasses.fields(BscConfig)}
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


def _coerce(kind, value, section, key):
    """kind(value) for an int or float config entry; a value that does not
    convert (a list, a word, -Infinity for an int) is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(-Infinity)
        raise ConfigError(f"invalid {section} config: {key}: {exc}") from exc


def _build(cls, section_cfg, section, **extra):
    """cls built from the keys a validated config section sets, numbers
    coerced to their field type; the dataclass defaults rule the rest."""
    kwargs = dict(extra)
    for f in dataclasses.fields(cls):
        if f.name in section_cfg:
            value = section_cfg[f.name]
            kwargs[f.name] = _coerce(f.type, value, section, f.name) if f.type in (int, float) else value
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing required key {f.name!r} in {section}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {section} config: {exc}") from exc


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
    return _build(ChannelConfig, cfg["channel"], "channel")


def build_training(cfg):
    feedback = {}
    if "quantizer" in cfg:
        qc = cfg["quantizer"]
        feedback["quantizer"] = _build(QuantizerConfig, qc, "quantizer")
        if "clip_fraction" in qc:
            feedback["clip_fraction"] = _coerce(float, qc["clip_fraction"], "quantizer", "clip_fraction")
    if "bsc" in cfg:
        feedback["bsc"] = _build(BscConfig, cfg["bsc"], "bsc")
    return _build(TrainingConfig, cfg["training"], "training", **feedback)


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
    num_symbols = _coerce(int, sweep.get("num_symbols", 100_000), "sweep", "num_symbols")
    include_ml = bool(sweep.get("include_qam16_ml", False))
    ml_draws = _coerce(int, sweep.get("ml_draws_per_point", 100_000), "sweep", "ml_draws_per_point")
    channel = build_channel(cfg)
    training = build_training(cfg)
    mode = feedback_mode_label(training)
    q_bits = training.quantizer.q_bits if training.quantizer else ""
    flip_prob = training.bsc.flip_prob if training.bsc else ""
    seed = cfg["seed"]
    # The configured channel at each sweep point's signal power.
    powers = [_coerce(float, v, "sweep", "values") for v in values]
    if parameter == "snr_db":
        powers = [channel.sigma_sq_dbm + snr for snr in powers]
    try:
        point_channels = [dataclasses.replace(channel, P_dbm=p_dbm) for p_dbm in powers]
    except ValueError as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc

    rows = []
    if parameter == "snr_db":
        # Train once at the configured operating point, evaluate each SNR by
        # re-normalizing the constellation to the corresponding power.
        tx, rx = _load_or_train(cfg, out_dir, channel, training)
        for idx, eval_channel in enumerate(point_channels):
            rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx)
            res = estimate_ser(tx, rx, eval_channel, training.num_messages, num_symbols, rng)
            rows.append((eval_channel, res, idx))
    else:
        # One transceiver pair per power point, seeded by seed + index.
        for idx, point_channel in enumerate(point_channels):
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
    resolution = _coerce(int, _require(grid_cfg, "resolution", "grid"), "grid", "resolution")
    if not (isinstance(bounds, list) and len(bounds) == 2):
        raise ConfigError("grid bounds must be a [lo, hi] pair")
    bounds = tuple(_coerce(float, b, "grid", "bounds") for b in bounds)
    channel = build_channel(cfg)
    training = build_training(cfg)
    tx, rx = _load_or_train(cfg, out_dir, channel, training)
    try:
        grid = decision_regions(rx, bounds, resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = os.path.join(out_dir, "decision_regions.csv")
    export_decision_regions_csv(path, grid, _comment_lines(cfg))
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
    num_samples = _coerce(int, vf.get("num_samples", 1_000_000), "verify", "num_samples")
    quantized_bits = [_coerce(int, q, "verify", "quantized_bits") for q in vf.get("quantized_bits", [1, 3, 5])]
    bitflip_bits = [_coerce(int, q, "verify", "bitflip_bits") for q in vf.get("bitflip_bits", [1, 2])]
    flip_probs = [_coerce(float, p, "verify", "flip_probs") for p in vf.get("flip_probs", [0.1, 0.2, 0.3])]
    bad = [q for q in bitflip_bits if q not in (1, 2)]
    if bad:
        raise ConfigError(
            f"bitflip scaling is only claimed for 1- or 2-bit quantization with the natural "
            f"bit mapping; got q_bits={bad}"
        )
    channel = build_channel(cfg)
    training = build_training(cfg)
    default_snapshot = max(1, training.num_iterations // 2)
    snapshot_iter = _coerce(int, vf.get("snapshot_iter", default_snapshot), "verify", "snapshot_iter")

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
    q_list = [_coerce(int, q, "bussgang", "q_bits") for q in bg.get("q_bits", [1, 2, 3, 4, 5, 6, 8])]
    loss_mean = _coerce(float, bg.get("loss_mean", 0.5), "bussgang", "loss_mean")
    loss_std = _coerce(float, bg.get("loss_std", 1.0 / math.sqrt(8.0 * math.pi)), "bussgang", "loss_std")
    num_samples = _coerce(int, bg.get("num_samples", 1_000_000), "bussgang", "num_samples")
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
