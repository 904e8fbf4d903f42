"""Experiment runner: JSON configs in, figure-data artifacts out.

Subcommands: train, ser-sweep, decision-regions, verify, bussgang. Every
output file is reproducible byte-for-byte from (config, seed): each command
builds its networks from them and writes, but never reads back, the network
files. CSVs carry a comment line recording the sha256 of the effective
config and the seed.
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
    check_grid,
    collect_score_samples,
    decision_regions,
    detector_ser,
    estimate_ser,
    qam16,
    verify_bitflip_gradient_scaling,
    verify_quantized_gradient_scaling,
)
from .feedback import QuantizerConfig, bussgang_gain, gaussian_one_bit_gain
from .neuralnet import save_network
from .training import TrainingConfig, TrainState, advance, train, write_csv, write_metrics_csv
from .transceiver import constellation

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
    """kind(value) for an int or float config entry. An int entry takes only a
    JSON integer, a float entry any JSON number; a bool, a string, a list, a
    fraction or -Infinity for an int is a config error."""
    try:
        if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)
    except (TypeError, OverflowError) as exc:  # OverflowError: float(10**400)
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


def _list(section_cfg, key, default, section):
    """A list config entry; a string is rejected, not split into characters."""
    value = section_cfg.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"invalid {section} config: {key} must be a list")
    return value


def _count(section_cfg, key, default, section):
    """A positive integer config entry (a sample or symbol count)."""
    value = _coerce(int, section_cfg.get(key, default), section, key)
    if value < 1:
        raise ConfigError(f"invalid {section} config: {key} must be >= 1")
    return value


def _reject_non_finite(literal):
    # -Infinity stays legal: it is how a config asks for a noiseless channel.
    if literal != "-Infinity":
        raise ConfigError(f"{literal} is not allowed in a config")
    return -math.inf


def _check_seed(seed):
    # bool is an int subclass, and every substream needs a seed >= 0.
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


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
    _check_seed(_require(cfg, "seed", "config"))
    # build_channel and build_training require these two; bussgang reads neither.
    for section, keys in (
        ("channel", _CHANNEL_KEYS),
        ("training", _TRAINING_KEYS),
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
    return _build(ChannelConfig, _require(cfg, "channel", "config"), "channel")


def build_training(cfg):
    feedback = {}
    if "quantizer" in cfg:
        qc = cfg["quantizer"]
        feedback["quantizer"] = _build(QuantizerConfig, qc, "quantizer")
        if "clip_fraction" in qc:
            feedback["clip_fraction"] = _coerce(float, qc["clip_fraction"], "quantizer", "clip_fraction")
    if "bsc" in cfg:
        feedback["bsc"] = _build(BscConfig, cfg["bsc"], "bsc")
    return _build(TrainingConfig, _require(cfg, "training", "config"), "training", **feedback)


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


def write_constellation_csv(path, points):
    """constellation.csv: one message_index,x_real,x_imag row per message, 1-based."""
    rows = ((m, re, im) for m, (re, im) in enumerate(points, start=1))
    write_csv(path, ("message_index", "x_real", "x_imag"), rows)


def write_decision_regions_csv(path, grid, comments=()):
    """decision_regions.csv: one re,im,message row per grid point, messages 1-based."""
    rows = ((re, im, grid.labels[i, j] + 1) for i, im in enumerate(grid.im) for j, re in enumerate(grid.re))
    write_csv(path, ("re", "im", "message"), rows, comments)


def _save_networks(state, out_dir, suffix=""):
    # Written, never read back: every command trains from (config, seed).
    save_network(state.tx, os.path.join(out_dir, f"tx{suffix}.json"))
    save_network(state.rx, os.path.join(out_dir, f"rx{suffix}.json"))


def cmd_train(cfg, out_dir):
    channel = build_channel(cfg)
    training = build_training(cfg)
    result = train(training, channel, cfg["seed"])
    _save_networks(result, out_dir)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), result.metrics, _comment_lines(cfg))
    points = constellation(result.tx, training.num_messages, channel.P_mw)
    write_constellation_csv(os.path.join(out_dir, "constellation.csv"), points)
    final_ser = next((r.ser for r in reversed(result.metrics) if r.ser is not None), None)
    print(f"trained {training.num_iterations} outer iterations "
          f"({len(result.metrics)} gradient steps), feedback={feedback_mode_label(training)}")
    if final_ser is not None:
        print(f"final SER estimate: {final_ser:.4g}")
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_ser_sweep(cfg, out_dir):
    if "sweep" not in cfg:
        raise ConfigError("ser-sweep requires a sweep section")
    sweep = cfg["sweep"]
    parameter = _require(sweep, "parameter", "sweep")
    if parameter not in ("snr_db", "p_dbm"):
        raise ConfigError(f"sweep parameter must be 'snr_db' or 'p_dbm', got {parameter!r}")
    _require(sweep, "values", "sweep")
    values = _list(sweep, "values", None, "sweep")
    if not values:
        raise ConfigError("sweep values must be nonempty")
    num_symbols = _count(sweep, "num_symbols", 100_000, "sweep")
    include_ml = sweep.get("include_qam16_ml", False)
    if not isinstance(include_ml, bool):
        raise ConfigError("invalid sweep config: include_qam16_ml must be true or false")
    ml_draws = _count(sweep, "ml_draws_per_point", 100_000, "sweep")
    channel = build_channel(cfg)
    training = build_training(cfg)
    mode = feedback_mode_label(training)
    q_bits = training.quantizer.q_bits if training.quantizer else None
    flip_prob = training.bsc.flip_prob if training.bsc else None
    seed = cfg["seed"]
    # The configured channel at each sweep point's signal power.
    powers = [_coerce(float, v, "sweep", "values") for v in values]
    if parameter == "snr_db":
        powers = [channel.sigma_sq_dbm + snr for snr in powers]
    try:
        point_channels = [dataclasses.replace(channel, P_dbm=p_dbm) for p_dbm in powers]
    except ValueError as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc

    if parameter == "snr_db":
        # Train once at the configured operating point, evaluate each SNR by
        # re-normalizing the constellation to the corresponding power.
        trained = train(training, channel, seed)
        _save_networks(trained, out_dir)
    columns = ("snr_db", "p_dbm", "ser", "stderr", "num_symbols", "feedback_mode", "q_bits", "flip_prob")
    columns += ("qam16_ml_ser",) if include_ml else ()
    rows = []
    for idx, point_channel in enumerate(point_channels):
        if parameter == "p_dbm":
            # One transceiver pair per power point, seeded by seed + index.
            trained = train(training, point_channel, seed + idx)
        rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx)
        res = estimate_ser(trained.tx, trained.rx, point_channel, training.num_messages, num_symbols, rng)
        row = (res.snr_db, res.p_dbm, res.ser, res.stderr, res.num_symbols, mode, q_bits, flip_prob)
        if include_ml:
            baseline_points = qam16(point_channel.P_mw)
            if point_channel.family == AWGN:
                detector = ExactAwgnDetector(baseline_points)
            else:
                fit_rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx, 1)
                detector = SampledNlpnDetector.fit(
                    baseline_points, point_channel, fit_rng, draws_per_point=ml_draws
                )
            ml_rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx, 2)
            row += (detector_ser(baseline_points, detector, point_channel, num_symbols, ml_rng).ser,)
        rows.append(row)
    path = os.path.join(out_dir, "ser_sweep.csv")
    write_csv(path, columns, rows, _comment_lines(cfg))
    print(f"wrote {len(rows)} sweep rows to {path}")
    return 0


def cmd_decision_regions(cfg, out_dir):
    if "grid" not in cfg:
        raise ConfigError("decision-regions requires a grid section")
    grid_cfg = cfg["grid"]
    bounds = _require(grid_cfg, "bounds", "grid")
    resolution = _coerce(int, _require(grid_cfg, "resolution", "grid"), "grid", "resolution")
    if not (isinstance(bounds, list) and len(bounds) == 2):
        raise ConfigError("invalid grid config: bounds must be a [lo, hi] pair")
    bounds = tuple(_coerce(float, b, "grid", "bounds") for b in bounds)
    try:
        check_grid(bounds, resolution)
    except ValueError as exc:
        raise ConfigError(f"invalid grid config: {exc}") from exc
    channel = build_channel(cfg)
    training = build_training(cfg)
    result = train(training, channel, cfg["seed"])
    _save_networks(result, out_dir)
    path = os.path.join(out_dir, "decision_regions.csv")
    write_decision_regions_csv(path, decision_regions(result.rx, bounds, resolution), _comment_lines(cfg))
    points = constellation(result.tx, training.num_messages, channel.P_mw)
    write_constellation_csv(os.path.join(out_dir, "constellation.csv"), points)
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
    num_samples = _count(vf, "num_samples", 1_000_000, "verify")
    # Each q and p goes through its dataclass here, so a bad one fails before training.
    quantized_bits = [
        _build(QuantizerConfig, {"q_bits": q}, "verify").q_bits
        for q in _list(vf, "quantized_bits", [1, 3, 5], "verify")
    ]
    bitflip_bits = [_coerce(int, q, "verify", "bitflip_bits") for q in _list(vf, "bitflip_bits", [1, 2], "verify")]
    flip_probs = [
        _build(BscConfig, {"flip_prob": p}, "verify").flip_prob
        for p in _list(vf, "flip_probs", [0.1, 0.2, 0.3], "verify")
    ]
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
    if not 1 <= snapshot_iter <= training.num_iterations:
        raise ConfigError(
            f"invalid verify config: snapshot_iter {snapshot_iter} must lie in "
            f"1..num_iterations ({training.num_iterations})"
        )

    # Only the networks after snapshot_iter are measured, so train no further.
    snapshot = advance(TrainState.start(training, cfg["seed"]), training, channel, snapshot_iter)
    _save_networks(snapshot, out_dir, "_snapshot")

    rng = rngstreams.substream(cfg["seed"], rngstreams.VERIFY)
    samples = collect_score_samples(snapshot.tx, snapshot.rx, channel, training.num_messages, num_samples, rng)
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
    quantizers = [
        _build(QuantizerConfig, {"q_bits": q}, "bussgang")
        for q in _list(bg, "q_bits", [1, 2, 3, 4, 5, 6, 8], "bussgang")
    ]
    loss_mean = _coerce(float, bg.get("loss_mean", 0.5), "bussgang", "loss_mean")
    loss_std = _coerce(float, bg.get("loss_std", 1.0 / math.sqrt(8.0 * math.pi)), "bussgang", "loss_std")
    if not math.isfinite(loss_mean):
        raise ConfigError("invalid bussgang config: loss_mean must be finite")
    if not 0.0 < loss_std < math.inf:
        raise ConfigError("invalid bussgang config: loss_std must be positive and finite")
    num_samples = _count(bg, "num_samples", 1_000_000, "bussgang")
    rng = rngstreams.substream(cfg["seed"], rngstreams.VERIFY, 2)
    losses = rng.normal(loss_mean, loss_std, size=num_samples)
    rows = []
    for qcfg in quantizers:
        est = bussgang_gain(losses, qcfg)
        closed_form = gaussian_one_bit_gain(loss_std**2) if qcfg.q_bits == 1 else None
        rows.append((qcfg.q_bits, est.g, est.w_bar, est.w_mean, est.w_var, closed_form))
    path = os.path.join(out_dir, "bussgang.csv")
    columns = ("q_bits", "g_hat", "w_bar", "w_mean", "w_var", "gaussian_one_bit_gain")
    write_csv(path, columns, rows, _comment_lines(cfg))
    print(f"wrote {len(quantizers)} rows to {path}")
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
            _check_seed(args.seed)
            cfg["seed"] = args.seed
        if args.iterations is not None and "training" in cfg:
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
