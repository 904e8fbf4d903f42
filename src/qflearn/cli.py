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
import typing
from dataclasses import dataclass, field

from . import rngstreams
from .channels import AWGN, BscConfig, ChannelConfig
from .evaluation import (
    ExactAwgnDetector,
    SampledNlpnDetector,
    check_bitflip_claim,
    check_grid,
    collect_score_samples,
    decision_regions,
    detector_ser,
    estimate_ser,
    qam16,
    verify_bitflip_gradient_scaling,
    verify_quantized_gradient_scaling,
)
from .feedback import QuantizerConfig, bussgang_gain, gaussian_one_bit_gain, losses_to_clip
from .neuralnet import save_network
from .training import TrainingConfig, TrainState, advance, check_counts, train, write_csv, write_metrics_csv
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


@dataclass
class SweepConfig:
    parameter: str  # "snr_db" | "p_dbm"
    values: list[float]
    num_symbols: int = 100_000
    include_qam16_ml: bool = False
    ml_draws_per_point: int = 100_000

    def __post_init__(self):
        if self.parameter not in ("snr_db", "p_dbm"):
            raise ValueError(f"parameter must be 'snr_db' or 'p_dbm', got {self.parameter!r}")
        if not self.values:
            raise ValueError("values must be nonempty")
        check_counts(self, "num_symbols", "ml_draws_per_point")


@dataclass
class GridConfig:
    bounds: list[float]  # [lo, hi] on both axes
    resolution: int

    def __post_init__(self):
        check_grid(self.bounds, self.resolution)


@dataclass
class VerifyConfig:
    num_samples: int = 1_000_000
    quantized_bits: list[int] = field(default_factory=lambda: [1, 3, 5])
    bitflip_bits: list[int] = field(default_factory=lambda: [1, 2])
    flip_probs: list[float] = field(default_factory=lambda: [0.1, 0.2, 0.3])
    snapshot_iter: int | None = None  # None: half of training.num_iterations, at least 1

    def __post_init__(self):
        check_counts(self, "num_samples")
        for q in self.quantized_bits:
            QuantizerConfig(q)
        check_bitflip_claim(self.bitflip_bits, self.flip_probs)
        for key in ("quantized_bits", "bitflip_bits", "flip_probs"):
            if len(set(values := getattr(self, key))) < len(values):
                raise ValueError(f"{key} repeats a value: {values}")
        if not (self.quantized_bits or self.bitflip_bits and self.flip_probs):
            raise ValueError("no check to run: quantized_bits is empty, and so is bitflip_bits or flip_probs")


@dataclass
class BussgangConfig:
    q_bits: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5, 6, 8])
    loss_mean: float = 0.5
    loss_std: float = 1.0 / math.sqrt(8.0 * math.pi)
    num_samples: int = 1_000_000

    def __post_init__(self):
        for q in self.q_bits:
            QuantizerConfig(q)
        if not math.isfinite(self.loss_mean):
            raise ValueError("loss_mean must be finite")
        if not 0.0 < self.loss_std < math.inf:
            raise ValueError("loss_std must be positive and finite")
        check_counts(self, "num_samples")


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


# The keys of each section; the quantizer and bsc sections set the other TrainingConfig fields.
_SECTION_KEYS = {
    "channel": _fields(ChannelConfig),
    "training": _fields(TrainingConfig) - {"quantizer", "bsc", "clip_fraction"},
    "quantizer": _fields(QuantizerConfig) | {"clip_fraction"},
    "bsc": _fields(BscConfig),
    "sweep": _fields(SweepConfig),
    "grid": _fields(GridConfig),
    "verify": _fields(VerifyConfig),
    "bussgang": _fields(BussgangConfig),
}
_TOP_KEYS = {"schema_version", "seed", "output_dir", *_SECTION_KEYS}


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
    """value as a config entry of field type kind (int | None as int): an int
    takes only a JSON integer, a float any JSON number, a bool only true or
    false, a list[int] or list[float] only an array of those; other field
    types pass through. A bool or string for a number is an error."""
    if type(None) in typing.get_args(kind):
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"invalid {section} config: {key} must be true or false")
        return value
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"invalid {section} config: {key} must be a list")
        return [_coerce(typing.get_args(kind)[0], item, section, key) for item in value]
    if kind not in (int, float):
        return value
    try:
        if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)
    except (TypeError, OverflowError) as exc:  # OverflowError: float(10**400)
        raise ConfigError(f"invalid {section} config: {key}: {exc}") from exc


def _build(cls, section_cfg, section, **extra):
    """cls built from the keys a validated config section sets, each
    coerced to its field type; the dataclass defaults rule the rest."""
    kwargs = dict(extra)
    for f in dataclasses.fields(cls):
        if f.name in section_cfg:
            kwargs[f.name] = _coerce(f.type, section_cfg[f.name], section, f.name)
        elif f.default is f.default_factory is dataclasses.MISSING:
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
    if type(version) is not int or version != CONFIG_SCHEMA_VERSION:  # True and 1.0 equal 1
        raise ConfigError(f"unsupported schema_version {version!r}; this build expects {CONFIG_SCHEMA_VERSION}")
    _check_seed(_require(cfg, "seed", "config"))
    output_dir = cfg.get("output_dir", "out")
    if not (isinstance(output_dir, str) and output_dir):
        raise ConfigError(f"invalid config: output_dir must be a non-empty string, got {output_dir!r}")
    # The commands that train require channel and training; bussgang reads neither.
    for section, keys in _SECTION_KEYS.items():
        if section in cfg:
            _check_keys(cfg[section], keys, section)
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
    sweep = _build(SweepConfig, _require(cfg, "sweep", "config"), "sweep")
    channel = build_channel(cfg)
    training = build_training(cfg)
    mode = feedback_mode_label(training)
    q_bits = training.quantizer.q_bits if training.quantizer else None
    flip_prob = training.bsc.flip_prob if training.bsc else None
    seed = cfg["seed"]
    # The configured channel at each sweep point's signal power.
    powers = sweep.values
    if sweep.parameter == "snr_db":
        powers = [channel.sigma_sq_dbm + snr for snr in powers]
    try:
        point_channels = [dataclasses.replace(channel, P_dbm=p_dbm) for p_dbm in powers]
    except ValueError as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc

    if sweep.parameter == "snr_db":
        # Train once at the configured operating point, evaluate each SNR by
        # re-normalizing the constellation to the corresponding power.
        trained = train(training, channel, seed)
        _save_networks(trained, out_dir)
    columns = ("snr_db", "p_dbm", "ser", "stderr", "num_symbols", "feedback_mode", "q_bits", "flip_prob")
    columns += ("qam16_ml_ser",) if sweep.include_qam16_ml else ()
    rows = []
    for idx, point_channel in enumerate(point_channels):
        if sweep.parameter == "p_dbm":
            # One transceiver pair per power point, seeded by seed + index.
            trained = train(training, point_channel, seed + idx)
        rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx)
        res = estimate_ser(trained.tx, trained.rx, point_channel, training.num_messages, sweep.num_symbols, rng)
        row = (res.snr_db, res.p_dbm, res.ser, res.stderr, res.num_symbols, mode, q_bits, flip_prob)
        if sweep.include_qam16_ml:
            baseline_points = qam16(point_channel.P_mw)
            if point_channel.family == AWGN:
                detector = ExactAwgnDetector(baseline_points)
            else:
                fit_rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx, 1)
                detector = SampledNlpnDetector.fit(
                    baseline_points, point_channel, fit_rng, draws_per_point=sweep.ml_draws_per_point
                )
            ml_rng = rngstreams.substream(seed, rngstreams.SWEEP_EVAL, idx, 2)
            row += (detector_ser(baseline_points, detector, point_channel, sweep.num_symbols, ml_rng).ser,)
        rows.append(row)
    path = os.path.join(out_dir, "ser_sweep.csv")
    write_csv(path, columns, rows, _comment_lines(cfg))
    print(f"wrote {len(rows)} sweep rows to {path}")
    return 0


def cmd_decision_regions(cfg, out_dir):
    grid = _build(GridConfig, _require(cfg, "grid", "config"), "grid")
    channel = build_channel(cfg)
    training = build_training(cfg)
    result = train(training, channel, cfg["seed"])
    _save_networks(result, out_dir)
    path = os.path.join(out_dir, "decision_regions.csv")
    write_decision_regions_csv(path, decision_regions(result.rx, grid.bounds, grid.resolution), _comment_lines(cfg))
    points = constellation(result.tx, training.num_messages, channel.P_mw)
    write_constellation_csv(os.path.join(out_dir, "constellation.csv"), points)
    print(f"wrote {grid.resolution}x{grid.resolution} grid to {path}")
    return 0


# The ScalingReport fields a verify_report.json entry carries as floats.
_REPORT_FIGURES = (
    "scale_target", "fitted_scale", "cosine", "magnitude_ratio", "mean_gap_norm", "mean_gap_se", "fisher_trace"
)


def _var_pass(report):
    return report.var_test <= report.var_bound + SIGMA_SLACK * report.var_slack_se


def _report_entry(report, extra, **checks):
    """A report's verify_report.json entry: its figures, extra, each named
    check, and "pass" when every check passes."""
    # float() and bool() everywhere so numpy scalars never reach the JSON encoder
    entry = {name: float(getattr(report, name)) for name in _REPORT_FIGURES}
    entry.update(extra, num_samples=int(report.num_samples))
    entry["gap_within_3se"] = bool(report.mean_gap_norm <= SIGMA_SLACK * report.mean_gap_se)
    for name in ("var_test", "var_bound"):  # NaN (no bound claimed) is null
        entry[name] = None if math.isnan(getattr(report, name)) else float(getattr(report, name))
    entry.update({name: bool(ok) for name, ok in checks.items()})
    entry["pass"] = all(entry[name] for name in checks)
    return entry


def cmd_verify(cfg, out_dir):
    vf = _build(VerifyConfig, cfg.get("verify", {}), "verify")
    channel = build_channel(cfg)
    training = build_training(cfg)
    snapshot_iter = max(1, training.num_iterations // 2) if vf.snapshot_iter is None else vf.snapshot_iter
    if not 1 <= snapshot_iter <= training.num_iterations:
        raise ConfigError(
            f"invalid verify config: snapshot_iter {snapshot_iter} must lie in "
            f"1..num_iterations ({training.num_iterations})"
        )
    if vf.num_samples - losses_to_clip(vf.num_samples, training.clip_fraction) < 2:
        raise ConfigError(
            f"invalid verify config: num_samples {vf.num_samples} leaves one loss unclipped at "
            f"clip_fraction {training.clip_fraction}; pre-processing needs two"
        )

    # Only the networks after snapshot_iter are measured, so train no further.
    snapshot = advance(TrainState.start(training, cfg["seed"]), training, channel, snapshot_iter)
    _save_networks(snapshot, out_dir, "_snapshot")

    rng = rngstreams.substream(cfg["seed"], rngstreams.VERIFY)
    samples = collect_score_samples(snapshot.tx, snapshot.rx, channel, training.num_messages, vf.num_samples, rng)
    quant_reports = verify_quantized_gradient_scaling(samples, vf.quantized_bits, training.clip_fraction)
    flip_rng = rngstreams.substream(cfg["seed"], rngstreams.VERIFY, 1)
    flip_reports = verify_bitflip_gradient_scaling(
        samples, flip_rng, vf.bitflip_bits, vf.flip_probs, training.clip_fraction
    )

    payload = {
        "config_sha256": config_hash(cfg),
        "seed": cfg["seed"],
        "num_samples": vf.num_samples,
        "snapshot_iter": snapshot_iter,
        "quantized_scaling": {},
        "bitflip_scaling": {},
    }
    for q, rep in sorted(quant_reports.items()):
        payload["quantized_scaling"][f"q{q}"] = _report_entry(
            rep,
            {"g_hat": rep.g_hat, "w_bar": rep.w_bar},
            cosine_pass=rep.cosine > COSINE_MIN,
            ratio_pass=abs(rep.magnitude_ratio - rep.g_hat) <= RATIO_REL_TOL * rep.g_hat,
            var_pass=_var_pass(rep),
        )
    for (q, p), rep in sorted(flip_reports.items()):
        payload["bitflip_scaling"][f"q{q}_p{p}"] = _report_entry(
            rep,
            {"flip_prob": p},
            scale_pass=abs(rep.fitted_scale - rep.scale_target) <= SCALE_ABS_TOL,
            var_pass=q != 1 or _var_pass(rep),  # the variance bound is claimed for q = 1 only
        )
    entries = [*payload["quantized_scaling"].values(), *payload["bitflip_scaling"].values()]
    payload["all_pass"] = all_pass = all(entry["pass"] for entry in entries)
    path = os.path.join(out_dir, "verify_report.json")
    _write_json(path, payload)
    print(f"verification report written to {path}")
    print(f"all checks passed: {all_pass}")
    return 0 if all_pass else 1


def cmd_bussgang(cfg, out_dir):
    """Bussgang gain of the fixed quantizer on synthetic Gaussian losses."""
    bg = _build(BussgangConfig, cfg.get("bussgang", {}), "bussgang")
    rng = rngstreams.substream(cfg["seed"], rngstreams.VERIFY, 2)
    losses = rng.normal(bg.loss_mean, bg.loss_std, size=bg.num_samples)
    rows = []
    for q in bg.q_bits:
        est = bussgang_gain(losses, QuantizerConfig(q))
        closed_form = gaussian_one_bit_gain(bg.loss_std**2) if q == 1 else None
        rows.append((q, est.g, est.w_bar, est.w_mean, est.w_var, closed_form))
    path = os.path.join(out_dir, "bussgang.csv")
    columns = ("q_bits", "g_hat", "w_bar", "w_mean", "w_var", "gaussian_one_bit_gain")
    write_csv(path, columns, rows, _comment_lines(cfg))
    print(f"wrote {len(rows)} rows to {path}")
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
        # The flag beats the environment, which beats the config.
        out_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.get("output_dir", "out")
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
