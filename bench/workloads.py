"""Benchmark workloads: seeded inputs, one repeatable operation each, and the
correctness gate every operation must pass.

The two training workloads follow the alternating receiver/transmitter
scheme (Aoudia & Hoydis, arXiv:1812.05929) through the `train` command:

- train_awgn_perfect: AWGN desk channel, perfect feedback. The channel is one
  noise draw and there is no feedback pipeline, so the network engine
  (forward, backward, Adam) and the per-step glue dominate.
- train_nlpn_q1_bsc: NLPN desk channel (K=50), 1-bit quantized feedback over
  a BSC with flip probability 0.1. The 50-step channel recursion dominates
  and the whole feedback chain runs on every transmitter step.

eval_mc drives the same modules through large-batch library calls on a frozen
AWGN snapshot: 10^6 policy samples with both gradient-scaling checks, a
2*10^5-symbol SER estimate, and the fitted 16-QAM ML baseline on the NLPN
channel. It holds the run's peak memory and runs no optimizer step.

Every operation of a run repeats the same seeded work, so each must leave the
same artifacts as the first; the harness checks that as well.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from qflearn import cli, evaluation, rngstreams, training
from qflearn.channels import ChannelConfig

OUT_DIR = ".bench_out"
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The acceptance suite's desk channels.
AWGN_DESK = {"family": "awgn", "sigma_sq_dbm": -21.3, "P_dbm": -6.3}
NLPN_DESK = {
    "family": "nlpn",
    "sigma_sq_dbm": -21.3,
    "P_dbm": -3.0,
    "gamma": 1.27,
    "L_km": 5000.0,
    "K": 50,
}

# Random guessing among 16 messages errs with probability 15/16. A trained
# system that is not below this ceiling did not learn.
SER_CEILING = 0.6
POWER_REL_TOL = 1e-9
# The ML SER must lie within this many standard errors of the reference.
ML_SER_SIGMAS = 4.0


@dataclass
class OpResult:
    seconds: float
    # work name -> (units done, seconds spent on that work)
    work: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    problems: list = field(default_factory=list)  # failed gate checks
    remarks: list = field(default_factory=list)  # reported, not counted as failures


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class TrainState:
    config_path: str
    steps: int  # gradient steps per op
    mc_samples: int  # exploration-policy samples per op
    symbols: int  # channel symbols per op, in-loop SER estimates included
    power_mw: float


class TrainWorkload:
    """`qflearn train` in-process on a generated config, fresh output per op."""

    ARTIFACTS = ("tx.json", "rx.json", "metrics.csv", "constellation.csv")

    def __init__(self, name, default_seed, channel, iterations, quantizer=None, bsc=None):
        self.name = name
        self.default_seed = default_seed
        self.channel = channel
        self.iterations = iterations
        self.quantizer = quantizer
        self.bsc = bsc
        self.dir = os.path.join(OUT_DIR, name)
        # Relative, so the config hash in metrics.csv is the same in any checkout.
        self.op_dir = os.path.join(self.dir, "op")

    def setup(self, seed):
        cfg = {
            "schema_version": 1,
            "seed": seed,
            "output_dir": self.op_dir,
            "channel": dict(self.channel),
            "training": {"num_iterations": self.iterations, "batch_rx": 64, "batch_tx": 64},
        }
        if self.quantizer is not None:
            cfg["quantizer"] = dict(self.quantizer)
        if self.bsc is not None:
            cfg["bsc"] = dict(self.bsc)
        os.makedirs(self.dir, exist_ok=True)
        path = os.path.join(self.dir, "config.json")
        # Write a new file: ext4 flushes a file truncated and rewritten in
        # place when it is closed, which would put a disk write into setup_s.
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        tcfg = cli.build_training(cli.load_config(path))
        per_iteration = tcfg.n_rx_steps * tcfg.batch_rx + tcfg.n_tx_steps * tcfg.batch_tx
        ser_evals = -(-tcfg.num_iterations // tcfg.ser_every)
        return TrainState(
            config_path=path,
            steps=tcfg.num_iterations * (tcfg.n_rx_steps + tcfg.n_tx_steps),
            mc_samples=tcfg.num_iterations * tcfg.n_tx_steps * tcfg.batch_tx,
            symbols=tcfg.num_iterations * per_iteration + ser_evals * tcfg.ser_symbols,
            power_mw=10.0 ** (self.channel["P_dbm"] / 10.0),
        )

    def op(self, state):
        shutil.rmtree(self.op_dir, ignore_errors=True)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", state.config_path, "--output-dir", self.op_dir])
        seconds = time.perf_counter() - start
        result = OpResult(seconds=seconds)
        if code != 0:
            result.problems.append(f"train exited with code {code}")
            return result
        result.work = {
            "steps": (state.steps, seconds),
            "mc_samples": (state.mc_samples, seconds),
            "symbols": (state.symbols, seconds),
        }
        paths = {name: os.path.join(self.op_dir, name) for name in self.ARTIFACTS}
        result.digests = {name: sha256_file(path) for name, path in paths.items()}
        result.artifact_bytes = sum(os.path.getsize(path) for path in paths.values())
        result.problems += self.check(paths, state.steps, state.power_mw)
        return result

    @staticmethod
    def check(paths, steps, power_mw):
        problems = []
        records = training.read_metrics_csv(paths["metrics.csv"])
        if len(records) != steps:
            problems.append(f"metrics.csv has {len(records)} rows, expected {steps}")
        for rec in records:
            values = [rec.empirical_loss, rec.grad_norm]
            values += [v for v in (rec.g_estimate, rec.ser) if v is not None]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite metrics row at outer {rec.outer_iter} {rec.phase} {rec.step}")
                break
        points = np.loadtxt(paths["constellation.csv"], delimiter=",", skiprows=1)
        mean_power = float(np.mean(points[:, 1] ** 2 + points[:, 2] ** 2))
        if abs(mean_power - power_mw) > POWER_REL_TOL * power_mw:
            problems.append(f"constellation mean power {mean_power!r} != P {power_mw!r}")
        sers = [rec.ser for rec in records if rec.ser is not None]
        if not sers or not sers[-1] < SER_CEILING:
            problems.append(f"final SER {sers[-1] if sers else None} not below {SER_CEILING}")
        return problems


@dataclass
class EvalState:
    seed: int
    tx: object
    rx: object
    awgn: ChannelConfig
    nlpn: ChannelConfig


def _canonical(value):
    """JSON-ready form with exact floats and arrays reduced to their sha256."""
    if isinstance(value, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


class EvalMcWorkload:
    """Frozen-network Monte Carlo: verify checks, SER, and the NLPN ML baseline."""

    name = "eval_mc"
    default_seed = 22

    def __init__(
        self,
        snapshot_iterations=200,
        num_samples=1_000_000,
        ser_symbols=200_000,
        ml_draws=100_000,
        ml_symbols=200_000,
    ):
        self.snapshot_iterations = snapshot_iterations
        self.num_samples = num_samples
        self.ser_symbols = ser_symbols
        self.ml_draws = ml_draws
        self.ml_symbols = ml_symbols

    def setup(self, seed):
        awgn = ChannelConfig(**AWGN_DESK)
        nlpn = ChannelConfig(**NLPN_DESK)
        # The acceptance suite's verify snapshot: the state after this many
        # outer iterations (SER cadence never touches the training streams).
        cfg = training.TrainingConfig(
            num_iterations=self.snapshot_iterations, ser_every=self.snapshot_iterations
        )
        result = training.train(cfg, awgn, seed)
        return EvalState(seed, result.tx, result.rx, awgn, nlpn)

    def op(self, state):
        seed = state.seed
        start = time.perf_counter()
        samples = evaluation.collect_score_samples(
            state.tx, state.rx, state.awgn, 16, self.num_samples,
            rngstreams.substream(seed, rngstreams.VERIFY),
        )
        quant = evaluation.verify_quantized_gradient_scaling(samples, (1, 3, 5))
        flip = evaluation.verify_bitflip_gradient_scaling(
            samples, rngstreams.substream(seed, rngstreams.VERIFY, 1), (1, 2), (0.1, 0.2, 0.3)
        )
        mid = time.perf_counter()
        ser = evaluation.estimate_ser(
            state.tx, state.rx, state.awgn, 16, self.ser_symbols,
            rngstreams.substream(seed, rngstreams.EVALUATION, 99),
        )
        points = evaluation.qam16(state.nlpn.P_mw)
        detector = evaluation.SampledNlpnDetector.fit(
            points, state.nlpn, rngstreams.substream(seed, rngstreams.SWEEP_EVAL, 0, 1),
            draws_per_point=self.ml_draws,
        )
        ml = evaluation.detector_ser(
            points, detector, state.nlpn, self.ml_symbols,
            rngstreams.substream(seed, rngstreams.SWEEP_EVAL, 0, 2),
        )
        end = time.perf_counter()
        symbols = self.ser_symbols + points.size * self.ml_draws + self.ml_symbols
        result = OpResult(
            seconds=end - start,
            work={"mc_samples": (self.num_samples, mid - start), "symbols": (symbols, end - mid)},
        )
        dump = {
            "quantized": {f"q{q}": dataclasses.asdict(r) for q, r in sorted(quant.items())},
            "bitflip": {f"q{q}_p{p}": dataclasses.asdict(r) for (q, p), r in sorted(flip.items())},
            "ser_errors": ser.num_errors,
            "ml_errors": ml.num_errors,
        }
        text = json.dumps(_canonical(dump), sort_keys=True)
        result.digests = {"eval_mc_reports": hashlib.sha256(text.encode()).hexdigest()}
        problems, result.remarks = verify_problems(quant, flip)
        result.problems += problems
        if not ser.ser < SER_CEILING:
            result.problems.append(f"snapshot SER {ser.ser} not below {SER_CEILING}")
        ref = load_reference()["nlpn_qam16_ml_ser"]
        sigma = math.hypot(ml.stderr, ref["stderr"])
        if abs(ml.ser - ref["value"]) > ML_SER_SIGMAS * sigma:
            result.problems.append(
                f"NLPN 16-QAM ML SER {ml.ser} is more than {ML_SER_SIGMAS} sigma "
                f"({sigma:.2e}) from the reference {ref['value']}"
            )
        return result


def verify_problems(quant, flip):
    """Gate on the claims a correct program meets on every seed.

    Returns (problems, remarks). The variance bounds are `qflearn verify`'s
    rule with its own slack. The (1 - 2p) bit-flip scaling is exact in
    expectation, so its mean gap must lie within the same number of its own
    standard errors. verify's cosine and magnitude-ratio rules for the
    quantized claim (an approximation whose bias depends on the snapshot)
    and its fixed-width fitted-scale rule fail on some seeds with correct
    outputs; their failures are remarks, not problems.
    """
    problems, remarks = [], []
    slack = cli.SIGMA_SLACK
    for q, rep in sorted(quant.items()):
        if not rep.var_test <= rep.var_bound + slack * rep.var_slack_se:
            problems.append(f"q{q}: variance {rep.var_test} above bound {rep.var_bound}")
        if not rep.cosine > cli.COSINE_MIN:
            remarks.append(f"verify q{q}: cosine {rep.cosine} <= {cli.COSINE_MIN}")
        if not abs(rep.magnitude_ratio - rep.g_hat) <= cli.RATIO_REL_TOL * rep.g_hat:
            remarks.append(f"verify q{q}: magnitude ratio {rep.magnitude_ratio} vs g_hat {rep.g_hat}")
    for (q, p), rep in sorted(flip.items()):
        if not rep.mean_gap_norm <= slack * rep.mean_gap_se:
            problems.append(f"q{q} p{p}: mean gap {rep.mean_gap_norm} above {slack} x {rep.mean_gap_se}")
        if q == 1 and not rep.var_test <= rep.var_bound + slack * rep.var_slack_se:
            problems.append(f"q{q} p{p}: variance {rep.var_test} above bound {rep.var_bound}")
        if not abs(rep.fitted_scale - rep.scale_target) <= cli.SCALE_ABS_TOL:
            remarks.append(f"verify q{q} p{p}: fitted scale {rep.fitted_scale} vs {rep.scale_target}")
    return problems, remarks


def desk_workloads():
    """The benchmark's workloads at their measured sizes, by name."""
    return {
        w.name: w
        for w in (
            TrainWorkload("train_awgn_perfect", 22, AWGN_DESK, iterations=50),
            TrainWorkload(
                "train_nlpn_q1_bsc",
                1,
                NLPN_DESK,
                iterations=50,
                quantizer={"q_bits": 1},
                bsc={"flip_prob": 0.1},
            ),
            EvalMcWorkload(),
        )
    }
