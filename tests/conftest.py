"""Session fixtures and the acceptance summary hook.

The acceptance tests share a few expensive trained systems; everything here
is seeded, so fixture contents are identical from run to run. Tests record
per-criterion verdicts into ACCEPTANCE_RESULTS before asserting, and the
terminal summary prints one line per criterion at the end of the session.
"""

import threading
from dataclasses import dataclass

import numpy as np
import pytest

from qflearn import rngstreams
from qflearn.channels import AWGN, NLPN, BscConfig, ChannelConfig, _blas_threads
from qflearn.evaluation import (
    collect_score_samples,
    convergence_iteration,
    estimate_ser,
    verify_gradient_scaling,
)
from qflearn.feedback import QuantizerConfig
from qflearn.training import PHASE_TX, TrainingConfig, TrainState, advance, train

# One desk-scale recipe per channel family. The 500-iteration AWGN pair
# (perfect and 1-bit feedback) carries criteria 8b and 9 and donates a
# mid-training snapshot to criteria 2, 5 and 6. The perfect-feedback AWGN
# run, resumed from its DESK_ITERATIONS state and run on to
# CONVERGED_ITERATIONS, carries criterion 8a, which needs a transmitter that
# has converged. The NLPN trio carries criterion 10. Seeds,
# iteration counts and the snapshot iteration are pinned: the runs are
# deterministic, so the suite checks the same systems every time.
AWGN_DESK = ChannelConfig(family=AWGN, sigma_sq_dbm=-21.3, P_dbm=-6.3)
NLPN_DESK = ChannelConfig(
    family=NLPN, sigma_sq_dbm=-21.3, P_dbm=-3.0, gamma=1.27, L_km=5000.0, K=50
)
AWGN_DESK_SEED = 22
NLPN_DESK_SEED = 1
SNAPSHOT_ITER = 200
DESK_ITERATIONS = 500
CONVERGED_ITERATIONS = 2000
DESK_SER_SYMBOLS = 200_000

ACCEPTANCE_RESULTS = {}

CRITERION_LABELS = {
    1: "gradient engine vs central finite differences",
    2: "exploration score is zero-mean",
    3: "quantizer unit suite",
    4: "one-bit Bussgang gain closed form",
    5: "quantized-feedback gradient scaling",
    6: "bit-flip gradient scaling",
    7: "16-QAM ML baseline vs closed form",
    8: (
        "desk-scale AWGN SER: (a) converged perfect-feedback constellation under ML, "
        "(b) 1-bit vs perfect NN receiver at 500 iterations"
    ),
    9: "transmitter-loss convergence trend",
    10: "robustness to feedback bit flips",
    11: "zero-nonlinearity channel sanity",
    12: "byte-identical reruns",
}


def bounded_call(fn, *args):
    """fn(*args) on a worker thread joined within a minute, so a helper that
    never returns fails the test instead of hanging it; raises what fn
    raised."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except Exception as err:  # handed to the test thread below
            out["error"] = err

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "the call did not return"
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.fixture(scope="session", autouse=True)
def blas_threads_restored():
    """Fails the session if NumPy's OpenBLAS thread count at its end differs
    from its start: a one-thread pin (channels._pin_blas) left behind
    would slow every later BLAS call."""
    start = _blas_threads()
    yield
    assert _blas_threads() == start, f"OpenBLAS thread count {_blas_threads()} at session end, {start} at its start"


def record_acceptance(criterion, passed, detail, sub=""):
    ACCEPTANCE_RESULTS[(criterion, sub)] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(CRITERION_LABELS):
        subs = sorted(k for k in ACCEPTANCE_RESULTS if k[0] == criterion)
        if not subs:
            terminalreporter.write_line(
                f"criterion {criterion:>2}: NOT RUN  {CRITERION_LABELS[criterion]}"
            )
            continue
        passed = all(ACCEPTANCE_RESULTS[k][0] for k in subs)
        verdict = "PASS" if passed else "FAIL"
        pieces = []
        for key in subs:
            ok, detail = ACCEPTANCE_RESULTS[key]
            prefix = f"({key[1]}) " if key[1] else ""
            suffix = "" if ok else " [FAIL]"
            pieces.append(f"{prefix}{detail}{suffix}")
        terminalreporter.write_line(
            f"criterion {criterion:>2}: {verdict}  "
            f"{CRITERION_LABELS[criterion]}: {'; '.join(pieces)}"
        )


@dataclass
class DeskRun:
    """One trained desk-scale system plus the measurements the criteria use."""

    result: object  # the TrainState at the end of the run
    ser: float
    trend_down: bool
    convergence: int | None
    snapshot: object = None  # a TrainState copy taken after SNAPSHOT_ITER


def _desk_config(iterations=DESK_ITERATIONS, quantizer=None, bsc=None):
    # ser_every=iterations skips in-training SER; it never touches the run
    return TrainingConfig(num_iterations=iterations, quantizer=quantizer, bsc=bsc, ser_every=iterations)


def _measure(state, channel, seed, snapshot=None):
    rng = rngstreams.substream(seed, rngstreams.EVALUATION, 99)
    ser = estimate_ser(state.tx, state.rx, channel, 16, DESK_SER_SYMBOLS, rng).ser
    tx_losses = [r.empirical_loss for r in state.metrics if r.phase == PHASE_TX]
    tail = max(1, len(tx_losses) // 10)
    trend_down = float(np.mean(tx_losses[-tail:])) < float(np.mean(tx_losses[:tail]))
    return DeskRun(state, ser, trend_down, convergence_iteration(state.metrics), snapshot)


def _desk_run(channel, seed, quantizer=None, bsc=None):
    return _measure(train(_desk_config(quantizer=quantizer, bsc=bsc), channel, seed), channel, seed)


@pytest.fixture(scope="session")
def awgn_desk_perfect():
    cfg = _desk_config()
    state = advance(TrainState.start(cfg, AWGN_DESK_SEED), cfg, AWGN_DESK, SNAPSHOT_ITER)
    snapshot = state.copy()
    advance(state, cfg, AWGN_DESK, DESK_ITERATIONS - SNAPSHOT_ITER)
    return _measure(state, AWGN_DESK, AWGN_DESK_SEED, snapshot)


@pytest.fixture(scope="session")
def awgn_converged_perfect(awgn_desk_perfect):
    """The awgn_desk_perfect run resumed from its final state to CONVERGED_ITERATIONS.

    The networks equal a straight CONVERGED_ITERATIONS run's byte for byte:
    only the in-training SER differs, which drew from the evaluation stream
    at DESK_ITERATIONS, and no criterion reads it.
    """
    state = awgn_desk_perfect.result.copy()
    advance(state, _desk_config(CONVERGED_ITERATIONS), AWGN_DESK, CONVERGED_ITERATIONS - DESK_ITERATIONS)
    return _measure(state, AWGN_DESK, AWGN_DESK_SEED)


@pytest.fixture(scope="session")
def awgn_desk_onebit():
    return _desk_run(AWGN_DESK, AWGN_DESK_SEED, quantizer=QuantizerConfig(1))


@pytest.fixture(scope="session")
def nlpn_desk_runs():
    """1-bit NLPN systems at flip probabilities 0, 0.1 and 0.5."""
    runs = {}
    for flip_prob in (0.0, 0.1, 0.5):
        bsc = BscConfig(flip_prob=flip_prob) if flip_prob > 0.0 else None
        runs[flip_prob] = _desk_run(
            NLPN_DESK, NLPN_DESK_SEED, quantizer=QuantizerConfig(1), bsc=bsc
        )
    return runs


@pytest.fixture(scope="session")
def verify_samples(awgn_desk_perfect):
    """10^6 shared policy samples on the frozen mid-training snapshot."""
    snapshot = awgn_desk_perfect.snapshot
    rng = rngstreams.substream(AWGN_DESK_SEED, rngstreams.VERIFY)
    return collect_score_samples(snapshot.tx, snapshot.rx, AWGN_DESK, 16, 1_000_000, rng)


@pytest.fixture(scope="session")
def verify_reports(verify_samples):
    """Both gradient-scaling claims on the shared samples, from the one pass
    `qflearn verify` runs, with the default bit widths and flip
    probabilities: ({q: report}, {(q, p): report})."""
    return verify_gradient_scaling(verify_samples, rngstreams.substream(AWGN_DESK_SEED, rngstreams.VERIFY, 1))
