"""Evaluation layer: SER estimators, ML baselines, score-moment machinery."""

import copy
import dataclasses
import math
import pickle
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import bounded_call

from qflearn import channels, evaluation, neuralnet, transceiver
from qflearn.channels import AWGN, NLPN, ChannelConfig, _blas_threads, bsc, propagate
from qflearn.cli import write_decision_regions_csv
from qflearn.evaluation import (
    ExactAwgnDetector,
    PairwiseSum,
    ReceiverDetector,
    SampledNlpnDetector,
    ScoreSampleSet,
    binomial_stderr,
    collect_score_samples,
    convergence_iteration,
    decision_regions,
    detector_ser,
    estimate_ser,
    qam16,
    qam16_ser_closed_form,
    score_coordinate_std,
    score_moments,
    verify_bitflip_gradient_scaling,
    verify_gradient_scaling,
    verify_quantized_gradient_scaling,
)
from qflearn.evaluation import (
    DEFAULT_CHUNK,
    RECEIVE_ROWS,
    _gram_blocks,
    _level_codes,
    _mean_level,
    _receive_passes,
    _score_norms_sq,
)
from qflearn.feedback import QuantizerConfig
from qflearn.neuralnet import LINEAR, SOFTMAX, DenseNetwork
from qflearn.training import MetricsRecord, PHASE_RX, PHASE_TX
from qflearn.transceiver import (
    build_receiver,
    build_transmitter,
    constellation,
    cross_entropy_losses,
    exploration_noise,
    exploration_variance,
    perturb,
    real_to_complex,
    receive,
    score_upstream,
)

CHANNEL = ChannelConfig(family=AWGN, sigma_sq_dbm=-21.3, P_dbm=-6.3)


def test_binomial_stderr():
    assert binomial_stderr(0.5, 100) == pytest.approx(0.05)
    assert binomial_stderr(0.0, 100) == 0.0
    assert binomial_stderr(0.02, 10_000) == pytest.approx(
        math.sqrt(0.02 * 0.98 / 10_000)
    )


def test_estimate_ser_uniform_posterior_receiver():
    """A constant receiver always decides message 0, so SER is (M-1)/M."""
    tx = build_transmitter(16, np.random.default_rng(1))
    rx = build_receiver(16, np.random.default_rng(2))
    for w, _, _, _ in rx.layout:
        rx.params[w] = 0.0
    res = estimate_ser(tx, rx, CHANNEL, 16, 20_000, np.random.default_rng(3))
    assert res.ser == pytest.approx(15.0 / 16.0, abs=4.0 * binomial_stderr(15 / 16, 20_000))
    assert res.num_errors == round(res.ser * res.num_symbols)
    assert res.snr_db == pytest.approx(15.0)


def test_estimate_ser_validates_symbol_count():
    tx = build_transmitter(16, np.random.default_rng(1))
    rx = build_receiver(16, np.random.default_rng(2))
    with pytest.raises(ValueError):
        estimate_ser(tx, rx, CHANNEL, 16, 0, np.random.default_rng(3))


def test_detector_ser_validates_symbol_count():
    points = qam16(CHANNEL.P_mw)
    with pytest.raises(ValueError):
        detector_ser(points, ExactAwgnDetector(points), CHANNEL, 0, np.random.default_rng(3))


def test_estimate_ser_is_detector_ser_with_the_receiver():
    """The transceiver SER is the detector SER of its constellation under the
    receiver's argmax, draw for draw, across a chunk boundary."""
    tx = build_transmitter(16, np.random.default_rng(1))
    rx = build_receiver(16, np.random.default_rng(2))
    points = real_to_complex(constellation(tx, 16, CHANNEL.P_mw))
    n = 70_001
    got = estimate_ser(tx, rx, CHANNEL, 16, n, np.random.default_rng(3))
    expect = detector_ser(points, ReceiverDetector(rx), CHANNEL, n, np.random.default_rng(3))
    assert got == expect
    assert 0 < got.num_errors < n


def test_qam16_power_and_geometry():
    points = qam16(0.2344)
    assert points.shape == (16,)
    assert np.mean(np.abs(points) ** 2) == pytest.approx(0.2344, rel=1e-12)
    # 4x4 grid: 24 nearest-neighbor pairs at the minimum spacing
    d = np.abs(points[:, None] - points[None, :])
    min_d = d[d > 0].min()
    assert np.count_nonzero(np.isclose(d, min_d)) == 48  # ordered pairs


def test_qam16_closed_form_oracle_values():
    # frozen reference values computed from the erfc expression by hand
    assert qam16_ser_closed_form(15.0) == pytest.approx(0.01778, rel=2e-3)
    # ~4x SER drop across +3 dB in this regime
    assert qam16_ser_closed_form(12.0) / qam16_ser_closed_form(15.0) > 3.5
    assert qam16_ser_closed_form(40.0) < 1e-12
    assert 0.5 < qam16_ser_closed_form(0.0) < 0.8


def broadcast_nearest_point(points, y):
    """The (N, M) broadcast argmin ExactAwgnDetector.decide replaced."""
    return np.argmin(np.abs(y[:, None] - points[None, :]) ** 2, axis=1)


def test_exact_awgn_detector_equals_broadcast_argmin_ties_included():
    """Same labels as the broadcast argmin, on random observations and on
    observations equidistant from two or four points (the first wins)."""
    points = qam16()
    rng = np.random.default_rng(14)
    y = np.concatenate(
        [
            rng.normal(size=5000) + 1j * rng.normal(size=5000),
            (points[:-1] + points[1:]) / 2.0,  # midpoints of neighbours along a row
            np.zeros(1),  # the centre, equidistant from the four inner points
            np.array([np.inf, complex(0.0, -np.inf)]),
        ]
    )
    got = ExactAwgnDetector(points).decide(y)
    assert got.dtype == np.intp
    assert got.tobytes() == broadcast_nearest_point(points, y).tobytes()


def test_exact_awgn_detector_is_nearest_point():
    rng = np.random.default_rng(4)
    points = rng.normal(size=8) + 1j * rng.normal(size=8)
    det = ExactAwgnDetector(points)
    y = rng.normal(size=50) + 1j * rng.normal(size=50)
    got = det.decide(y)
    for k in range(50):
        expect = int(np.argmin(np.abs(y[k] - points) ** 2))
        assert got[k] == expect


def test_detector_ser_matches_closed_form_at_12db():
    channel = ChannelConfig(family=AWGN, sigma_sq_dbm=-21.3, P_dbm=-9.3)
    points = qam16(channel.P_mw)
    res = detector_ser(points, ExactAwgnDetector(points), channel, 200_000, np.random.default_rng(5))
    expect = qam16_ser_closed_form(12.0)
    assert res.ser == pytest.approx(expect, abs=4.0 * binomial_stderr(expect, 200_000))


def test_sampled_nlpn_detector_agrees_with_exact_on_linear_channel():
    """With gamma = 0 the NLPN channel is AWGN, so the histogram detector
    must reproduce the nearest-point rule almost everywhere."""
    channel = ChannelConfig(
        family=NLPN, sigma_sq_dbm=-21.3, P_dbm=-6.3, gamma=0.0, L_km=5000.0, K=10
    )
    points = qam16(channel.P_mw)
    fitted = SampledNlpnDetector.fit(
        points, channel, np.random.default_rng(6), draws_per_point=40_000, bins=80
    )
    exact = ExactAwgnDetector(points)
    rng = np.random.default_rng(7)
    m = rng.integers(0, 16, size=20_000)
    from qflearn.channels import propagate

    y = propagate(points[m], channel, rng)
    agreement = np.mean(fitted.decide(y) == exact.decide(y))
    assert agreement >= 0.99


# At this power the rotated 16-QAM below has five distinct radii, not three.
NLPN_SMALL = ChannelConfig(family=NLPN, sigma_sq_dbm=-21.3, P_dbm=-2.0, gamma=1.27, L_km=5000.0, K=5)


def test_sampled_nlpn_detector_is_rotation_covariant():
    """A rotated 16-QAM has radii that differ by an ulp but still three rings,
    and its detector on rotated observations decides as the unrotated one."""
    points = qam16(NLPN_SMALL.P_mw)
    turn = np.exp(0.3j)
    rotated = points * turn
    assert len(set(np.abs(rotated).tolist())) > 3
    plain = SampledNlpnDetector.fit(points, NLPN_SMALL, np.random.default_rng(10), draws_per_point=20_000, bins=60)
    turned = SampledNlpnDetector.fit(rotated, NLPN_SMALL, np.random.default_rng(10), draws_per_point=20_000, bins=60)
    assert plain.log_density.shape == turned.log_density.shape == (3, 60, 60)
    rng = np.random.default_rng(11)
    m = rng.integers(0, 16, size=20_000)
    y = propagate(points[m], NLPN_SMALL, rng)
    assert np.mean(turned.decide(y * turn) == plain.decide(y)) >= 0.99


def test_sampled_nlpn_detector_point_at_origin():
    """The origin is its own frame (no 0/0 rotation); on a linear channel the
    detector with a point there still matches the nearest-point rule."""
    channel = ChannelConfig(family=NLPN, sigma_sq_dbm=-21.3, P_dbm=-6.3, gamma=0.0, L_km=5000.0, K=3)
    points = np.array([0.0, 0.4, 0.4j, -0.4, -0.4j], dtype=np.complex128)
    fitted = SampledNlpnDetector.fit(points, channel, np.random.default_rng(12), draws_per_point=20_000, bins=60)
    assert np.all(np.isfinite(fitted.frames)) and fitted.frames[0] == 1.0
    assert fitted.log_density.shape[0] == 2
    rng = np.random.default_rng(13)
    m = rng.integers(0, points.size, size=20_000)
    y = propagate(points[m], channel, rng)
    assert np.mean(fitted.decide(y) == ExactAwgnDetector(points).decide(y)) >= 0.99


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"draws_per_point": 0}, "draws_per_point must be >= 1"),
        ({"bins": 0}, "bins must be >= 1"),
        ({"pad": -1.0}, "pad must be finite and >= 0"),
        ({"pad": math.nan}, "pad must be finite and >= 0"),
        ({"pad": math.inf}, "pad must be finite and >= 0"),
    ],
)
def test_sampled_nlpn_detector_fit_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SampledNlpnDetector.fit(qam16(NLPN_SMALL.P_mw), NLPN_SMALL, np.random.default_rng(0), **kwargs)


def test_sampled_nlpn_detector_fit_draws_from_a_broadcast_radius(monkeypatch):
    """A ring's 10^5 draws start from its radius broadcast, not repeated in
    a 1.6 MB array: the fit peaks at 10.7 MB (tracemalloc), 12.3 MB from
    the array, with the same tables. The bound leaves 0.8 MB of margin."""
    points = qam16(NLPN_SMALL.P_mw)
    fitted = []
    peak = traced_peak(lambda: fitted.append(SampledNlpnDetector.fit(points, NLPN_SMALL, np.random.default_rng(3))))
    assert peak < 11.5e6
    monkeypatch.setattr(evaluation, "propagate", lambda x, cfg, rng: propagate(np.array(x), cfg, rng))
    repeated = SampledNlpnDetector.fit(points, NLPN_SMALL, np.random.default_rng(3))
    assert fitted[0].log_density.tobytes() == repeated.log_density.tobytes()


def test_sampled_nlpn_detector_cell_matches_searchsorted():
    """The arithmetic cell index is the clamped searchsorted cell, on every
    edge, next to it, and outside the grid."""
    fitted = SampledNlpnDetector.fit(qam16(NLPN_SMALL.P_mw), NLPN_SMALL, np.random.default_rng(1), draws_per_point=10, bins=37)
    edges = fitted.edges
    v = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [-1e300, -10.0, 10.0, 1e300],
            np.random.default_rng(2).uniform(-1.2 * edges[-1], 1.2 * edges[-1], 10_000),
        ]
    )
    expect = np.clip(np.searchsorted(edges, v, side="right") - 1, 0, len(edges) - 2)
    assert np.array_equal(fitted._cell(v), expect)


def test_sampled_nlpn_detector_lowest_index_wins_ties():
    points = qam16(NLPN_SMALL.P_mw)
    flat = SampledNlpnDetector(points, [0, 1, 2, 1] * 4, np.zeros((3, 4, 4)), np.linspace(-1.0, 1.0, 5))
    y = np.random.default_rng(3).normal(size=100) + 0j
    assert np.all(flat.decide(y) == 0)


def test_decision_regions_shapes_and_split():
    # logits [re, -re]: message 0 right of the imaginary axis, 1 left of it
    rx = DenseNetwork([2, 2], [SOFTMAX], [1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    grid = decision_regions(rx, (-1.0, 1.0), 21)
    assert grid.labels.shape == (21, 21)
    assert grid.re[0] == -1.0 and grid.re[-1] == 1.0
    right = grid.labels[:, grid.re > 0]
    left = grid.labels[:, grid.re < 0]
    assert np.all(right == 0)
    assert np.all(left == 1)


# Pass boundaries of the current pass size and of the former 4,096 rows.
PASS_EDGES = [1] + [k * size + d for size in (RECEIVE_ROWS, 4096) for k, d in ((1, -1), (1, 0), (1, 1), (3, 5))]


@pytest.mark.parametrize("rows", PASS_EDGES)
def test_receive_rows_equals_one_receive_call(rows):
    rx = build_receiver(16, np.random.default_rng(8))
    src = np.random.default_rng(9)
    y = 0.3 * (src.normal(size=rows) + 1j * src.normal(size=rows))
    whole = receive(rx, y)[0]
    passes = list(_receive_passes(rx, y))
    assert np.array_equal(np.concatenate([np.arange(rows)[part] for part, _ in passes]), np.arange(rows))
    for part, probs in passes:
        assert probs.tobytes() == whole[part].tobytes()


def test_decision_regions_equal_one_receive_call():
    """A 91 x 91 grid (two row blocks): the labels are the argmax of one
    receive call on every grid point."""
    rx = build_receiver(16, np.random.default_rng(8))
    grid = decision_regions(rx, (-0.5, 0.5), 91)
    re, im = np.meshgrid(grid.re, grid.im, indexing="xy")
    probs, _ = receive(rx, np.stack([re.ravel(), im.ravel()], axis=-1))
    assert grid.labels.tobytes() == np.argmax(probs, axis=1).reshape(91, 91).tobytes()


def traced_peak(call):
    """Peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows", [10_000, 150_001])
def test_receiver_bits_do_not_depend_on_the_pass_size(monkeypatch, rows):
    """Passes of 1,024 to 2,047 rows give the bytes of passes of 4,096 to
    8,191: decisions, SER and the collected losses, across chunk bounds."""
    tx = build_transmitter(16, np.random.default_rng(1))
    rx = build_receiver(16, np.random.default_rng(2))
    src = np.random.default_rng(9)
    y = 0.3 * (src.normal(size=rows) + 1j * src.normal(size=rows))

    def outputs():
        decisions = ReceiverDetector(rx).decide(y)
        ser = estimate_ser(tx, rx, CHANNEL, 16, rows, np.random.default_rng(3))
        samples = collect_score_samples(tx, rx, CHANNEL, 16, rows, np.random.default_rng(12))
        return decisions.tobytes(), dataclasses.astuple(ser), samples.raw_losses.tobytes()

    seen = []
    for pass_rows in (1024, 4096):
        monkeypatch.setattr(evaluation, "RECEIVE_ROWS", pass_rows)
        seen.append(outputs())
    assert seen[0] == seen[1]
    assert len(set(np.frombuffer(seen[0][0], dtype=np.intp))) > 1


def test_estimate_ser_holds_one_short_receiver_pass():
    """A 10,000-symbol SER estimate, the one that closes every training run,
    peaked at 6.25 MB (tracemalloc) in two 5,000-row receiver passes; in
    passes of about 1,100 rows it peaks at 1.64 MB. The bound leaves 0.86 MB
    of margin."""
    tx = build_transmitter(16, np.random.default_rng(1))
    rx = build_receiver(16, np.random.default_rng(2))
    assert traced_peak(lambda: estimate_ser(tx, rx, CHANNEL, 16, 10_000, np.random.default_rng(3))) < 2.5e6


def test_collect_score_samples_holds_no_full_chunk_tape():
    """One receiver forward pass over a 65,536-sample chunk peaks at about
    70 MB (tracemalloc). In row blocks written into a (65,536, 16)
    probability array it peaked at 17.9 MB; with each block's losses taken
    before the next block runs, 9.5 MB; in passes of 1,024 to 2,047 rows
    instead of 4,096 to 8,191 it peaks at 5.9 MB. The bound leaves 1.1 MB
    of margin."""
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    peak = traced_peak(lambda: collect_score_samples(tx, rx, CHANNEL, 16, 65_536, np.random.default_rng(12)))
    assert peak < 7e6


def serial_collection(tx, rx, channel, num_samples, rng):
    """(messages, perturbations, raw losses) of the serial collection loop:
    the messages, exploration and channel draws of each 65,536-sample chunk,
    then one receiver pass after another on the caller's thread, with the
    perturbations stored instead of replayed. The reference for the split
    passes and the replay."""
    sigma_p_sq = exploration_variance(channel.P_mw)
    points = constellation(tx, 16, channel.P_mw)
    messages = np.empty(num_samples, dtype=np.uint8)
    raw_losses = np.empty(num_samples)
    kept = []
    for start in range(0, num_samples, 65_536):
        sl = slice(start, min(start + 65_536, num_samples))
        messages[sl] = m = rng.integers(0, 16, size=sl.stop - sl.start)
        perturbed, w = perturb(points[m], sigma_p_sq, rng)
        y = propagate(real_to_complex(perturbed), channel, rng)
        kept.append(w)
        pass_start = sl.start
        for part in np.array_split(y, max(len(y) // RECEIVE_ROWS, 1)):
            rows = slice(pass_start, pass_start + len(part))
            raw_losses[rows] = cross_entropy_losses(receive(rx, part)[0], messages[rows])
            pass_start += len(part)
    return messages, np.concatenate(kept), raw_losses


def replay_collection(num_samples):
    """(collected set, its generator, stored perturbations, the stored
    collection's generator), both collections from seed 12."""
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    rng, stored_rng = np.random.default_rng(12), np.random.default_rng(12)
    samples = collect_score_samples(tx, rx, CHANNEL, 16, num_samples, rng)
    return samples, rng, serial_collection(tx, rx, CHANNEL, num_samples, stored_rng)[1], stored_rng


@pytest.mark.parametrize(
    "family, num_samples", [(AWGN, n) for n in (1, 1_023, 1_025, 65_535, 65_536, 65_537, 150_001)] + [(NLPN, 70_000)]
)
def test_split_collection_equals_the_serial_loop(family, num_samples):
    """Receiver passes split between the caller and the helper keep the
    serial loop's losses, messages, perturbations and final generator
    state byte for byte. On NLPN each chunk's propagate runs its own
    helper-thread pipeline inside the collection's."""
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    channel = {AWGN: CHANNEL, NLPN: NLPN_SMALL}[family]
    rng, serial_rng = np.random.default_rng(12), np.random.default_rng(12)
    samples = collect_score_samples(tx, rx, channel, 16, num_samples, rng)
    messages, perturbations, raw_losses = serial_collection(tx, rx, channel, num_samples, serial_rng)
    assert samples.raw_losses.tobytes() == raw_losses.tobytes()
    assert samples.messages.tobytes() == messages.tobytes()
    assert samples.perturbations[:].tobytes() == perturbations.tobytes()
    assert rng.bit_generator.state == serial_rng.bit_generator.state


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads for the test, so a pin left at one thread
    shows; None without the library."""
    blas = channels._openblas()
    if blas is None:
        yield None
        return
    get, set_ = blas
    saved = get()
    set_(2)
    try:
        yield 2
    finally:
        set_(saved)


def test_collection_traces_on_the_main_thread_and_passes_on_one_helper(monkeypatch, two_blas_threads):
    """receive, forward, perturb and propagate are traced by the bench,
    whose spans assume one thread: every call of a collection runs on the
    main thread, 24 + 24 + 7 passes of three chunks among them, while one
    helper thread runs the other 40 + 40 + 11 through the untraced kernel,
    with OpenBLAS held to one thread."""
    seen = {key: [] for key in ("receive", "forward", "perturb", "propagate", "kernel")}
    blas_seen = []

    def on_thread(key, fn):
        def noted(*args):
            seen[key].append(threading.current_thread())
            if key == "kernel":
                blas_seen.append(_blas_threads())
            return fn(*args)

        return noted

    monkeypatch.setattr(evaluation, "receive", on_thread("receive", receive))
    monkeypatch.setattr(transceiver, "forward", on_thread("forward", neuralnet.forward))
    monkeypatch.setattr(evaluation, "perturb", on_thread("perturb", perturb))
    monkeypatch.setattr(evaluation, "propagate", on_thread("propagate", propagate))
    monkeypatch.setattr(evaluation, "_forward", on_thread("kernel", neuralnet._forward))
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    collect_score_samples(tx, rx, CHANNEL, 16, 150_001, np.random.default_rng(12))
    for key in ("receive", "forward", "perturb", "propagate"):
        assert set(seen[key]) == {threading.main_thread()}, key
    assert (len(seen["receive"]), len(seen["forward"]), len(seen["perturb"])) == (55, 56, 3)
    assert len(seen["kernel"]) == 91
    assert len(set(seen["kernel"])) == 1 and threading.main_thread() not in seen["kernel"]
    assert set(blas_seen) == ({1} if two_blas_threads else {None})
    assert _blas_threads() == two_blas_threads


@pytest.mark.parametrize("failure", [None, "pass", "draw"])
def test_collection_leaves_no_thread_behind(monkeypatch, two_blas_threads, failure):
    """Four chunks of 24 caller and 40 helper passes each. An error in the
    helper's first pass of the second chunk stops the caller once it has
    drawn the third chunk: the helper's first pass is slowed, so a caller
    more than one chunk ahead would draw the fourth. An error in the third
    chunk's perturbation draw, on the caller's thread, stops the passes.
    Either is raised in the caller; the helper is joined and OpenBLAS's
    thread count restored on every exit."""
    calls = {"kernel": 0, "perturb": 0}

    def kernel(net, x):
        calls["kernel"] += 1
        if calls["kernel"] == 1:
            time.sleep(0.2)
        if failure == "pass" and calls["kernel"] == 40 + 1:
            raise RuntimeError("pass failed")
        return neuralnet._forward(net, x)

    def counted_perturb(*args):
        calls["perturb"] += 1
        if failure == "draw" and calls["perturb"] == 3:
            raise RuntimeError("draw failed")
        return perturb(*args)

    monkeypatch.setattr(evaluation, "_forward", kernel)
    monkeypatch.setattr(evaluation, "perturb", counted_perturb)
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    before = threading.active_count()
    collection = collect_score_samples, tx, rx, CHANNEL, 16, 4 * DEFAULT_CHUNK, np.random.default_rng(12)
    if failure is None:
        assert bounded_call(*collection).num_samples == 4 * DEFAULT_CHUNK
    else:
        with pytest.raises(RuntimeError, match=f"{failure} failed"):
            bounded_call(*collection)
    assert calls["perturb"] == {None: 4, "pass": 3, "draw": 3}[failure]
    assert calls["kernel"] == {None: 4 * 40, "pass": 40 + 1, "draw": 2 * 40}[failure]
    assert threading.active_count() == before
    assert _blas_threads() == two_blas_threads


def test_concurrent_collections_keep_their_bits_and_restore_blas(two_blas_threads):
    """Three collections at once on two cores, each with its helper and
    its OpenBLAS pin, the interpreter switching threads every microsecond:
    each keeps the bits of a collection run alone, and the thread count
    the first pin saved is restored once the last one is released."""
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))

    def collection_bytes():
        rng = np.random.default_rng(12)
        samples = collect_score_samples(tx, rx, CHANNEL, 16, 2 * DEFAULT_CHUNK + 1, rng)
        return samples.raw_losses.tobytes(), samples.messages.tobytes(), repr(rng.bit_generator.state)

    alone = collection_bytes()
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: seen.append(collection_bytes()), daemon=True) for _ in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive(), "a collection did not return"
    finally:
        sys.setswitchinterval(interval)
    assert seen == [alone] * 3
    assert _blas_threads() == two_blas_threads


@pytest.mark.parametrize("num_samples", [1, 65_535, 65_536, 65_537, 150_001])
def test_replayed_perturbations_equal_the_stored_draws(num_samples):
    """Whole collection chunks and 701-row slices, which straddle chunk
    bounds, replay the stored bytes; so does a second read of each."""
    samples, _, stored, _ = replay_collection(num_samples)
    for step in (65_536, 701, 65_536):
        rows = [samples.perturbations[start : start + step] for start in range(0, num_samples, step)]
        assert np.concatenate(rows).tobytes() == stored.tobytes()
    assert samples.perturbations[:].tobytes() == stored.tobytes()


def test_collection_and_replay_leave_the_generator_as_a_stored_collection():
    samples, rng, _, stored_rng = replay_collection(150_001)
    assert rng.bit_generator.state == stored_rng.bit_generator.state
    score_moments(samples, {"ones": np.ones(150_001)}, chunk=701)
    assert rng.bit_generator.state == stored_rng.bit_generator.state
    with pytest.raises(ValueError, match="step 1"):
        samples.perturbations[::2]


def test_score_moments_in_short_chunks_replays_each_collection_chunk_once(monkeypatch):
    samples = replay_collection(150_001)[0]
    draws = []

    def counted(shape, sigma_p_sq, rng):
        draws.append(shape)
        return exploration_noise(shape, sigma_p_sq, rng)

    monkeypatch.setattr(evaluation, "exploration_noise", counted)
    score_moments(samples, {"ones": np.ones(150_001)}, chunk=701)
    assert draws == [(65_536, 2), (65_536, 2), (18_929, 2)]


def test_collected_set_retains_about_9_bytes_per_sample():
    """1-byte messages and 8-byte raw losses, plus the Jacobian and about
    1.1-2 KB per saved generator state (tracemalloc). Storing the (N, 2)
    perturbations took 25 bytes per sample."""
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    tracemalloc.start()
    try:
        samples = collect_score_samples(tx, rx, CHANNEL, 16, 200_000, np.random.default_rng(12))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained - samples.jac.nbytes < 9 * 200_000 + 4096 * len(samples.perturbations.states)


@pytest.fixture(scope="module")
def verify_samples():
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    return collect_score_samples(tx, rx, CHANNEL, 16, 200_000, np.random.default_rng(12))


def test_verify_bitflip_holds_weights_as_level_codes(verify_samples):
    """The default bit-flip check has twelve weights. As float64 vectors
    they take 1.6 MB each at 200,000 samples and the call peaked at 31.4 MB
    (tracemalloc); as level codes, 21.3 MB. With the pre-processed losses
    dropped once the sent codes exist, and each weight's chunk expanded
    where it is used instead of all twelve at once, 10.4 MB. With
    score_moments' per-component kernels it peaked at 7.7 MB; the einsum
    over an (n, 2, 2) Gram gather reads 8.8 MB, and gathering all four
    coefficients at once 9.2 MB. With the flips drawn on the caller's
    thread while a helper folds the chunk before, a draw's temporaries
    (1.2 MB at q = 2) can coincide with the fold's: 8.2-8.3 MB. With the
    fold's pair entries taken before its bincount buffers exist it peaks
    at 7.6-7.8 MB over 20 runs, also beside a busy process. Made chunk by
    chunk, the weights of the chunk folded and of the chunk drawn are all
    it holds, and it peaks at 7.56-7.76 MB over 20 runs; weights made in
    one generator frame, which kept the last chunk's losses and levels
    alive, read 8.3 MB. The bound leaves 0.74 MB of margin."""
    peak = traced_peak(lambda: verify_bitflip_gradient_scaling(verify_samples, np.random.default_rng(13)))
    assert peak < 8.5e6


def test_verify_quantized_holds_one_full_length_sort():
    """At 10^6 samples the quantized check peaks in the order statistics of
    the pre-processing, whose sorted copy of the raw losses takes 8 MB:
    8.004 MB (tracemalloc). It read 20.0 MB while it held the pre-processed
    losses, their level codes and one bit width's levels at full length,
    and 27.0 MB with a separate product of levels and losses. The bound
    leaves 1 MB of margin."""
    samples = random_samples(16, np.uint8, 1_000_000, seed=3)
    assert traced_peak(lambda: verify_quantized_gradient_scaling(samples)) < 9e6


def test_verify_quantized_moments_hold_no_gram_gather(verify_samples):
    """At 200,000 samples the quantized check peaks in a chunk of
    score_moments: 5.73 MB (tracemalloc), 6.5 MB beside the full-length
    pre-processed losses and level codes, 7.5 MB before the pair entries
    were taken ahead of the bincount buffers. It read 10.2 MB before the
    per-component kernels; with them, the einsum over an (n, 2, 2) Gram
    gather reads 8.6 MB and gathering all four coefficients at once
    9.0 MB. The bound leaves 2.0 MB of margin."""
    assert traced_peak(lambda: verify_quantized_gradient_scaling(verify_samples)) < 7.7e6


def test_verify_both_claims_hold_the_losses_beside_the_flips(verify_samples):
    """Both claims in one pass at 200,000 samples peak at 9.67-9.74 MB
    (tracemalloc, 20 runs): the bit-flip check's chunk weights plus the
    chunk's pre-processed losses, which the quantization claim holds as a
    weight while the flips are drawn and folded. Beside the full-length
    losses and codes it read 9.71-9.79 MB. The bound leaves 0.76 MB of
    margin."""
    assert traced_peak(lambda: verify_gradient_scaling(verify_samples, np.random.default_rng(13))) < 10.5e6


def test_verify_both_claims_hold_no_full_length_weight():
    """At 10^6 samples both claims in one pass peak where they do at
    200,000, in the pass: 9.74-9.75 MB (tracemalloc, 20 runs). With the
    pre-processed losses, level codes and flip sums held at full length
    they read 30.2 MB. The bound leaves 0.75 MB of margin."""
    samples = random_samples(16, np.uint8, 1_000_000, seed=3)
    assert traced_peak(lambda: verify_gradient_scaling(samples, np.random.default_rng(13))) < 10.5e6


def test_decision_regions_validation():
    rx = build_receiver(4, np.random.default_rng(8))
    with pytest.raises(ValueError):
        decision_regions(rx, (1.0, -1.0), 10)
    with pytest.raises(ValueError):
        decision_regions(rx, (-1.0, 1.0), 1)
    with pytest.raises(ValueError):
        decision_regions(rx, (-math.inf, 1.0), 10)


def test_export_decision_regions_csv(tmp_path):
    rx = DenseNetwork([2, 2], [SOFTMAX], [1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    grid = decision_regions(rx, (-1.0, 1.0), 2)
    path = tmp_path / "regions.csv"
    write_decision_regions_csv(str(path), grid)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re,im,message"
    assert len(lines) == 5
    # labels are 1-based in the artifact
    assert lines[1] == "-1.0,-1.0,2"
    assert lines[2] == "1.0,-1.0,1"
    # comment lines go directly under the header, the rows are unchanged
    write_decision_regions_csv(str(path), grid, comments=("a=1", "b"))
    commented = path.read_text().strip().split("\n")
    assert commented == [lines[0], "# a=1", "# b", *lines[1:]]


# ---------------------------------------------------------------------------
# score sampling and moments


@pytest.fixture(scope="module")
def small_samples():
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    return collect_score_samples(tx, rx, CHANNEL, 16, 4000, np.random.default_rng(12))


def score_norms_sq(samples):
    """||s_k||^2 of every sample through the per-message Gram blocks, as
    score_moments computes them."""
    u = score_upstream(samples.perturbations[:], samples.sigma_p_sq)
    return _score_norms_sq(_gram_blocks(samples.jac), samples.messages, u)


def dense_scores(samples):
    """Materialize the (N, P) score matrix the long way for comparison."""
    u = 2.0 * samples.perturbations[:] / samples.sigma_p_sq
    return np.einsum("kcp,kc->kp", samples.jac[samples.messages], u)


def test_collect_score_samples_shapes(small_samples):
    s = small_samples
    assert s.num_samples == 4000
    assert s.messages.shape == (4000,)
    assert s.perturbations[:].shape == (4000, 2)
    assert s.raw_losses.shape == (4000,)
    assert s.jac.shape == (16, 2, build_transmitter(16, np.random.default_rng(10)).params.size)
    assert np.all(s.raw_losses > 0.0)
    assert s.sigma_p_sq == pytest.approx(CHANNEL.P_mw * 1e-3)


def test_score_norms_match_dense(small_samples):
    dense = dense_scores(small_samples)
    np.testing.assert_allclose(
        score_norms_sq(small_samples), np.sum(dense * dense, axis=1), rtol=1e-10
    )


def test_score_moments_match_dense(small_samples):
    s = small_samples
    rng = np.random.default_rng(13)
    weights = {
        "ones": np.ones(s.num_samples),
        "loss": s.raw_losses.copy(),
        "rand": rng.uniform(0.0, 1.0, size=s.num_samples),
    }
    every_pair = [(a, b) for a in weights for b in weights]
    moments = score_moments(s, weights, every_pair, chunk=701)
    dense = dense_scores(s)
    norms = np.sum(dense * dense, axis=1)
    for name, w in weights.items():
        np.testing.assert_allclose(
            moments.means[name], (w[:, None] * dense).mean(axis=0), rtol=1e-9, atol=1e-12
        )
        assert moments.weight_means[name] == float(w.mean())
        expect = float(np.mean((w * w * norms) ** 2))
        assert moments.fourth[name] == pytest.approx(expect, rel=1e-10)
    for a in weights:
        for b in weights:
            key = (a, b) if a <= b else (b, a)
            expect = float(np.mean(weights[a] * weights[b] * norms))
            assert moments.gram[key] == pytest.approx(expect, rel=1e-10)
    # bilinear combination identity: E[(a-b)^2 ||s||^2] expanded pairwise
    coeffs = {"loss": 1.0, "rand": -1.0}
    direct = float(np.mean((weights["loss"] - weights["rand"]) ** 2 * norms))
    assert moments.gram_bilinear(coeffs, coeffs) == pytest.approx(direct, rel=1e-10)


def add_at_means(samples, w, chunk):
    """Per-message upstream sums with np.add.at, chunk by chunk, contracted
    with the Jacobian: the reference for score_moments' means."""
    acc = np.zeros((samples.jac.shape[0], 2))
    for start in range(0, samples.num_samples, chunk):
        sl = slice(start, start + chunk)
        u = score_upstream(samples.perturbations[sl], samples.sigma_p_sq)
        np.add.at(acc, samples.messages[sl], w[sl][:, None] * u)
    return np.einsum("mc,mcp->p", acc, samples.jac) / samples.num_samples


def test_score_moments_means_equal_add_at_reference_exactly(small_samples):
    s = small_samples
    rng = np.random.default_rng(16)
    weights = {"loss": s.raw_losses.copy(), "signed": rng.normal(size=s.num_samples)}
    moments = score_moments(s, weights, chunk=701)
    for name, w in weights.items():
        assert moments.means[name].tobytes() == add_at_means(s, w, 701).tobytes()


def einsum_norms_sq(gram, messages, u):
    """The einsum over an (n, 2, 2) Gram gather: the reference for
    _score_norms_sq's per-coefficient kernel."""
    return np.einsum("kc,kcd,kd->k", u, gram[messages], u)


def interleaved_score_moments(samples, weights, chunk):
    """Means, gram diagonal and fourth moments with one bincount per weight
    over the interleaved bins 2 * m + c and einsum_norms_sq: the reference
    for score_moments' per-component accumulation."""
    num_messages = samples.jac.shape[0]
    acc_u = {name: np.zeros((num_messages, 2)) for name in weights}
    acc_gram = dict.fromkeys(weights, 0.0)
    acc_fourth = dict.fromkeys(weights, 0.0)
    gram = _gram_blocks(samples.jac)
    for start in range(0, samples.num_samples, chunk):
        sl = slice(start, start + chunk)
        m = samples.messages[sl].astype(np.intp)
        u = score_upstream(samples.perturbations[sl], samples.sigma_p_sq)
        norms_sq = einsum_norms_sq(gram, m, u)
        bins = np.concatenate([np.arange(2 * num_messages), (2 * m[:, None] + np.arange(2)).ravel()])
        for name, w in weights.items():
            values = np.concatenate([acc_u[name].ravel(), (w[sl][:, None] * u).ravel()])
            acc_u[name] = np.bincount(bins, values, 2 * num_messages).reshape(num_messages, 2)
            prod = w[sl] * w[sl] * norms_sq
            acc_gram[name] += float(prod.sum())
            acc_fourth[name] += float((prod * prod).sum())
    n = samples.num_samples
    means = {name: np.einsum("mc,mcp->p", acc_u[name], samples.jac) / n for name in weights}
    return means, {name: val / n for name, val in acc_gram.items()}, {name: val / n for name, val in acc_fourth.items()}


def random_samples(num_messages, dtype, n, seed):
    """A ScoreSampleSet of random messages in the given dtype, perturbations,
    losses and Jacobian."""
    rng = np.random.default_rng(seed)
    return ScoreSampleSet(
        messages=rng.integers(0, num_messages, size=n).astype(dtype),
        perturbations=rng.normal(0.0, 0.05, size=(n, 2)),
        raw_losses=rng.exponential(size=n),
        jac=rng.normal(size=(num_messages, 2, 37)),
        sigma_p_sq=5e-4,
    )


@pytest.mark.parametrize("dtype", [np.uint8, np.intp])
@pytest.mark.parametrize(
    "num_messages, n, chunk",
    [(16, 4000, 701), (256, 3000, 1024), (16, 2 * 701 + 1, 701), (16, 300, 1), (256, 1, 65_536)],
)
def test_per_component_moments_keep_the_interleaved_bits(dtype, num_messages, n, chunk):
    """Partial last chunks, 1-sample chunks and 1-sample sets; with 256
    messages the codes reach past 127."""
    samples = random_samples(num_messages, dtype, n, seed=num_messages + n + chunk)
    if num_messages == 256 and n > 1:
        assert samples.messages.max() >= 128
    rng = np.random.default_rng(17)
    weights = {"ones": np.ones(n), "loss": samples.raw_losses, "signed": rng.normal(size=n)}
    moments = score_moments(samples, weights, chunk=chunk)
    means, gram, fourth = interleaved_score_moments(samples, weights, chunk)
    for name in weights:
        assert moments.means[name].tobytes() == means[name].tobytes()
        assert moments.gram[(name, name)] == gram[name]
        assert moments.fourth[name] == fourth[name]


@pytest.mark.parametrize("dtype", [np.uint8, np.intp])
@pytest.mark.parametrize("num_messages", [16, 256])
def test_per_coefficient_norms_keep_the_einsum_bits(dtype, num_messages):
    """Row-major u as the callers outside score_moments pass it and the
    column-major u score_moments builds, on random data and on 1 sample."""
    samples = random_samples(num_messages, dtype, 70_001, seed=num_messages)
    gram = _gram_blocks(samples.jac)
    u = score_upstream(samples.perturbations, samples.sigma_p_sq)
    for rows in (slice(None), slice(5, 6)):
        expect = einsum_norms_sq(gram, samples.messages[rows], u[rows]).tobytes()
        assert _score_norms_sq(gram, samples.messages[rows], u[rows]).tobytes() == expect
        assert _score_norms_sq(gram, samples.messages[rows], np.asfortranarray(u[rows])).tobytes() == expect


def test_score_moments_rejects_bad_shape(small_samples):
    with pytest.raises(ValueError):
        score_moments(small_samples, {"bad": np.ones(3)})


def tree_sum(x, leaf=128, multiple=8):
    """A pairwise sum: leaves of at most leaf values summed with eight
    interleaved accumulators (sequentially below 8), and a longer block
    split after n/2 values rounded down to a multiple of multiple. With the
    defaults, NumPy's rule for a contiguous float64 vector."""
    n = x.size
    if n > leaf:
        half = n // 2 - n // 2 % multiple
        return tree_sum(x[:half], leaf, multiple) + tree_sum(x[half:], leaf, multiple)
    if n < 8:
        total = 0.0
        for value in x:
            total += value
        return total
    lanes = x[: n - n % 8].reshape(-1, 8)
    acc = lanes[0].copy()
    for row in lanes[1:]:
        acc += row
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for value in x[n - n % 8 :]:
        total += value
    return total


def spread_values(n):
    """Values of magnitudes e^-20 to e^20 and both signs, whose sums in
    other orders mostly read other bits."""
    rng = np.random.default_rng(n)
    return rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))


def streamed_sum(x, chunk):
    total = PairwiseSum(x.size)
    for start in range(0, x.size, chunk):
        total.add(x[start : start + chunk])
    return total


@pytest.mark.parametrize("chunk", [701, 4096, 65_536])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000, 65_536, 65_537, 150_001, 999_983, 1_000_000])
def test_pairwise_sum_keeps_the_bits_of_numpys_reductions(n, chunk):
    """The sum, mean and variance (a second pass over the squared
    deviations) of a vector given in chunks read the bits of np.add.reduce,
    np.mean and np.var over the whole vector. With 701-value chunks most
    boundaries fall inside a leaf of 128 values or fewer. A NumPy whose
    pairwise tree changed fails here; see also
    test_numpy_sums_by_the_pairwise_tree."""
    x = spread_values(n)
    total = streamed_sum(x, chunk)
    assert total.sum == np.add.reduce(x)
    assert total.mean() == np.mean(x)
    assert streamed_sum((x - total.mean()) ** 2, chunk).mean() == np.var(x)


@pytest.mark.parametrize("n", [300, 1000])
def test_pairwise_sum_carries_a_leaf_across_short_chunks(n):
    """Chunks of 1 to 130 values: many leaves span several chunks."""
    x = spread_values(n)
    lengths = np.random.default_rng(n).integers(1, 131, size=n)
    ends = np.cumsum(lengths)[np.cumsum(lengths) < n]
    total = PairwiseSum(n)
    for part in np.split(x, ends):
        total.add(part)
    assert total.seen == n and total.sum == np.add.reduce(x)
    assert streamed_sum(x, 1).sum == np.add.reduce(x)


def test_numpy_sums_by_the_pairwise_tree():
    """The rule PairwiseSum replays. The values tell it from a tree with
    leaves of 64 or 256, from a split not rounded to a multiple of 8, and
    from one sum per 701-value chunk added in order."""
    vectors = [spread_values(n) for n in (1000, 65_537, 150_001)]
    wholes = [np.add.reduce(x) for x in vectors]
    assert [tree_sum(x) for x in vectors] == wholes
    for other in (
        lambda x: tree_sum(x, leaf=64),
        lambda x: tree_sum(x, leaf=256),
        lambda x: tree_sum(x, multiple=1),
        lambda x: sum(np.add.reduce(x[start : start + 701]) for start in range(0, x.size, 701)),
    ):
        assert [other(x) for x in vectors] != wholes


def test_score_mean_is_zero_within_stderr(small_samples):
    """Unweighted score mean should vanish; check per coordinate at 5 sigma."""
    s = small_samples
    moments = score_moments(s, {"ones": np.ones(s.num_samples)})
    std = score_coordinate_std(s.jac, s.sigma_p_sq)
    z = np.abs(moments.means["ones"]) / (std / math.sqrt(s.num_samples) + 1e-30)
    assert z.max() < 5.0


def test_score_coordinate_std_matches_empirical(small_samples):
    s = small_samples
    dense = dense_scores(s)
    exact = score_coordinate_std(s.jac, s.sigma_p_sq)
    empirical = dense.std(axis=0)
    # 4000 draws puts the sample std within a few percent of the exact value
    mask = exact > 1e-9
    ratio = empirical[mask] / exact[mask]
    assert np.quantile(ratio, 0.01) > 0.85
    assert np.quantile(ratio, 0.99) < 1.15
    # the collected samples are draws from the policy: E||s||^2 is the closed-form
    # Fisher trace 2/sigma_p^2 * mean_m ||J[m]||_F^2, the sum of the squared stds
    fisher_exact = float(2.0 / s.sigma_p_sq * np.einsum("mcp,mcp->", s.jac, s.jac) / s.jac.shape[0])
    assert np.mean(score_norms_sq(s)) == pytest.approx(fisher_exact, rel=0.1)


def test_verify_quantized_report_smoke(small_samples):
    reports = verify_quantized_gradient_scaling(small_samples, q_bits_list=(1, 3))
    assert set(reports) == {1, 3}
    for q, rep in reports.items():
        assert -1.0 <= rep.cosine <= 1.0
        assert 0.0 < rep.g_hat < 4.0
        # the variance bound uses the same-sample trace estimate
        assert rep.fisher_trace == pytest.approx(
            float(np.mean(score_norms_sq(small_samples))), rel=1e-9
        )
        assert rep.num_samples == small_samples.num_samples
        assert np.isfinite(rep.var_test) and np.isfinite(rep.var_bound)
        assert rep.mean_gap_se > 0.0
    # finer quantization keeps more of the gradient: gain closer to 1
    assert abs(reports[3].g_hat - 1.0) < abs(reports[1].g_hat - 1.0)


def test_verify_bitflip_report_smoke(small_samples):
    reports = verify_bitflip_gradient_scaling(
        small_samples,
        np.random.default_rng(15),
        q_bits_list=(1, 2),
        flip_probs=(0.1, 0.3),
    )
    assert set(reports) == {(1, 0.1), (1, 0.3), (2, 0.1), (2, 0.3)}
    for (q, p), rep in reports.items():
        assert rep.scale_target == pytest.approx(1.0 - 2.0 * p)
        assert np.isfinite(rep.fitted_scale)
        if q == 1:
            assert np.isfinite(rep.var_test) and np.isfinite(rep.var_bound)
        else:
            assert math.isnan(rep.var_test)


def test_verify_bitflip_rejects_wide_quantizers(small_samples):
    with pytest.raises(ValueError):
        verify_bitflip_gradient_scaling(
            small_samples, np.random.default_rng(16), q_bits_list=(3,), flip_probs=(0.1,)
        )


@pytest.mark.parametrize("q_bits_list, flip_probs", [((1,), ()), ((), (0.1,)), ((), ())])
def test_verify_bitflip_with_nothing_to_flip_returns_at_once(monkeypatch, small_samples, q_bits_list, flip_probs):
    """No report to make: no loss is pre-processed, no pass runs and the
    generator is not touched."""

    def no_pass(*args):
        raise AssertionError("the check ran a pass")

    monkeypatch.setattr(evaluation, "_loss_preprocessor", no_pass)
    monkeypatch.setattr(evaluation, "score_moments", no_pass)
    rng = np.random.default_rng(16)
    state = rng.bit_generator.state
    assert verify_bitflip_gradient_scaling(small_samples, rng, q_bits_list, flip_probs) == {}
    assert rng.bit_generator.state == state


def fixed_losses(monkeypatch, n):
    """Makes the check take n fixed losses in [0, 1] as the pre-processed
    losses of any sample set, and returns them. A single real loss would
    be a degenerate batch."""
    pre = np.random.default_rng(n).random(n)
    monkeypatch.setattr(evaluation, "_loss_preprocessor", lambda sample_set, clip_fraction: lambda sl: pre[sl])
    return pre


def recorded_bsc(monkeypatch):
    """Patches the check's bsc to record the uniforms each call draws and
    the codes it returns, per generator, generators in order of first use."""
    calls = {}

    def recorded(codes, q_bits, flip_prob, rng):
        uniforms = copy.deepcopy(rng).random(codes.shape + (q_bits,))
        received = bsc(codes, q_bits, flip_prob, rng)
        calls.setdefault(id(rng), []).append((uniforms, received))
        return received

    monkeypatch.setattr(evaluation, "bsc", recorded)
    return calls


def serial_flips(pre, q_bits_list, flip_probs, flip_draws, rng):
    """(uniforms, codes) of each (q, p, draw) block of the serial loop: the
    sent codes through bsc chunk by chunk, every block drawn from rng in
    turn. The reference for the positioned draws."""
    blocks = []
    for q in q_bits_list:
        sent = _level_codes(pre, QuantizerConfig(q))
        for p in flip_probs:
            for _ in range(flip_draws):
                parts = []
                for start in range(0, sent.size, DEFAULT_CHUNK):
                    chunk = sent[start : start + DEFAULT_CHUNK]
                    parts.append((copy.deepcopy(rng).random(chunk.shape + (q,)), bsc(chunk, q, p, rng)))
                blocks.append(tuple(np.concatenate(part) for part in zip(*parts)))
    return blocks


def flips_and_final_states(monkeypatch, n, q_bits_list, flip_probs, flip_draws):
    """The check's flip blocks and the serial loop's, then the final state
    of the check's generator and the serial loop's. Both generators start
    with half of a 64-bit output buffered by a 32-bit draw."""
    pre = fixed_losses(monkeypatch, n)
    calls = recorded_bsc(monkeypatch)
    rng, serial_rng = np.random.default_rng(21), np.random.default_rng(21)
    for gen in (rng, serial_rng):
        gen.random(dtype=np.float32)
    samples = random_samples(16, np.uint8, n, seed=4)
    verify_bitflip_gradient_scaling(samples, rng, q_bits_list, flip_probs, flip_draws=flip_draws)
    serial = serial_flips(pre, q_bits_list, flip_probs, flip_draws, serial_rng)
    positioned = [tuple(np.concatenate(part) for part in zip(*block)) for block in calls.values()]
    assert len(positioned) == len(serial) == len(q_bits_list) * len(flip_probs) * flip_draws
    for block, serial_block in zip(positioned, serial):
        assert [part.tobytes() for part in block] == [part.tobytes() for part in serial_block]
    return rng.bit_generator.state, serial_rng.bit_generator.state


@pytest.mark.parametrize(
    "q_bits_list, n",
    [((q,), n) for q in (1, 2) for n in (1, 65_535, 65_536, 65_537, 200_001)] + [((2, 1), 65_537)],
)
def test_positioned_flips_equal_the_serial_bsc_loop(monkeypatch, q_bits_list, n):
    """Each (q, p, draw) block draws from its own copy of the generator,
    moved to where the serial loop would start it, chunk after chunk: the
    same uniforms and codes byte for byte, and the same final state."""
    state, serial_state = flips_and_final_states(monkeypatch, n, q_bits_list, (0.1, 0.3), 3)
    assert state == serial_state


def test_flip_generator_keeps_a_buffered_32_bit_half(monkeypatch):
    """The serial loop's float64 draws leave a buffered 32-bit half where
    it is. The default check ends in that state too, although moving a
    generator clears the buffer."""
    state, serial_state = flips_and_final_states(monkeypatch, 70_000, (1, 2), (0.1, 0.2, 0.3), 8)
    assert state["has_uint32"] == 1
    assert state == serial_state


@pytest.mark.parametrize("flip_rng", [np.random.Generator(np.random.Philox(16)), None])
def test_verify_bitflip_rejects_a_generator_it_cannot_position(small_samples, flip_rng):
    with pytest.raises(ValueError, match="must be a PCG64 generator"):
        verify_gradient_scaling(small_samples, flip_rng, (), (1,), (0.1,))


@pytest.mark.parametrize(
    "quantized_bits, bitflip_bits, flip_probs, key",
    [((1, 3, 1), (1,), (0.1,), "quantized_bits"), ((), (2, 2), (0.1,), "bitflip_bits"), ((), (1,), (0.1, 0.2, 0.1), "flip_probs")],
)
def test_verify_rejects_a_repeated_width_or_probability(small_samples, quantized_bits, bitflip_bits, flip_probs, key):
    """A repeated probability would draw two blocks and keep one report."""
    rng = np.random.default_rng(13)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"{key} repeats a value"):
        verify_gradient_scaling(small_samples, rng, quantized_bits, bitflip_bits, flip_probs)
    assert rng.bit_generator.state == state


def test_flips_are_drawn_on_the_main_thread_and_folded_on_one_helper(monkeypatch, small_samples):
    """bsc is traced by the bench, whose spans assume one thread: every
    call runs on the main thread, while one helper thread folds the
    chunks. The quantized check folds on the main thread."""
    seen = {"bsc": [], "fold": []}

    def on_thread(key, fn):
        def noted(*args):
            seen[key].append(threading.current_thread())
            return fn(*args)

        return noted

    monkeypatch.setattr(evaluation, "bsc", on_thread("bsc", bsc))
    monkeypatch.setattr(evaluation, "_score_norms_sq", on_thread("fold", _score_norms_sq))
    verify_bitflip_gradient_scaling(small_samples, np.random.default_rng(13))
    assert len(seen["bsc"]) == 48 and set(seen["bsc"]) == {threading.main_thread()}
    assert len(set(seen["fold"])) == 1 and threading.main_thread() not in seen["fold"]
    seen["fold"].clear()
    verify_quantized_gradient_scaling(small_samples)
    assert set(seen["fold"]) == {threading.main_thread()}


@pytest.mark.parametrize("failure", [None, "expansion", "draw"])
def test_bitflip_check_leaves_no_thread_behind(monkeypatch, failure):
    """Four chunks, each drawn in 48 bsc calls and folded with 18 mean-level
    expansions. An error in the second chunk's fold, on the helper, stops
    the caller once it has drawn the third chunk: the first fold is slowed,
    so a caller more than one chunk ahead would draw the fourth. An error
    in a bsc call of the third chunk, on the caller's thread, stops the
    fold. Either is raised in the caller, and the helper is joined on every
    exit."""
    samples = random_samples(16, np.uint8, 4 * DEFAULT_CHUNK, seed=5)
    calls = {"bsc": 0, "expand": 0}

    def counted_bsc(*args):
        calls["bsc"] += 1
        if failure == "draw" and calls["bsc"] == 2 * 48 + 5:
            raise RuntimeError("draw failed")
        return bsc(*args)

    def counted(expand):
        def expand_or_fail(codes):
            calls["expand"] += 1
            if calls["expand"] == 1:
                time.sleep(0.2)
            if failure == "expansion" and calls["expand"] == 18 + 1:
                raise RuntimeError("expansion failed")
            return expand(codes)

        return expand_or_fail

    monkeypatch.setattr(evaluation, "bsc", counted_bsc)
    monkeypatch.setattr(evaluation, "_mean_level", lambda cfg, flip_draws: counted(_mean_level(cfg, flip_draws)))
    before = threading.active_count()
    check = verify_bitflip_gradient_scaling, samples, np.random.default_rng(13)
    if failure is None:
        assert len(bounded_call(*check)) == 6
    else:
        with pytest.raises(RuntimeError, match=f"{failure} failed"):
            bounded_call(*check)
    assert calls["bsc"] == {None: 4 * 48, "expansion": 3 * 48, "draw": 2 * 48 + 5}[failure]
    assert threading.active_count() == before


def test_bitflip_checks_on_many_threads_keep_their_bits():
    """Three checks at once, each with its helper, on two cores, with the
    interpreter switching threads every microsecond: every report keeps
    the bits of the check run alone, so no fold read a chunk before its
    flips were added in."""
    samples = random_samples(16, np.uint8, 2 * DEFAULT_CHUNK + 1, seed=6)

    def report_bytes():
        reports = verify_bitflip_gradient_scaling(samples, np.random.default_rng(13))
        return pickle.dumps({key: dataclasses.astuple(report) for key, report in reports.items()})

    alone = report_bytes()
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: seen.append(report_bytes()), daemon=True) for _ in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive(), "a check did not return"
    finally:
        sys.setswitchinterval(interval)
    assert seen == [alone] * 3


@pytest.fixture(scope="module")
def claim_sets():
    """A 150,001-sample AWGN collection and a 70,000-sample NLPN one (K = 5),
    each ending in a short chunk."""
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    return {
        "awgn": collect_score_samples(tx, rx, CHANNEL, 16, 150_001, np.random.default_rng(12)),
        "nlpn": collect_score_samples(tx, rx, NLPN_SMALL, 16, 70_000, np.random.default_rng(13)),
    }


def reports_bytes(reports):
    return pickle.dumps({key: dataclasses.astuple(report) for key, report in reports.items()})


@pytest.mark.parametrize("flip_draws", [1, 3])
@pytest.mark.parametrize(
    "quantized_bits, bitflip_bits", [((1, 3, 5), (1, 2)), ((3, 5), (1, 2)), ((1, 2), (2, 1)), ((1,), ()), ((), (2,))]
)
@pytest.mark.parametrize("channel", ["awgn", "nlpn"])
def test_one_pass_keeps_the_bits_of_each_claim_alone(claim_sets, channel, quantized_bits, bitflip_bits, flip_draws):
    """Both claims from one pass: every report field byte for byte, and the
    flip generator's final state, its buffered 32-bit half included, as
    each claim checked alone. With (1, 2) and (2, 1) the flip blocks must
    follow bitflip_bits, not the order the widths first appear in."""
    samples = claim_sets[channel]
    rng, alone_rng = np.random.default_rng(21), np.random.default_rng(21)
    for gen in (rng, alone_rng):
        gen.random(dtype=np.float32)
    quant, flip = verify_gradient_scaling(
        samples, rng, quantized_bits, bitflip_bits, (0.0, 0.5), flip_draws=flip_draws
    )
    assert reports_bytes(quant) == reports_bytes(verify_quantized_gradient_scaling(samples, quantized_bits))
    alone = verify_bitflip_gradient_scaling(samples, alone_rng, bitflip_bits, (0.0, 0.5), flip_draws=flip_draws)
    assert reports_bytes(flip) == reports_bytes(alone)
    assert rng.bit_generator.state == alone_rng.bit_generator.state
    assert rng.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("flip_draws", [1, 3, 8])
def test_mean_level_keeps_the_out_of_place_bits(q, flip_draws):
    """Every sum of flip_draws level codes, 0 and the top included, expands
    to the bits of the out-of-place cfg.reconstruct(sums / flip_draws). At
    p = 0 every draw is the sent code, and the mean level is its level."""
    cfg = QuantizerConfig(q)
    top = flip_draws * (cfg.num_levels - 1)
    sums = np.arange(top + 1).astype(np.min_scalar_type(top))
    expand = _mean_level(cfg, flip_draws)
    assert expand(sums).tobytes() == (cfg.delta / 2.0 + cfg.delta * (sums / flip_draws)).tobytes()
    sent = np.arange(cfg.num_levels, dtype=np.uint8)
    assert expand(flip_draws * sent).tobytes() == cfg.reconstruct(sent).tobytes()


def test_collected_messages_are_the_smallest_unsigned_codes(small_samples):
    """uint8 for 16 messages; score_moments gathers and bins the codes as
    they are."""
    assert small_samples.messages.dtype == np.uint8
    big = collect_score_samples(
        build_transmitter(200, np.random.default_rng(10)), build_receiver(200, np.random.default_rng(11)),
        CHANNEL, 200, 3000, np.random.default_rng(12),
    )
    assert big.messages.dtype == np.uint8 and big.messages.max() >= 128
    moments = score_moments(big, {"ones": np.ones(3000)}, chunk=701)
    assert moments.means["ones"].tobytes() == add_at_means(big, np.ones(3000), 701).tobytes()


# ---------------------------------------------------------------------------
# convergence detection


def synthetic_metrics(curve):
    """One tx record per outer iteration with the given loss values."""
    records = []
    for outer, value in enumerate(curve, start=1):
        records.append(MetricsRecord(outer, PHASE_RX, 1, 9.9, 1.0))
        records.append(MetricsRecord(outer, PHASE_TX, 1, float(value), 1.0))
    return records


def test_convergence_iteration_exponential_curve():
    outers = np.arange(1, 501)
    curve = np.exp(-outers / 50.0)
    conv = convergence_iteration(synthetic_metrics(curve))
    # the 5% settling band of a tau = 50 exponential sits near 3 tau
    assert conv is not None
    assert 120 <= conv <= 200


def test_convergence_iteration_faster_curve_converges_earlier():
    outers = np.arange(1, 501)
    slow = convergence_iteration(synthetic_metrics(np.exp(-outers / 80.0)))
    fast = convergence_iteration(synthetic_metrics(np.exp(-outers / 20.0)))
    assert fast < slow


def test_convergence_iteration_flat_curve_is_none():
    assert convergence_iteration(synthetic_metrics(np.ones(100))) is None
    rising = convergence_iteration(synthetic_metrics(np.linspace(1.0, 2.0, 100)))
    assert rising is None
    with pytest.raises(ValueError):
        convergence_iteration([])


def test_convergence_iteration_noisy_curve_stable():
    rng = np.random.default_rng(17)
    outers = np.arange(1, 501)
    base = 1.0 + np.exp(-outers / 60.0)
    conv = convergence_iteration(synthetic_metrics(base + 0.02 * rng.normal(size=500)))
    assert conv is not None
    assert 130 <= conv <= 260
