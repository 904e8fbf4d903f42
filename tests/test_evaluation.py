"""Evaluation layer: SER estimators, ML baselines, score-moment machinery."""

import math
import tracemalloc

import numpy as np
import pytest

from qflearn.channels import AWGN, NLPN, ChannelConfig, propagate
from qflearn.cli import write_decision_regions_csv
from qflearn.evaluation import (
    ExactAwgnDetector,
    ReceiverDetector,
    SampledNlpnDetector,
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
    verify_quantized_gradient_scaling,
)
from qflearn.evaluation import RECEIVE_ROWS, _gram_blocks, _receive_rows, _score_norms_sq
from qflearn.neuralnet import LINEAR, SOFTMAX, DenseNetwork
from qflearn.training import MetricsRecord, PHASE_RX, PHASE_TX
from qflearn.transceiver import (
    build_receiver,
    build_transmitter,
    constellation,
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


@pytest.mark.parametrize("rows", [1, RECEIVE_ROWS - 1, RECEIVE_ROWS, RECEIVE_ROWS + 1, 3 * RECEIVE_ROWS + 5])
def test_receive_rows_equals_one_receive_call(rows):
    rx = build_receiver(16, np.random.default_rng(8))
    src = np.random.default_rng(9)
    y = 0.3 * (src.normal(size=rows) + 1j * src.normal(size=rows))
    assert _receive_rows(rx, y).tobytes() == receive(rx, y)[0].tobytes()


def test_decision_regions_equal_one_receive_call():
    """A 91 x 91 grid (two row blocks): the labels are the argmax of one
    receive call on every grid point."""
    rx = build_receiver(16, np.random.default_rng(8))
    grid = decision_regions(rx, (-0.5, 0.5), 91)
    re, im = np.meshgrid(grid.re, grid.im, indexing="xy")
    probs, _ = receive(rx, np.stack([re.ravel(), im.ravel()], axis=-1))
    assert grid.labels.tobytes() == np.argmax(probs, axis=1).reshape(91, 91).tobytes()


def test_collect_score_samples_holds_no_full_chunk_tape():
    """One receiver forward pass over a 65,536-sample chunk peaks at about
    70 MB (tracemalloc); in row blocks the call peaks far below that."""
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    tracemalloc.start()
    try:
        collect_score_samples(tx, rx, CHANNEL, 16, 65_536, np.random.default_rng(12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_verify_bitflip_holds_weights_as_level_codes():
    """The default bit-flip check has twelve weights. As float64 vectors
    they take 1.6 MB each at 200,000 samples and the call peaked at 31.4 MB
    (tracemalloc); as level codes its peak is about 21 MB, mostly the
    working set of one 65,536-sample chunk."""
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    samples = collect_score_samples(tx, rx, CHANNEL, 16, 200_000, np.random.default_rng(12))
    tracemalloc.start()
    try:
        verify_bitflip_gradient_scaling(samples, np.random.default_rng(13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 26e6


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
    u = score_upstream(samples.perturbations, samples.sigma_p_sq)
    return _score_norms_sq(_gram_blocks(samples.jac), samples.messages, u)


def dense_scores(samples):
    """Materialize the (N, P) score matrix the long way for comparison."""
    u = 2.0 * samples.perturbations / samples.sigma_p_sq
    return np.einsum("kcp,kc->kp", samples.jac[samples.messages], u)


def test_collect_score_samples_shapes(small_samples):
    s = small_samples
    assert s.num_samples == 4000
    assert s.messages.shape == (4000,)
    assert s.perturbations.shape == (4000, 2)
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


def test_score_moments_rejects_bad_shape(small_samples):
    with pytest.raises(ValueError):
        score_moments(small_samples, {"bad": np.ones(3)})


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
