"""Evaluation layer: SER estimators, ML baselines, score-moment machinery."""

import math

import numpy as np
import pytest

from qflearn.channels import AWGN, NLPN, ChannelConfig
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
    export_decision_regions_csv,
    fisher_trace_exact,
    fisher_trace_sampled,
    qam16,
    qam16_ser_closed_form,
    score_coordinate_std,
    score_moments,
    verify_bitflip_gradient_scaling,
    verify_quantized_gradient_scaling,
)
from qflearn.neuralnet import LINEAR, SOFTMAX, DenseLayer, DenseNetwork
from qflearn.training import MetricsRecord, PHASE_RX, PHASE_TX
from qflearn.transceiver import build_receiver, build_transmitter, constellation, real_to_complex

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
    for layer in rx.layers:
        layer.weights[...] = 0.0
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


def test_decision_regions_shapes_and_split():
    # logits [re, -re]: message 0 right of the imaginary axis, 1 left of it
    rx = DenseNetwork(
        [DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2), SOFTMAX)]
    )
    grid = decision_regions(rx, (-1.0, 1.0), 21)
    assert grid.labels.shape == (21, 21)
    assert grid.re[0] == -1.0 and grid.re[-1] == 1.0
    right = grid.labels[:, grid.re > 0]
    left = grid.labels[:, grid.re < 0]
    assert np.all(right == 0)
    assert np.all(left == 1)


def test_decision_regions_validation():
    rx = build_receiver(4, np.random.default_rng(8))
    with pytest.raises(ValueError):
        decision_regions(rx, (1.0, -1.0), 10)
    with pytest.raises(ValueError):
        decision_regions(rx, (-1.0, 1.0), 1)


def test_export_decision_regions_csv(tmp_path):
    rx = DenseNetwork(
        [DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2), SOFTMAX)]
    )
    grid = decision_regions(rx, (-1.0, 1.0), 2)
    path = tmp_path / "regions.csv"
    export_decision_regions_csv(str(path), grid)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re,im,message"
    assert len(lines) == 5
    # labels are 1-based in the artifact
    assert lines[1] == "-1.0,-1.0,2"
    assert lines[2] == "1.0,-1.0,1"
    # comment lines go directly under the header, the rows are unchanged
    export_decision_regions_csv(str(path), grid, comments=("a=1", "b"))
    commented = path.read_text().strip().split("\n")
    assert commented == [lines[0], "# a=1", "# b", *lines[1:]]


# ---------------------------------------------------------------------------
# score sampling and moments


@pytest.fixture(scope="module")
def small_samples():
    tx = build_transmitter(16, np.random.default_rng(10))
    rx = build_receiver(16, np.random.default_rng(11))
    return collect_score_samples(tx, rx, CHANNEL, 16, 4000, np.random.default_rng(12))


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
    assert s.jac.shape == (16, 2, s.num_params)
    assert np.all(s.raw_losses > 0.0)
    assert s.sigma_p_sq == pytest.approx(CHANNEL.P_mw * 1e-3)


def test_score_norms_match_dense(small_samples):
    dense = dense_scores(small_samples)
    np.testing.assert_allclose(
        small_samples.score_norms_sq(), np.sum(dense * dense, axis=1), rtol=1e-10
    )


def test_score_moments_match_dense(small_samples):
    s = small_samples
    rng = np.random.default_rng(13)
    weights = {
        "ones": np.ones(s.num_samples),
        "loss": s.raw_losses.copy(),
        "rand": rng.uniform(0.0, 1.0, size=s.num_samples),
    }
    moments = score_moments(s, weights, chunk=701)
    dense = dense_scores(s)
    norms = np.sum(dense * dense, axis=1)
    for name, w in weights.items():
        np.testing.assert_allclose(
            moments.means[name], (w[:, None] * dense).mean(axis=0), rtol=1e-9, atol=1e-12
        )
    for a in weights:
        for b in weights:
            key = (a, b) if a <= b else (b, a)
            expect = float(np.mean(weights[a] * weights[b] * norms))
            assert moments.gram[key] == pytest.approx(expect, rel=1e-10)
    # bilinear combination identity: E[(a-b)^2 ||s||^2] expanded pairwise
    coeffs = {"loss": 1.0, "rand": -1.0}
    direct = float(np.mean((weights["loss"] - weights["rand"]) ** 2 * norms))
    assert moments.gram_bilinear(coeffs, coeffs) == pytest.approx(direct, rel=1e-10)


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


def test_fisher_trace_exact_and_sampled_agree(small_samples):
    s = small_samples
    exact = fisher_trace_exact(s.jac, s.sigma_p_sq)
    sampled, se = fisher_trace_sampled(s.jac, s.sigma_p_sq, 200_000, np.random.default_rng(14))
    assert exact > 0.0
    assert abs(sampled - exact) < 4.0 * se
    # the collected samples are draws from the same policy
    assert np.mean(s.score_norms_sq()) == pytest.approx(exact, rel=0.1)


def test_verify_quantized_report_smoke(small_samples):
    reports = verify_quantized_gradient_scaling(small_samples, q_bits_list=(1, 3))
    assert set(reports) == {1, 3}
    for q, rep in reports.items():
        assert -1.0 <= rep.cosine <= 1.0
        assert 0.0 < rep.g_hat < 4.0
        # the variance bound uses the same-sample trace estimate
        assert rep.fisher_trace == pytest.approx(
            float(np.mean(small_samples.score_norms_sq())), rel=1e-9
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
