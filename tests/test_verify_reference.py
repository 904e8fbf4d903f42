"""The verification harness against its float64 reference, bit for bit.

The harness holds its quantized and bit-flipped weights as level codes and
accumulates only the gram entries its reports read. The reference below
builds every weight as a float64 vector from the feedback pipeline's own
quantize / bits / dequantize steps, accumulates every pair of weights, and
assembles the reports from those tables. Every report field must carry the
same bits.
"""

import dataclasses
import math

import numpy as np
import pytest
from reference import bits_to_indices, quantize

from qflearn import evaluation
from qflearn.channels import AWGN, ChannelConfig
from qflearn.evaluation import (
    DEFAULT_CHUNK,
    ScalingReport,
    _gram_blocks,
    _score_norms_sq,
    collect_score_samples,
    verify_bitflip_gradient_scaling,
    verify_quantized_gradient_scaling,
)
from qflearn.feedback import (
    DEFAULT_CLIP_FRACTION,
    QuantizerConfig,
    bussgang_gain,
    preprocess,
    quantize_value,
)
from qflearn.transceiver import build_receiver, build_transmitter, score_upstream

CHANNEL = ChannelConfig(family=AWGN, sigma_sq_dbm=-21.3, P_dbm=-6.3)

# Two full chunks of DEFAULT_CHUNK and a partial third.
NUM_SAMPLES = 150_001


def pair_key(a, b):
    return (a, b) if a <= b else (b, a)


def reference_score_moments(sample_set, weights, chunk=DEFAULT_CHUNK):
    """Means, weight means, and the gram and fourth-moment entries of every
    pair of float64 weight vectors, in one chunked pass."""
    names = list(weights)
    n = sample_set.num_samples
    num_messages = sample_set.jac.shape[0]
    acc_u = {name: np.zeros((num_messages, 2)) for name in names}
    pairs = [(names[a], names[b]) for a in range(len(names)) for b in range(a, len(names))]
    acc_gram = {pair_key(a, b): 0.0 for a, b in pairs}
    acc_fourth = dict(acc_gram)
    gram = _gram_blocks(sample_set.jac)
    acc_bins = np.arange(2 * num_messages)
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        m = sample_set.messages[sl]
        u = score_upstream(sample_set.perturbations[sl], sample_set.sigma_p_sq)
        norms_sq = _score_norms_sq(gram, m, u)
        bins = np.concatenate([acc_bins, (2 * m[:, None] + np.arange(2)).ravel()])
        for name in names:
            values = np.concatenate([acc_u[name].ravel(), (weights[name][sl][:, None] * u).ravel()])
            acc_u[name] = np.bincount(bins, values, 2 * num_messages).reshape(num_messages, 2)
        for a, b in pairs:
            prod = weights[a][sl] * weights[b][sl] * norms_sq
            acc_gram[pair_key(a, b)] += float(prod.sum())
            acc_fourth[pair_key(a, b)] += float((prod * prod).sum())
    return {
        "means": {name: np.einsum("mc,mcp->p", acc_u[name], sample_set.jac) / n for name in names},
        "weight_means": {name: float(weights[name].mean()) for name in names},
        "gram": {key: val / n for key, val in acc_gram.items()},
        "fourth": {key: val / n for key, val in acc_fourth.items()},
        "n": n,
    }


def gram_se(mom, name):
    key = (name, name)
    return math.sqrt(max(mom["fourth"][key] - mom["gram"][key] ** 2, 0.0) / mom["n"])


def centered_mean(mom, name):
    return mom["means"][name] - mom["weight_means"][name] * mom["means"]["ones"]


def variance_of(mom, name, mean):
    second = mom["gram"][(name, name)]
    se_mean_term = 2.0 * float(np.linalg.norm(mean)) * math.sqrt(max(second, 0.0) / mom["n"])
    return second - float(mean @ mean), math.sqrt(gram_se(mom, name) ** 2 + se_mean_term**2)


def scaling_report(label, target, mom, name_test, name_ref, variance, **extra):
    mu_test, mu_ref = centered_mean(mom, name_test), centered_mean(mom, name_ref)
    offset = mom["weight_means"][name_test] - target * mom["weight_means"][name_ref]
    coeffs = {name_test: 1.0, name_ref: -target, "ones": -offset}
    gap_second = sum(
        ca * cb * mom["gram"][pair_key(a, b)] for a, ca in coeffs.items() for b, cb in coeffs.items()
    )
    norm_test, norm_ref = float(np.linalg.norm(mu_test)), float(np.linalg.norm(mu_ref))
    dot = float(mu_test @ mu_ref)
    return ScalingReport(
        label=label,
        scale_target=target,
        fitted_scale=dot / norm_ref**2 if norm_ref else 0.0,
        cosine=dot / (norm_test * norm_ref) if norm_test and norm_ref else 0.0,
        magnitude_ratio=norm_test / norm_ref if norm_ref else 0.0,
        mean_gap_norm=float(np.linalg.norm(mu_test - target * mu_ref)),
        mean_gap_se=math.sqrt(max(gap_second, 0.0) / mom["n"]),
        grad_ref=mu_ref,
        grad_test=mu_test,
        var_test=variance[0],
        var_bound=variance[1],
        var_slack_se=variance[2],
        fisher_trace=mom["gram"][("ones", "ones")],
        num_samples=mom["n"],
        **extra,
    )


def reference_quantized(sample_set, q_bits_list, clip_fraction=DEFAULT_CLIP_FRACTION):
    pre, _ = preprocess(sample_set.raw_losses, clip_fraction)
    weights = {"ones": np.ones_like(pre), "perfect": pre}
    for q in q_bits_list:
        weights[f"q{q}"] = quantize_value(pre, QuantizerConfig(q))
    mom = reference_score_moments(sample_set, weights)
    fisher, fisher_se = mom["gram"][("ones", "ones")], gram_se(mom, "ones")
    var_ref, var_ref_se = variance_of(mom, "perfect", centered_mean(mom, "perfect"))
    reports = {}
    for q in q_bits_list:
        est = bussgang_gain(pre, QuantizerConfig(q))
        var_q, var_q_se = variance_of(mom, f"q{q}", centered_mean(mom, f"q{q}"))
        coeff = est.g * est.w_bar + est.w_bar**2
        bound = est.g**2 * var_ref + coeff * fisher
        slack_se = math.sqrt(var_q_se**2 + (est.g**2 * var_ref_se) ** 2 + (coeff * fisher_se) ** 2)
        reports[q] = scaling_report(
            f"quantized_{q}bit", est.g, mom, f"q{q}", "perfect", (var_q, bound, slack_se),
            g_hat=est.g, w_bar=est.w_bar,
        )
    return reports


def reference_bitflip(sample_set, rng, q_bits_list, flip_probs, clip_fraction=DEFAULT_CLIP_FRACTION, flip_draws=8):
    pre, _ = preprocess(sample_set.raw_losses, clip_fraction)
    weights = {"ones": np.ones_like(pre)}
    for q in q_bits_list:
        cfg = QuantizerConfig(q)
        weights[f"q{q}"], bits = quantize(pre, cfg)
        for p in flip_probs:
            index_sum = np.zeros(pre.shape, dtype=np.int64)
            for draw in range(flip_draws):
                indices = bits_to_indices(bits ^ (rng.random(bits.shape) < p), cfg)
                if draw == 0 and q == 1:
                    weights[f"ev_q{q}_p{p}"] = cfg.reconstruct(indices)
                index_sum += indices
            weights[f"e_q{q}_p{p}"] = cfg.reconstruct(index_sum / flip_draws)
    mom = reference_score_moments(sample_set, weights)
    fisher, fisher_se = mom["gram"][("ones", "ones")], gram_se(mom, "ones")
    reports = {}
    for q in q_bits_list:
        var_q, var_q_se = variance_of(mom, f"q{q}", centered_mean(mom, f"q{q}"))
        norm_q = float(np.linalg.norm(centered_mean(mom, f"q{q}")))
        for p in flip_probs:
            if q == 1:
                name_ev = f"ev_q{q}_p{p}"
                var_e, var_e_se = variance_of(mom, name_ev, centered_mean(mom, name_ev))
                bound = var_q + 4.0 * p * (1.0 - p) * norm_q**2 + p * fisher
                variance = (var_e, bound, math.sqrt(var_e_se**2 + var_q_se**2 + (p * fisher_se) ** 2))
            else:
                variance = (math.nan, math.nan, math.nan)
            reports[(q, p)] = scaling_report(
                f"bitflip_q{q}_p{p}", 1.0 - 2.0 * p, mom, f"e_q{q}_p{p}", f"q{q}", variance
            )
    return reports


def report_bits(reports):
    """Every report field as bytes: arrays by tobytes, floats by their float64 bits."""

    def bits(value):
        if isinstance(value, np.ndarray):
            return value.tobytes()
        if isinstance(value, float):
            return np.float64(value).tobytes()
        return value

    return {key: {f: bits(v) for f, v in dataclasses.asdict(r).items()} for key, r in reports.items()}


@pytest.fixture(scope="module")
def samples():
    tx = build_transmitter(16, np.random.default_rng(20))
    rx = build_receiver(16, np.random.default_rng(21))
    return collect_score_samples(tx, rx, CHANNEL, 16, NUM_SAMPLES, np.random.default_rng(22))


@pytest.mark.parametrize("clip_fraction", [DEFAULT_CLIP_FRACTION, 0.1])
def test_quantized_reports_equal_float64_reference(samples, clip_fraction):
    """q = 20 and q = 48 expand codes elementwise: a 2^48-entry level table
    could not even be allocated."""
    q_bits_list = (1, 3, 5, 20, 48)
    reports = verify_quantized_gradient_scaling(samples, q_bits_list, clip_fraction)
    assert report_bits(reports) == report_bits(reference_quantized(samples, q_bits_list, clip_fraction))


def test_bitflip_reports_equal_float64_reference(samples):
    args = ((1, 2), (0.0, 0.25, 0.5))
    reports = verify_bitflip_gradient_scaling(samples, np.random.default_rng(23), *args)
    expect = reference_bitflip(samples, np.random.default_rng(23), *args)
    assert report_bits(reports) == report_bits(expect)


def test_bitflip_reports_equal_float64_reference_odd_flip_draws(monkeypatch, samples):
    """Three draws sum to codes the uint8 holds, and their mean is no longer dyadic."""
    monkeypatch.setattr(evaluation, "FLIP_DRAWS", 3)
    args = ((2,), (0.1,), DEFAULT_CLIP_FRACTION)
    reports = verify_bitflip_gradient_scaling(samples, np.random.default_rng(24), *args)
    expect = reference_bitflip(samples, np.random.default_rng(24), *args, flip_draws=3)
    assert report_bits(reports) == report_bits(expect)
