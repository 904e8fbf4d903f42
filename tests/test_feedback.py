"""Feedback pipeline oracles: pre-processing, quantizer cells, bits, Bussgang."""

import math

import numpy as np
import pytest

from qflearn.channels import BscConfig
from qflearn.feedback import (
    BASELINE,
    CLIP,
    MAX_Q_BITS,
    SCALE,
    QuantizerConfig,
    bits_to_indices,
    bussgang_gain,
    dequantize,
    distortion,
    feedback_roundtrip,
    gaussian_one_bit_gain,
    indices_to_bits,
    level_indices,
    loss_transform,
    preprocess,
    preprocess_bounds,
    quantize,
    quantize_value,
    rescale,
)


# ---------------------------------------------------------------------------
# pre-processing


def test_preprocess_hand_oracle():
    """B=4, 5% clip: one value clipped, min shifted out, range scaled to [0,1].

    raw [0.1, 0.5, 0.2, 10.0]: ceil(0.05*4)=1 value clips to the largest
    remaining loss 0.5, then (l - 0.1) / 0.4 gives [0, 1, 0.25, 1].
    """
    transformed, stats = preprocess(np.array([0.1, 0.5, 0.2, 10.0]))
    np.testing.assert_allclose(transformed, [0.0, 1.0, 0.25, 1.0], atol=1e-15)
    assert stats.l_min == pytest.approx(0.1)
    assert stats.l_max == pytest.approx(0.5)
    assert stats.clip_count == 1
    assert not stats.degenerate


def test_preprocess_output_range_random_batches():
    rng = np.random.default_rng(17)
    for _ in range(50):
        raw = rng.exponential(1.0, size=int(rng.integers(2, 200)))
        transformed, stats = preprocess(raw)
        if stats.degenerate:
            continue
        assert transformed.min() == pytest.approx(0.0, abs=1e-15)
        assert transformed.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all((transformed >= 0.0) & (transformed <= 1.0))


def test_preprocess_is_order_preserving_below_clip():
    rng = np.random.default_rng(18)
    raw = rng.uniform(0.0, 3.0, size=64)
    transformed, stats = preprocess(raw)
    kept = raw <= stats.l_max
    order_raw = np.argsort(raw[kept], kind="stable")
    order_t = np.argsort(transformed[kept], kind="stable")
    np.testing.assert_array_equal(order_raw, order_t)


def test_preprocess_degenerate_batch_flags_and_zeroes():
    transformed, stats = preprocess(np.full(8, 0.42))
    np.testing.assert_array_equal(transformed, np.zeros(8))
    assert stats.degenerate


def test_preprocess_keeps_at_least_one_value():
    # clip_fraction near 1 cannot clip the whole batch
    transformed, stats = preprocess(np.array([1.0, 2.0, 3.0]), clip_fraction=0.99)
    assert stats.l_max == pytest.approx(1.0)
    assert stats.degenerate  # everything collapses onto l_min
    with pytest.raises(ValueError):
        preprocess(np.array([]))
    with pytest.raises(ValueError):
        preprocess(np.array([1.0]), clip_fraction=1.0)


def out_of_place_preprocess(raw, clip_fraction):
    """preprocess's transform as it was before it worked in place: the sorted
    copy, the clipped copy and the result alive together. The bit reference."""
    n = raw.size
    srt = np.sort(raw)
    l_max = float(srt[n - 1 - min(int(np.ceil(clip_fraction * n)), n - 1)])
    l_min = float(srt[0])
    if l_max <= l_min:
        return np.zeros_like(raw)
    clipped = np.minimum(raw, l_max)
    return (clipped - l_min) / (l_max - l_min)


@pytest.mark.parametrize(
    "raw, clip_fraction",
    [
        (np.array([0.1, 0.5, 0.2, 10.0]), 0.05),  # one clipped value; lands on 0 and 1
        (np.linspace(0.0, 1.0, 257), 0.0),  # every 8-bit threshold, 0 and 1
        (np.linspace(0.3, 2.9, 257), 0.05),
        (np.full(8, 0.42), 0.05),  # degenerate
        (np.random.default_rng(19).exponential(1.0, size=10_000), 0.05),
    ],
)
def test_in_place_preprocess_keeps_the_out_of_place_bits(raw, clip_fraction):
    """Also chunk by chunk: the batch's bounds, then its elementwise
    transform on 7-loss slices, as the verify harness pre-processes."""
    expect = out_of_place_preprocess(raw, clip_fraction).tobytes()
    assert preprocess(raw, clip_fraction)[0].tobytes() == expect
    l_min, l_max, degenerate = preprocess_bounds(raw, clip_fraction)
    if not degenerate:
        parts = [rescale(raw[start : start + 7], l_min, l_max) for start in range(0, raw.size, 7)]
        assert np.concatenate(parts).tobytes() == expect


# ---------------------------------------------------------------------------
# quantizer cells and bit mapping


def out_of_place_reconstruct(cfg, indices):
    """QuantizerConfig.reconstruct as it was before it worked in place. The
    bit reference."""
    return cfg.delta / 2.0 + cfg.delta * indices


@pytest.mark.parametrize("q", [1, 2, 3, 8, MAX_Q_BITS])
def test_in_place_reconstruct_keeps_the_out_of_place_bits(q):
    """On level codes (int64 and the smallest unsigned dtype) and on losses
    at the thresholds, just below them, 0 and 1."""
    cfg = QuantizerConfig(q)
    top = cfg.num_levels - 1
    indices = np.unique(np.array([0, 1, 2, top // 2, top // 2 + 1, top - 1, top], dtype=np.int64).clip(0, top))
    for codes in (indices, indices.astype(np.min_scalar_type(top))):
        assert cfg.reconstruct(codes).tobytes() == out_of_place_reconstruct(cfg, codes).tobytes()
    thresholds = indices * cfg.delta
    losses = np.concatenate([[0.0, 1.0], thresholds, np.nextafter(thresholds, -1.0).clip(0.0)])
    expect = out_of_place_reconstruct(cfg, level_indices(losses, cfg))
    assert quantize_value(losses, cfg).tobytes() == expect.tobytes()
    assert quantize(losses, cfg)[0].tobytes() == expect.tobytes()


def test_one_bit_cells():
    cfg = QuantizerConfig(1)
    level, bits = quantize(np.array([0.2]), cfg)
    assert level[0] == pytest.approx(0.25)
    np.testing.assert_array_equal(bits, [[0]])
    level, bits = quantize(np.array([0.7]), cfg)
    assert level[0] == pytest.approx(0.75)
    np.testing.assert_array_equal(bits, [[1]])


def test_two_bit_cells():
    cfg = QuantizerConfig(2)
    level, bits = quantize(np.array([0.7]), cfg)
    assert level[0] == pytest.approx(0.625)
    np.testing.assert_array_equal(bits, [[1, 0]])
    # the top edge of the range lands in the last cell
    level, bits = quantize(np.array([1.0]), cfg)
    assert level[0] == pytest.approx(0.875)
    np.testing.assert_array_equal(bits, [[1, 1]])


def test_levels_are_mid_cell():
    for q in (1, 2, 3, 5):
        cfg = QuantizerConfig(q)
        levels = cfg.levels()
        assert levels.shape == (2**q,)
        np.testing.assert_allclose(np.diff(levels), cfg.delta)
        assert levels[0] == pytest.approx(cfg.delta / 2.0)
        assert levels[-1] == pytest.approx(1.0 - cfg.delta / 2.0)


def test_quantize_rejects_out_of_range():
    cfg = QuantizerConfig(2)
    with pytest.raises(ValueError):
        quantize(np.array([-0.01]), cfg)
    with pytest.raises(ValueError):
        quantize(np.array([1.01]), cfg)
    # NaN is neither below 0 nor above 1, and used to land in level 0.
    with pytest.raises(ValueError, match=r"loss outside \[0, 1\]"):
        quantize(np.array([0.5, np.nan]), cfg)
    with pytest.raises(ValueError, match=r"loss outside \[0, 1\]"):
        distortion(np.array([np.nan]), cfg)


def test_quantizer_monotone_over_random_pairs():
    """l1 <= l2 implies Q(l1) <= Q(l2), checked on 10^4 random pairs."""
    rng = np.random.default_rng(19)
    for q in (1, 2, 3):
        cfg = QuantizerConfig(q)
        a = rng.uniform(0.0, 1.0, size=10_000)
        b = rng.uniform(0.0, 1.0, size=10_000)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        assert np.all(quantize_value(lo, cfg) <= quantize_value(hi, cfg))


def test_bit_mapping_roundtrip_all_indices():
    for q in range(1, 7):
        cfg = QuantizerConfig(q)
        idx = np.arange(2**q)
        bits = indices_to_bits(idx, cfg)
        assert bits.shape == (2**q, q)
        np.testing.assert_array_equal(bits_to_indices(bits, cfg), idx)


@pytest.mark.parametrize("q", range(1, 9))
def test_bit_mapping_roundtrip_2d_batch(q):
    cfg = QuantizerConfig(q)
    idx = np.random.default_rng(q).integers(0, 2**q, size=(5, 7))
    bits = indices_to_bits(idx, cfg)
    assert bits.shape == (5, 7, q)
    weights = 1 << np.arange(q - 1, -1, -1)
    for dtype in (np.uint8, bool, np.int64):
        decoded = bits_to_indices(bits.astype(dtype), cfg)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, idx)
        # the weighted-sum decode it replaces
        np.testing.assert_array_equal(decoded, (bits.astype(np.int64) * weights).sum(axis=-1))


def test_bit_mapping_is_msb_first():
    cfg = QuantizerConfig(3)
    np.testing.assert_array_equal(indices_to_bits(np.array([5]), cfg), [[1, 0, 1]])
    np.testing.assert_array_equal(indices_to_bits(np.array([1]), cfg), [[0, 0, 1]])


def test_dequantize_inverts_quantize_levels():
    rng = np.random.default_rng(20)
    for q in (1, 2, 4):
        cfg = QuantizerConfig(q)
        l = rng.uniform(0.0, 1.0, size=256)
        levels, bits = quantize(l, cfg)
        np.testing.assert_allclose(dequantize(bits, cfg), levels, atol=1e-15)


def test_quantization_error_bounded_by_half_cell():
    rng = np.random.default_rng(21)
    for q in (1, 3, 6):
        cfg = QuantizerConfig(q)
        l = rng.uniform(0.0, 1.0, size=4096)
        err = np.abs(quantize_value(l, cfg) - l)
        assert err.max() <= cfg.delta / 2.0 + 1e-15


def test_uniform_input_distortion_matches_delta_sq_over_12():
    """Mean squared error within 2% of delta^2/12 on 10^6 uniform samples."""
    rng = np.random.default_rng(22)
    l = rng.uniform(0.0, 1.0, size=1_000_000)
    for q in (1, 2, 4):
        cfg = QuantizerConfig(q)
        expect = cfg.delta**2 / 12.0
        assert distortion(l, cfg) == pytest.approx(expect, rel=0.02)


# ---------------------------------------------------------------------------
# Bussgang decomposition


def test_bussgang_gain_closed_form_gaussian():
    """1-bit gain within 2% of 1/sqrt(8*pi*var) for three loss variances."""
    rng = np.random.default_rng(23)
    cfg = QuantizerConfig(1)
    for var in (1.0 / (8.0 * math.pi), 0.05, 0.2):
        losses = rng.normal(0.5, math.sqrt(var), size=1_000_000)
        est = bussgang_gain(losses, cfg)
        assert est.g == pytest.approx(gaussian_one_bit_gain(var), rel=0.02)


def test_bussgang_unit_gain_variance():
    # at var = 1/(8*pi) the closed-form gain is exactly 1
    assert gaussian_one_bit_gain(1.0 / (8.0 * math.pi)) == pytest.approx(1.0)


def test_bussgang_residual_uncorrelated():
    """The residual w = Q(l) - g*l has (empirically) zero correlation with l."""
    rng = np.random.default_rng(24)
    losses = rng.uniform(0.0, 1.0, size=500_000)
    for q in (1, 2, 3):
        est = bussgang_gain(losses, QuantizerConfig(q))
        w = quantize_value(losses, QuantizerConfig(q)) - est.g * losses
        corr = np.mean((losses - losses.mean()) * (w - w.mean()))
        assert abs(corr) < 1e-12


def test_bussgang_w_bar_formula():
    est = bussgang_gain(np.array([0.1, 0.4, 0.6, 0.9]), QuantizerConfig(1))
    assert est.w_bar == pytest.approx(abs(1.0 - 1.0 - est.g))
    est2 = bussgang_gain(np.array([0.1, 0.4, 0.6, 0.9]), QuantizerConfig(3))
    assert est2.w_bar == pytest.approx(abs(1.0 - 0.25 - est2.g))


def test_bussgang_gain_rejects_constant_losses():
    with pytest.raises(ValueError):
        bussgang_gain(np.full(16, 0.3), QuantizerConfig(1))


def test_fine_quantizer_gain_approaches_one():
    rng = np.random.default_rng(25)
    losses = rng.uniform(0.0, 1.0, size=200_000)
    est = bussgang_gain(losses, QuantizerConfig(16))
    assert est.g == pytest.approx(1.0, abs=1e-3)
    assert est.w_var <= QuantizerConfig(16).delta**2  # residual at cell scale


# ---------------------------------------------------------------------------
# end-to-end feedback link


# The level code of a reconstruction value is its cell: level_indices of
# batch.levels gives the sent codes, of batch.reconstructed the received ones.


def test_roundtrip_noiseless_reconstructs_levels():
    rng = np.random.default_rng(26)
    raw = rng.exponential(1.0, size=64)
    cfg = QuantizerConfig(2)
    batch = feedback_roundtrip(raw, cfg)
    sent = level_indices(batch.levels, cfg)
    np.testing.assert_array_equal(level_indices(batch.reconstructed, cfg), sent)
    np.testing.assert_allclose(batch.reconstructed, batch.levels, atol=1e-15)
    assert indices_to_bits(sent, cfg).shape == (64, 2)
    # reconstruction error never exceeds half a cell on the transformed loss
    assert np.max(np.abs(batch.reconstructed - batch.transformed)) <= 0.125 + 1e-15


def test_roundtrip_bsc_flips_bits():
    rng = np.random.default_rng(27)
    raw = np.tile([0.1, 0.9], 2048)
    cfg = QuantizerConfig(1)
    batch = feedback_roundtrip(raw, cfg, bsc_cfg=BscConfig(flip_prob=0.25), rng=rng)
    sent = indices_to_bits(level_indices(batch.levels, cfg), cfg)
    flip_rate = np.mean(indices_to_bits(level_indices(batch.reconstructed, cfg), cfg) != sent)
    assert flip_rate == pytest.approx(0.25, rel=0.1)
    # reconstructions still come from the quantizer's level set
    assert set(np.unique(batch.reconstructed)) <= {0.25, 0.75}


@pytest.mark.parametrize("p", [0.1, 0.5])
@pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
def test_roundtrip_matches_the_bit_path(q, p):
    """The roundtrip flips level codes; the bit path it replaced flipped the
    (B, q) natural bit vectors with the same draws. Same bits, same state."""
    cfg = QuantizerConfig(q)
    raw_rng = np.random.default_rng(40 + q)
    rng, twin = np.random.default_rng(41), np.random.default_rng(41)
    for _ in range(5):
        raw = raw_rng.exponential(1.0, size=64)
        batch = feedback_roundtrip(raw, cfg, BscConfig(flip_prob=p), rng)
        bits = indices_to_bits(level_indices(preprocess(raw)[0], cfg), cfg)
        received = bits ^ (twin.random(bits.shape) < p)
        assert batch.reconstructed.tobytes() == cfg.reconstruct(bits_to_indices(received, cfg)).tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_roundtrip_noisy_needs_rng():
    with pytest.raises(ValueError):
        feedback_roundtrip(
            np.array([0.1, 0.2]), QuantizerConfig(1), bsc_cfg=BscConfig(flip_prob=0.1)
        )


def test_roundtrip_degenerate_batch_sends_zero_codeword():
    cfg = QuantizerConfig(2)
    batch = feedback_roundtrip(np.full(32, 1.7), cfg)
    assert batch.stats.degenerate
    sent_bits = indices_to_bits(level_indices(batch.levels, cfg), cfg)
    np.testing.assert_array_equal(sent_bits, np.zeros((32, 2), dtype=np.uint8))
    np.testing.assert_allclose(batch.reconstructed, np.full(32, 0.125))


def test_quantizer_config_validation():
    with pytest.raises(ValueError):
        QuantizerConfig(0)
    with pytest.raises(ValueError, match="q_bits must be <= 62"):
        QuantizerConfig(MAX_Q_BITS + 1)
    # The widest quantizer still puts a loss of 1 in its top cell; one bit
    # more and the int64 cell index would overflow.
    widest = QuantizerConfig(MAX_Q_BITS)
    np.testing.assert_array_equal(level_indices(np.array([0.0, 1.0]), widest), [0, widest.num_levels - 1])


def test_level_indices_clamp_out_of_range():
    cfg = QuantizerConfig(2)
    np.testing.assert_array_equal(
        level_indices(np.array([-5.0, 0.0, 0.999, 1.0, 7.0, np.inf, -np.inf]), cfg), [0, 0, 3, 3, 3, 3, 0]
    )
    # Cell indices past 2^63 used to wrap to cell 0 in the int64 cast.
    widest = QuantizerConfig(MAX_Q_BITS)
    top = widest.num_levels - 1
    np.testing.assert_array_equal(
        level_indices(np.array([2.0, 3.0, 1e18, np.inf, -np.inf]), widest), [top, top, top, top, 0]
    )
    # Finite losses whose quotient by delta overflows used to raise an
    # overflow warning in the division; they land in the end cells.
    for cfg in (QuantizerConfig(1), widest):
        huge = np.array([1e300, 1.7e308, -1e300, -1.7e308])
        np.testing.assert_array_equal(level_indices(huge, cfg), [cfg.num_levels - 1] * 2 + [0] * 2)


def test_loss_transform_kinds():
    l = np.array([0.5, 2.0, 4.0])
    np.testing.assert_allclose(loss_transform(l, CLIP, 1.5), [0.5, 1.5, 1.5])
    np.testing.assert_allclose(loss_transform(l, BASELINE, 0.5), [0.0, 1.5, 3.5])
    np.testing.assert_allclose(loss_transform(l, SCALE, 2.0), [1.0, 4.0, 8.0])
    with pytest.raises(ValueError):
        loss_transform(l, "square", 1.0)
