"""Per-mini-batch loss pre-processing, fixed quantization, and bit mapping.

The receiver normalizes each mini-batch of per-sample losses into [0, 1]
(clip the largest values, shift by the batch minimum, scale by the range),
quantizes with a fixed uniform q-bit quantizer over [0, 1], and sends the
natural binary encoding of the level index. The transmitter knows only q and
reconstructs mid-cell values in [0, 1]. Because the pre-processing is a
positive affine map, the ordering of the losses survives the round trip,
which is what the policy-gradient update actually depends on.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import bsc, pack_bits

CLIP = "clip"
BASELINE = "baseline"
SCALE = "scale"

DEFAULT_CLIP_FRACTION = 0.05
# Level indices are int64, and a loss of 1 falls in cell floor(2^q) before
# the clamp: q = 63 already overflows and sends the largest loss to level 0.
MAX_Q_BITS = 62


@dataclass
class QuantizerConfig:
    """A fixed uniform q-bit quantizer over [0, 1]."""

    q_bits: int

    def __post_init__(self):
        if self.q_bits < 1:
            raise ValueError("q_bits must be >= 1")
        if self.q_bits > MAX_Q_BITS:
            raise ValueError(f"q_bits must be <= {MAX_Q_BITS} (int64 level indices)")

    @property
    def num_levels(self):
        return 2**self.q_bits

    @property
    def delta(self):
        return 1.0 / self.num_levels

    def reconstruct(self, indices):
        """Mid-cell reconstruction value delta/2 + m*delta of level index m."""
        levels = self.delta * indices
        levels += self.delta / 2.0  # in place; a real sum's bits do not depend on operand order
        return levels

    def levels(self):
        """All reconstruction values, m = 0..2^q - 1."""
        return self.reconstruct(np.arange(self.num_levels))


@dataclass
class PreprocessStats:
    l_min: float
    l_max: float
    clip_count: int
    degenerate: bool = False


@dataclass
class LossBatch:
    """Per-sample losses at each feedback pipeline stage."""

    transformed: np.ndarray  # in [0, 1]
    levels: np.ndarray  # quantized reconstruction values at the receiver
    reconstructed: np.ndarray  # of the received level codes, used by the transmitter
    stats: PreprocessStats


@dataclass
class BussgangEstimate:
    g: float  # linear-decomposition gain
    w_mean: float  # residual mean
    w_var: float  # residual variance
    w_bar: float  # |1 - 1/2^(q-1) - g| quantization-error bound


def losses_to_clip(n, clip_fraction):
    """How many of n losses preprocess clips: the top ceil(clip_fraction*n),
    capped at n-1 so at least one stays unclipped. With fewer than two
    unclipped, the clipped range is zero and the batch degenerate."""
    return min(math.ceil(clip_fraction * n), n - 1)


def preprocess_bounds(raw, clip_fraction=DEFAULT_CLIP_FRACTION):
    """preprocess's order statistics of a loss batch: (l_min, l_max,
    degenerate), the smallest loss, the largest one left unclipped, and
    whether the clipped range is zero."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 0:
        raise ValueError("empty loss batch")
    if not 0.0 <= clip_fraction < 1.0:
        raise ValueError("clip_fraction must lie in [0, 1)")
    n = raw.size
    l_min, l_max = np.sort(raw)[[0, n - 1 - losses_to_clip(n, clip_fraction)]].tolist()  # the sorted copy dies here
    return l_min, l_max, l_max <= l_min


def rescale(raw, l_min, l_max):
    """preprocess's elementwise transform of a non-degenerate batch's bounds:
    each loss clipped to l_max, shifted by l_min and scaled by the range, in
    one new array."""
    transformed = np.minimum(raw, l_max)
    transformed -= l_min
    transformed /= l_max - l_min
    return transformed


def preprocess(raw, clip_fraction=DEFAULT_CLIP_FRACTION):
    """Clip the top ceil(clip_fraction*B) losses, shift by the min, scale to [0, 1].

    Returns (transformed, stats). A degenerate batch (zero range after
    clipping) maps to all zeros with stats.degenerate set; downstream this
    sends the all-zeros codeword, whose gradient contribution is a scaled
    score mean and therefore vanishes in expectation.
    """
    raw = np.asarray(raw, dtype=np.float64)
    l_min, l_max, degenerate = preprocess_bounds(raw, clip_fraction)
    stats = PreprocessStats(l_min, l_max, int(np.count_nonzero(raw > l_max)), degenerate)
    return (np.zeros_like(raw) if degenerate else rescale(raw, l_min, l_max)), stats


def level_indices(l, cfg):
    """Cell index floor(l/delta), clamped into {0, ..., 2^q - 1}.

    Values at interior thresholds fall in the upper cell (floor semantics);
    the clamp puts l = 1 (and anything beyond the range) in the end cells.
    Losses are clipped to [0, 1] before the division, so no quotient
    overflows and no cell past 2^q wraps in the cast.
    """
    cells = np.floor(np.clip(np.asarray(l, dtype=np.float64), 0.0, 1.0) / cfg.delta)
    return np.minimum(cells.astype(np.int64), cfg.num_levels - 1)


def quantize_value(l, cfg):
    """Reconstruction value of the (clamped) cell of l."""
    return cfg.reconstruct(level_indices(l, cfg))


def indices_to_bits(indices, cfg):
    """Natural binary encoding of level indices, MSB first, shape (..., q)."""
    indices = np.asarray(indices, dtype=np.int64)
    shifts = np.arange(cfg.q_bits - 1, -1, -1)
    return ((indices[..., None] >> shifts) & 1).astype(np.uint8)


def bits_to_indices(bits, cfg):
    """Level indices of MSB-first bit vectors (bool or integer), shape (...)."""
    bits = np.asarray(bits).astype(np.int64, copy=False)  # uint64 or float bits would not OR into int64
    if bits.shape[-1] != cfg.q_bits:
        raise ValueError(f"expected {cfg.q_bits} bits per value, got {bits.shape[-1]}")
    return pack_bits(bits, np.int64)


def quantize(l, cfg):
    """Quantize l in [0, 1] to (level, bits) with the natural bit mapping."""
    arr = np.asarray(l, dtype=np.float64)
    if not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):  # NaN fails both
        raise ValueError("loss outside [0, 1]")
    idx = level_indices(arr, cfg)
    return cfg.reconstruct(idx), indices_to_bits(idx, cfg)


def dequantize(bits, cfg):
    """Mid-cell reconstruction of the level the bit vector encodes."""
    return cfg.reconstruct(bits_to_indices(bits, cfg))


def feedback_roundtrip(raw, qcfg, bsc_cfg=None, rng=None, clip_fraction=DEFAULT_CLIP_FRACTION):
    """Run a raw loss batch through the full feedback pipeline.

    preprocess -> level codes -> [BSC] -> mid-cell reconstruction. Pass
    bsc_cfg=None (or flip_prob 0) for a noiseless binary link, which draws
    nothing from rng.
    """
    transformed, stats = preprocess(raw, clip_fraction)
    codes = received = level_indices(transformed, qcfg)
    if bsc_cfg is not None and bsc_cfg.flip_prob > 0.0:
        if rng is None:
            raise ValueError("a noisy feedback link needs an rng")
        received = bsc(codes, qcfg.q_bits, bsc_cfg.flip_prob, rng)
    return LossBatch(transformed, qcfg.reconstruct(codes), qcfg.reconstruct(received), stats)


def distortion(losses, cfg):
    """Mean squared quantization error over a batch of losses in [0, 1]."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("empty loss batch")
    err = losses - quantize(losses, cfg)[0]
    return float(np.mean(err * err))


def linear_gain(losses, levels, var):
    """The Bussgang gain g = Cov(l, Q(l)) / Var(l) of losses l and their
    quantized values levels = Q(l), given var = Var(l) > 0."""
    return gain_of_means(losses.mean(), np.mean(levels), np.mean(losses * levels), var)


def gain_of_means(loss_mean, level_mean, product_mean, var):
    """The Bussgang gain from the means of l, Q(l) and l * Q(l) and Var(l) > 0."""
    return float((product_mean - loss_mean * level_mean) / var)


def error_bound(g, cfg):
    """The quantization-error bound w_bar = |1 - 1/2^(q-1) - g| of gain g."""
    return abs(1.0 - 1.0 / 2 ** (cfg.q_bits - 1) - g)


def bussgang_gain(losses, cfg):
    """Plug-in estimate of the linear gain g in Q(l) = g*l + w.

    g is the covariance of (l, Q(l)) over the loss variance; the residual w
    is uncorrelated with l by construction. Losses need not lie in [0, 1]:
    out-of-range values land in the end cells of the quantizer.
    """
    losses = np.asarray(losses, dtype=np.float64)
    var = losses.var()
    if var <= 0.0:
        raise ValueError("zero-variance loss batch")
    q = quantize_value(losses, cfg)
    g = linear_gain(losses, q, var)
    w = q - g * losses
    return BussgangEstimate(g=g, w_mean=float(w.mean()), w_var=float(w.var()), w_bar=error_bound(g, cfg))


def gaussian_one_bit_gain(loss_var):
    """Closed-form 1-bit Bussgang gain for Gaussian losses centered at 1/2.

    With the threshold of the (clamped) 1-bit quantizer at the loss mean,
    Cov(l, Q(l)) = sigma/sqrt(2*pi) * (high - low) and the gain reduces to
    1/sqrt(8*pi*loss_var). At loss_var = 1/(8*pi) the gain is exactly 1.
    """
    if loss_var <= 0.0:
        raise ValueError("loss_var must be positive")
    return 1.0 / math.sqrt(8.0 * math.pi * loss_var)


def loss_transform(l, kind, beta):
    """Elementary loss shaping: clip to beta, subtract baseline beta, or scale by beta."""
    l = np.asarray(l, dtype=np.float64)
    if kind == CLIP:
        return np.minimum(l, beta)
    if kind == BASELINE:
        return l - beta
    if kind == SCALE:
        return beta * l
    raise ValueError(f"unknown transform kind {kind!r}")
