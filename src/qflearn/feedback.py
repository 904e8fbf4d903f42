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

from .channels import bsc

CLIP = "clip"
BASELINE = "baseline"
SCALE = "scale"

DEFAULT_CLIP_FRACTION = 0.05


@dataclass
class QuantizerConfig:
    q_bits: int
    l_bar: float = 1.0  # upper end of the quantizer range (1 after pre-processing)

    def __post_init__(self):
        if self.q_bits < 1:
            raise ValueError("q_bits must be >= 1")
        if self.l_bar <= 0.0:
            raise ValueError("l_bar must be positive")

    @property
    def num_levels(self):
        return 2**self.q_bits

    @property
    def delta(self):
        return self.l_bar / self.num_levels

    def reconstruct(self, indices):
        """Mid-cell reconstruction value delta/2 + m*delta of level index m."""
        return self.delta / 2.0 + self.delta * indices

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

    raw: np.ndarray
    transformed: np.ndarray  # in [0, 1]
    levels: np.ndarray  # quantized reconstruction values at the receiver
    bits: np.ndarray  # (B, q) uint8, MSB first
    received_bits: np.ndarray  # after the binary feedback channel
    reconstructed: np.ndarray  # dequantized values used by the transmitter
    stats: PreprocessStats


@dataclass
class BussgangEstimate:
    g: float  # linear-decomposition gain
    w_mean: float  # residual mean
    w_var: float  # residual variance
    w_bar: float  # |1 - 1/2^(q-1) - g| quantization-error bound


def preprocess(raw, clip_fraction=DEFAULT_CLIP_FRACTION):
    """Clip the top ceil(clip_fraction*B) losses, shift by the min, scale to [0, 1].

    Returns (transformed, stats). A degenerate batch (zero range after
    clipping) maps to all zeros with stats.degenerate set; downstream this
    sends the all-zeros codeword, whose gradient contribution is a scaled
    score mean and therefore vanishes in expectation.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 0:
        raise ValueError("empty loss batch")
    if not 0.0 <= clip_fraction < 1.0:
        raise ValueError("clip_fraction must lie in [0, 1)")
    n = raw.size
    # Clip count capped at n-1 so at least one value stays unclipped.
    n_clip = min(int(np.ceil(clip_fraction * n)), n - 1)
    srt = np.sort(raw)
    l_max = float(srt[n - 1 - n_clip])
    l_min = float(srt[0])
    clip_count = int(np.count_nonzero(raw > l_max))
    if l_max <= l_min:
        stats = PreprocessStats(l_min, l_max, clip_count, degenerate=True)
        return np.zeros_like(raw), stats
    clipped = np.minimum(raw, l_max)
    transformed = (clipped - l_min) / (l_max - l_min)
    return transformed, PreprocessStats(l_min, l_max, clip_count)


def level_indices(l, cfg):
    """Cell index floor(l/delta), clamped into {0, ..., 2^q - 1}.

    Values at interior thresholds fall in the upper cell (floor semantics);
    the clamp puts l = l_bar (and anything beyond the range) in the end cells.
    """
    idx = np.floor(np.asarray(l, dtype=np.float64) / cfg.delta).astype(np.int64)
    return np.clip(idx, 0, cfg.num_levels - 1)


def quantize_value(l, cfg):
    """Reconstruction value of the (clamped) cell of l."""
    return cfg.reconstruct(level_indices(l, cfg))


def indices_to_bits(indices, cfg):
    """Natural binary encoding of level indices, MSB first, shape (..., q)."""
    indices = np.asarray(indices, dtype=np.int64)
    shifts = np.arange(cfg.q_bits - 1, -1, -1)
    return ((indices[..., None] >> shifts) & 1).astype(np.uint8)


def bits_to_indices(bits, cfg):
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape[-1] != cfg.q_bits:
        raise ValueError(f"expected {cfg.q_bits} bits per value, got {bits.shape[-1]}")
    weights = 1 << np.arange(cfg.q_bits - 1, -1, -1)
    return (bits * weights).sum(axis=-1)


def quantize(l, cfg):
    """Quantize l in [0, 1] to (level, bits) with the natural bit mapping."""
    arr = np.asarray(l, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > cfg.l_bar):
        raise ValueError(f"loss outside [0, {cfg.l_bar}]")
    idx = level_indices(arr, cfg)
    return cfg.reconstruct(idx), indices_to_bits(idx, cfg)


def dequantize(bits, cfg):
    """Mid-cell reconstruction of the level the bit vector encodes."""
    return cfg.reconstruct(bits_to_indices(bits, cfg))


def feedback_roundtrip(raw, qcfg, bsc_cfg=None, rng=None, clip_fraction=DEFAULT_CLIP_FRACTION):
    """Run a raw loss batch through the full feedback pipeline.

    preprocess -> quantize -> bits -> [BSC] -> dequantize. Pass bsc_cfg=None
    (or flip_prob 0) for a noiseless binary link.
    """
    transformed, stats = preprocess(raw, clip_fraction)
    levels, bits = quantize(transformed, qcfg)
    if bsc_cfg is not None and bsc_cfg.flip_prob > 0.0:
        if rng is None:
            raise ValueError("a noisy feedback link needs an rng")
        received = bsc(bits, bsc_cfg, rng)
    else:
        received = bits.copy()
    reconstructed = dequantize(received, qcfg)
    return LossBatch(
        raw=np.asarray(raw, dtype=np.float64),
        transformed=transformed,
        levels=levels,
        bits=bits,
        received_bits=received,
        reconstructed=reconstructed,
        stats=stats,
    )


def distortion(losses, cfg):
    """Mean squared quantization error over a batch of losses in [0, 1]."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("empty loss batch")
    if np.any(losses < 0.0) or np.any(losses > cfg.l_bar):
        raise ValueError(f"loss outside [0, {cfg.l_bar}]")
    err = losses - quantize_value(losses, cfg)
    return float(np.mean(err * err))


def bussgang_gain(losses, cfg):
    """Plug-in estimate of the linear gain g in Q(l) = g*l + w.

    g is the covariance of (l, Q(l)) over the loss variance; the residual w
    is uncorrelated with l by construction. Losses need not lie in [0, 1]:
    out-of-range values land in the end cells of the quantizer.
    """
    losses = np.asarray(losses, dtype=np.float64)
    mu = losses.mean()
    var = losses.var()
    if var <= 0.0:
        raise ValueError("zero-variance loss batch")
    q = quantize_value(losses, cfg)
    g = float((np.mean(losses * q) - mu * np.mean(q)) / var)
    w = q - g * losses
    w_bar = abs(1.0 - 1.0 / 2 ** (cfg.q_bits - 1) - g)
    return BussgangEstimate(g=g, w_mean=float(w.mean()), w_var=float(w.var()), w_bar=w_bar)


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
