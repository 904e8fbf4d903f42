"""Reference rules the tests check the library against, which no command runs.

The bit-vector path spells out the natural binary mapping that the library's
level codes carry through channels.bsc; loss_transform holds the elementary
loss shapings criterion 3 checks; the closed forms are the exact values the
Monte Carlo estimates are compared with.
"""

import math

import numpy as np

from qflearn.channels import pack_bits
from qflearn.feedback import level_indices

CLIP = "clip"
BASELINE = "baseline"
SCALE = "scale"


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


def distortion(losses, cfg):
    """Mean squared quantization error over a batch of losses in [0, 1]."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("empty loss batch")
    err = losses - quantize(losses, cfg)[0]
    return float(np.mean(err * err))


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


def qam16_ser_closed_form(snr_db):
    """Textbook symbol error probability of Gray-agnostic 16-QAM over AWGN.

    SER = 1 - (1 - 1.5*Qf(sqrt(SNR/5)))^2 with Qf the Gaussian tail; the SNR
    is the linear ratio of average symbol power to total noise variance.
    """
    snr = 10.0 ** (snr_db / 10.0)
    arg = math.sqrt(snr / 5.0)
    qf = 0.5 * math.erfc(arg / math.sqrt(2.0))
    return 1.0 - (1.0 - 1.5 * qf) ** 2


def score_coordinate_std(jac, sigma_p_sq):
    """Exact per-parameter standard deviation of the score under the policy.

    Coordinate i of the score is J[m, 0, i]*u_0 + J[m, 1, i]*u_1 with u
    components independent N(0, 2/sigma_p_sq) and m uniform, so the variance
    is (2/sigma_p_sq) * mean_m (J[m, 0, i]^2 + J[m, 1, i]^2).
    """
    second = (jac**2).sum(axis=1).mean(axis=0)  # (P,)
    return np.sqrt(2.0 / sigma_p_sq * second)
