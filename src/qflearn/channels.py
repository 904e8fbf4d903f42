"""Forward channel models (AWGN, nonlinear phase noise) and the BSC feedback link.

Unit convention: symbol amplitudes are in sqrt(mW), so |x|^2 is a power in mW
and dBm values convert via 10^(dBm/10). The nonlinearity coefficient is in
rad/W/km, so the phase rotation converts |x|^2 from mW to W internally.
A sigma_sq_dbm of -inf gives an exactly noiseless channel (test hook).
"""

import math
from dataclasses import dataclass

import numpy as np

AWGN = "awgn"
NLPN = "nlpn"


def dbm_to_mw(dbm):
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw):
    return 10.0 * np.log10(mw)


@dataclass
class ChannelConfig:
    family: str  # "awgn" | "nlpn"
    sigma_sq_dbm: float  # total noise power, dBm
    P_dbm: float  # signal power, dBm
    gamma: float = 0.0  # rad/W/km, NLPN only
    L_km: float = 0.0  # link length, NLPN only
    K: int = 1  # NLPN recursion steps

    def __post_init__(self):
        if self.family not in (AWGN, NLPN):
            raise ValueError(f"unknown channel family {self.family!r}")
        # sigma_sq_dbm = -inf is the noiseless hook; NaN and +inf fail the comparison.
        if not (self.sigma_sq_dbm < math.inf and all(map(math.isfinite, (self.P_dbm, self.gamma, self.L_km)))):
            raise ValueError("P_dbm, gamma and L_km must be finite, sigma_sq_dbm finite or -inf")
        if self.family == NLPN:
            if self.gamma < 0.0 or self.L_km <= 0.0 or self.K < 1:
                raise ValueError("NLPN needs gamma >= 0, L_km > 0, K >= 1")

    @property
    def sigma_sq_mw(self):
        return dbm_to_mw(self.sigma_sq_dbm)

    @property
    def P_mw(self):
        return dbm_to_mw(self.P_dbm)

    @property
    def snr_db(self):
        return self.P_dbm - self.sigma_sq_dbm


def complex_gaussian(shape, variance, rng):
    """Circularly-symmetric complex Gaussian samples with total variance `variance`."""
    if variance == 0.0:
        return np.zeros(shape, dtype=np.complex128)
    s = np.sqrt(variance / 2.0)
    return rng.normal(0.0, s, shape) + 1j * rng.normal(0.0, s, shape)


def awgn(x, cfg, rng):
    """y = x + n with n circularly-symmetric Gaussian of total variance sigma^2."""
    x = np.asarray(x, dtype=np.complex128)
    return x + complex_gaussian(x.shape, cfg.sigma_sq_mw, rng)


# Most normals one nlpn noise draw may hold (64 KB). A batch of 64 draws all
# K = 50 steps at once; the 10^4-symbol SER estimate inside training and
# larger inputs draw one step at a time, so their peak memory stays as it was.
_NLPN_DRAW_NORMALS = 2**13


def _step_noise(steps, shape, variance, rng):
    """Noise of `steps` consecutive nlpn steps, shape (steps,) + shape.

    One (steps, 2) + shape draw consumes the generator in the per-step order
    (real then imaginary part of step 1, then step 2, ...), so the values do
    not depend on how the K steps are split into blocks.
    """
    if variance == 0.0:
        return np.zeros((steps,) + shape, dtype=np.complex128)
    z = rng.normal(0.0, np.sqrt(variance / 2.0), (steps, 2) + shape)
    return z[:, 0] + 1j * z[:, 1]


def nlpn(x, cfg, rng):
    """K-step phase-rotation recursion with per-step noise variance sigma^2/K.

    Each step rotates by L*gamma*|x|^2/K with |x|^2 converted from mW to W
    (gamma is per W), then adds the step noise. The noise is drawn in blocks
    of steps, never of samples, so every output bit and the generator state
    match a draw per step.
    """
    x = np.asarray(x, dtype=np.complex128)
    step_var = cfg.sigma_sq_mw / cfg.K
    phase_coeff = cfg.L_km * cfg.gamma * 1e-3 / cfg.K  # rad per mW
    block = max(1, _NLPN_DRAW_NORMALS // (2 * max(x.size, 1)))
    out = x.copy()
    for k in range(cfg.K):
        out = out * np.exp(1j * phase_coeff * np.abs(out) ** 2)
        if k % block == 0:
            noise = _step_noise(min(block, cfg.K - k), x.shape, step_var, rng)
        out = out + noise[k % block]
    return out


def propagate(x, cfg, rng):
    """Dispatch to the configured channel family."""
    if cfg.family == AWGN:
        return awgn(x, cfg, rng)
    return nlpn(x, cfg, rng)


@dataclass
class BscConfig:
    flip_prob: float

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5]")


def bsc(bits, cfg, rng):
    """Flip each bit independently with probability cfg.flip_prob."""
    bits = np.asarray(bits, dtype=np.uint8)
    if cfg.flip_prob == 0.0:
        return bits.copy()
    flips = rng.random(bits.shape) < cfg.flip_prob
    return bits ^ flips.astype(np.uint8)
