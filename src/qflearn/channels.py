"""Forward channel models (AWGN, nonlinear phase noise) and the BSC feedback link.

Unit convention: symbol amplitudes are in sqrt(mW), so |x|^2 is a power in mW
and dBm values convert via 10^(dBm/10). The nonlinearity coefficient is in
rad/W/km, so the phase rotation converts |x|^2 from mW to W internally.
A sigma_sq_dbm of -inf gives an exactly noiseless channel (test hook).
"""

import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

AWGN = "awgn"
NLPN = "nlpn"


def dbm_to_mw(dbm):
    return 10.0 ** (dbm / 10.0)


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


def _gaussian_parts(shape, variance, rng, lead=()):
    """The real and imaginary parts of circularly-symmetric complex Gaussian
    noise with total variance `variance`: one lead + (2,) + shape draw of
    N(0, variance/2), real parts at index 0 of the 2-axis, imaginary parts
    at index 1. Zero variance draws nothing and gives zeros.

    Each lead index takes the real parts of its `shape` block, then the
    imaginary parts, so the generator is consumed as by one draw of `shape`
    (real parts, then imaginary parts) per lead index, taken in C order.
    """
    if variance == 0.0:
        return np.zeros(lead + (2,) + shape)
    return rng.normal(0.0, np.sqrt(variance / 2.0), lead + (2,) + shape)


def awgn(x, cfg, rng):
    """y = x + n with n circularly-symmetric Gaussian of total variance sigma^2.

    A 2-d x is a stack of channel uses: one (rows, 2, B) draw gives row i the
    noise a call on x[i] would get after calls on x[0], ..., x[i-1].

    The noise parts go straight into the real and imaginary parts of y: the
    bits of x + (re + 1j * im), because rng.normal(0.0, s) computes 0.0 + s * z
    and so never returns -0.0.
    """
    out = np.array(x, dtype=np.complex128)
    lead = out.shape[:1] if out.ndim > 1 else ()
    re, im = np.moveaxis(_gaussian_parts(out.shape[len(lead):], cfg.sigma_sq_mw, rng, lead), len(lead), 0)
    out.real += re
    out.imag += im
    return out


# Most normals one nlpn noise draw of a single channel use may hold (64 KB).
# A batch of 64 draws all K = 50 steps at once; inputs of more than 2,048
# symbols draw one step at a time. A piped call (_NLPN_PIPELINE_SYMBOLS)
# holds at most 3 step blocks at once: the one being stepped, one queued
# and one drawn ahead, under 5 MB at 10^5 symbols.
_NLPN_DRAW_NORMALS = 2**13
# Most normals one draw for a group of whole rows of a stacked (2-d) input
# may hold (512 KB): groups of 10 rows of 64 symbols at K = 50. A whole
# 30 x 64 receiver phase in one group ran no faster and tripled the call's
# transient memory. A row wider than this (B > 655 at K = 50) goes through
# the single-use path row by row.
_NLPN_ROW_GROUP_NORMALS = 2**16


# From this many bytes up NumPy elides the temporary in x * np.exp(...) and
# evaluates it as exp_tmp *= x. With FMA a complex product is not bitwise
# commutative, so the recursion multiplies rot * out from this size up and
# out * rot below it: the bits of x * np.exp(1j * c * np.abs(x) ** 2) at
# every size.
_ELIDE_BYTES = 256 * 1024


def _nlpn_steps(x, cfg, noise_blocks):
    """The K-step recursion on x; noise_blocks yields the step noise as
    _gaussian_parts arrays of consecutive steps, each of shape
    (steps, 2) + x.shape.

    Each step is x <- x * exp(1j * c * |x|^2) + noise, computed in three
    buffers allocated once. The product goes to its own buffer: on a
    1-element array an in-place complex multiply rounds differently. A 0-d
    x gets the bits of the same symbol in a 1-element array. The noise
    parts go straight into the real and imaginary parts of the sum, as in
    awgn.
    """
    phase_coeff = cfg.L_km * cfg.gamma * 1e-3 / cfg.K  # rad per mW
    out = x.copy()
    theta = np.empty(x.shape)
    rot = np.empty(x.shape, dtype=np.complex128)
    prod = np.empty_like(rot)
    factors = (rot, out) if rot.nbytes >= _ELIDE_BYTES else (out, rot)
    rot_re, rot_im, prod_re, prod_im = rot.real, rot.imag, prod.real, prod.imag
    out_re, out_im = out.real, out.imag
    for block in noise_blocks:
        for re, im in block:
            np.abs(out, out=theta)
            np.square(theta, out=theta)
            np.multiply(theta, phase_coeff, out=theta)
            np.cos(theta, out=rot_re)
            np.sin(theta, out=rot_im)
            np.multiply(*factors, out=prod)
            np.add(prod_re, re, out=out_re)
            np.add(prod_im, im, out=out_im)
    return out


# From this many symbols up, a single channel use draws its step noise on a
# helper thread, one step ahead of the recursion (both halves release the
# GIL at these sizes). One NLPN desk call (K = 50), serial against piped,
# 10 alternating pairs per size on 2 cores, best time of each side:
#     4,097 symbols: 13.8 ms against 10.5 ms, piped won 10/10
#    10,000 symbols: 30.1 ms against 22.4 ms, piped won 10/10
#    16,384 symbols: 48.9 ms against 34.3 ms, piped won 10/10
#    65,536 symbols:  245 ms against  139 ms, piped won 10/10
#   100,000 symbols:  336 ms against  189 ms, piped won 10/10
# Smaller inputs, such as training's 64-symbol batches and row groups,
# stay on one thread.
_NLPN_PIPELINE_SYMBOLS = 4_097


class _DrawnAhead:
    """Iterates the blocks of an iterable drawn on a helper thread, at most
    one block queued ahead of the consumer.

    Only the helper iterates the blocks, so a generator behind them sees
    the same calls in the same order as a serial loop. Used as a context
    manager: leaving it, by return or raise, stops the helper and joins
    it. A helper error is raised in the consumer when it reaches the
    block that failed.
    """

    _DONE = object()

    def __init__(self, blocks):
        self._blocks = blocks
        self._queue = queue.Queue(maxsize=1)
        self._stop = threading.Event()
        self._error = None
        self._thread = threading.Thread(target=self._produce, daemon=True)

    def _produce(self):
        # Every put follows a check of the stop flag, so once the flag is
        # set at most one put is still on its way, and the drain in
        # __exit__ leaves room for it: the helper never blocks for good.
        try:
            for block in self._blocks:
                if self._stop.is_set():
                    return
                self._queue.put(block)
        except BaseException as err:  # raised again in the consumer
            self._error = err
        if not self._stop.is_set():
            self._queue.put(self._DONE)

    def __enter__(self):
        self._thread.start()
        return self

    def __iter__(self):
        while (block := self._queue.get()) is not self._DONE:
            yield block
        if self._error is not None:
            raise self._error

    def __exit__(self, *exc):
        self._stop.set()
        try:
            while True:
                self._queue.get_nowait()
        except queue.Empty:
            pass
        self._thread.join()


def _nlpn_use(x, cfg, rng):
    """One channel use, its noise drawn in blocks of steps capped at
    _NLPN_DRAW_NORMALS normals. From _NLPN_PIPELINE_SYMBOLS symbols up
    the blocks are drawn on a helper thread while the recursion runs."""
    step_var = cfg.sigma_sq_mw / cfg.K
    block = max(1, _NLPN_DRAW_NORMALS // (2 * max(x.size, 1)))
    blocks = (_gaussian_parts(x.shape, step_var, rng, (min(block, cfg.K - k),)) for k in range(0, cfg.K, block))
    if x.size < _NLPN_PIPELINE_SYMBOLS:
        return _nlpn_steps(x, cfg, blocks)
    with _DrawnAhead(blocks) as ahead:
        return _nlpn_steps(x, cfg, ahead)


def _nlpn_rows(x, cfg, rng):
    """A group of whole rows of a stacked input, all K steps of every row
    drawn at once: one (rows, K, 2, B) draw."""
    noise = _gaussian_parts(x.shape[1:], cfg.sigma_sq_mw / cfg.K, rng, (len(x), cfg.K))
    return _nlpn_steps(x, cfg, [np.moveaxis(noise, 0, 2)])


def nlpn(x, cfg, rng):
    """K-step phase-rotation recursion with per-step noise variance sigma^2/K.

    Each step rotates by L*gamma*|x|^2/K with |x|^2 converted from mW to W
    (gamma is per W), then adds the step noise. The noise is drawn in blocks
    of steps, never of samples, so every output bit and the generator state
    match a draw per step.

    A 2-d x is a stack of channel uses: row i gets exactly what a call on
    x[i] would get after calls on x[0], ..., x[i-1]. Groups of whole rows
    draw all their K steps at once, (rows, K, 2, B), up to
    _NLPN_ROW_GROUP_NORMALS normals per draw, and run the recursion together.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim < 2:
        return _nlpn_use(x, cfg, rng)
    out = np.empty_like(x)
    rows = _NLPN_ROW_GROUP_NORMALS // (2 * cfg.K * max(math.prod(x.shape[1:]), 1))
    if rows == 0:
        for i, row in enumerate(x):
            out[i] = _nlpn_use(row, cfg, rng)
        return out
    for i in range(0, len(x), rows):
        out[i : i + rows] = _nlpn_rows(x[i : i + rows], cfg, rng)
    return out


def propagate(x, cfg, rng):
    """Dispatch to the configured channel family.

    x is one channel use (a scalar or 1-d) or a stack of consecutive uses
    along its first axis (2-d: one use per row); a stacked call returns and
    draws exactly what one call per row would, in row order.
    """
    if cfg.family == AWGN:
        return awgn(x, cfg, rng)
    return nlpn(x, cfg, rng)


@dataclass
class BscConfig:
    flip_prob: float

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5]")


def pack_bits(bits, dtype):
    """Integers of dtype whose binary digits, MSB first, lie along the last axis of bits."""
    packed = bits[..., 0].astype(dtype)
    for j in range(1, bits.shape[-1]):
        packed <<= 1
        packed |= bits[..., j]
    return packed


def bsc(codes, q_bits, flip_prob, rng):
    """Flip each bit of the q_bits-bit codes independently with probability
    flip_prob. The flips are one rng.random(codes.shape + (q_bits,)) <
    flip_prob draw, made at flip_prob 0 too, packed MSB first into the
    codes' dtype and XOR-ed into the codes."""
    codes = np.asarray(codes)
    return codes ^ pack_bits(rng.random(codes.shape + (q_bits,)) < flip_prob, codes.dtype)
