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
# holds at most 2 step blocks at once: the one being stepped and the one
# being drawn, under 4 MB at 10^5 symbols.
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


def _nlpn_steps(x, cfg):
    """(out, step): out starts as a copy of x, and step(block) runs the
    recursion on out for one _gaussian_parts array of consecutive steps'
    noise, of shape (steps, 2) + x.shape.

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

    def step(block):
        for re, im in block:
            np.abs(out, out=theta)
            np.square(theta, out=theta)
            np.multiply(theta, phase_coeff, out=theta)
            np.cos(theta, out=rot_re)
            np.sin(theta, out=rot_im)
            np.multiply(*factors, out=prod)
            np.add(prod_re, re, out=out_re)
            np.add(prod_im, im, out=out_im)

    return out, step


# From this many symbols up, a single channel use steps its recursion on a
# helper thread, one block behind the caller's noise draws (both halves
# release the GIL at these sizes). One NLPN desk call (K = 50), serial
# against piped, 10 alternating pairs per size on 2 cores, best time of
# each side:
#     4,097 symbols: 10.6 ms against  8.1 ms, piped won 8/10
#    10,000 symbols: 25.3 ms against 18.3 ms, piped won 10/10
#    16,384 symbols: 41.1 ms against 29.2 ms, piped won 10/10
#    65,536 symbols:  188 ms against  118 ms, piped won 10/10
#   100,000 symbols:  294 ms against  173 ms, piped won 10/10
# Smaller inputs, such as training's 64-symbol batches and row groups,
# stay on one thread.
_NLPN_PIPELINE_SYMBOLS = 4_097


# NumPy's OpenBLAS thread-count functions: None until looked up, then
# (get, set), or () without the library.
_BLAS = None
_BLAS_PINS = [0, None]  # pins held, and the thread count the first one saved
_BLAS_LOCK = threading.Lock()


def _openblas():
    """(get, set) of the thread count of the OpenBLAS NumPy's wheel bundles
    (numpy.libs/libscipy_openblas64_*), looked up on first use; None
    without it."""
    global _BLAS
    with _BLAS_LOCK:
        if _BLAS is None:
            import ctypes
            import os

            libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
            names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
            names = [name for name in names if name.startswith("libscipy_openblas64_")]
            lib = ctypes.CDLL(os.path.join(libs, names[0])) if names else None  # the copy NumPy loaded
            blas = [getattr(lib, f"scipy_openblas_{op}_num_threads64_", None) for op in ("get", "set")]
            _BLAS = tuple(blas) if all(blas) else ()
    return _BLAS or None


def _blas_threads():
    """NumPy's OpenBLAS thread count, or None without the library."""
    blas = _openblas()
    return None if blas is None else blas[0]()


def _pin_blas(hold):
    """Hold (True) or release (False) one pin of OpenBLAS to one thread.
    The first pin saves the thread count and the last release restores it,
    so nested and concurrent pipelines restore it once. No-op without the
    library."""
    if (blas := _openblas()) is None:
        return
    get, set_ = blas
    with _BLAS_LOCK:
        if hold and _BLAS_PINS[0] == 0:
            _BLAS_PINS[1] = get()
            set_(1)
        _BLAS_PINS[0] += 1 if hold else -1
        if not hold and _BLAS_PINS[0] == 0:
            set_(_BLAS_PINS[1])


def _fold_behind(fold, items):
    """fold(item) on one helper thread for each of items, which only the
    calling thread iterates, at most one item ahead of the fold: NLPN steps
    behind their noise draws, bit-flip moments behind their flips, the
    collection's receiver passes behind its next chunk. An error on either
    side stops the other; the helper is joined and the error raised here.

    While the helper lives OpenBLAS runs on one thread (_pin_blas): its
    spinning worker contends with the two Python threads for the cores.
    One 10^6-row receiver forward in 1,024-row passes took 0.46 s at one
    BLAS thread and 0.62 s at two on 2 shared cores (medians of 7)."""
    todo, errors = queue.Queue(maxsize=1), []

    def run():
        while (item := todo.get()) is not None:
            try:
                if not errors:
                    fold(item)
            except BaseException as err:  # raised again in the caller
                errors.append(err)
            del item  # dropped before the caller draws the one after next
            todo.task_done()

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    _pin_blas(True)
    try:
        for item in items:
            todo.join()  # the item before is folded
            if errors:
                break
            todo.put(item)
    finally:
        todo.join()
        todo.put(None)
        helper.join()
        _pin_blas(False)
    if errors:
        raise errors[0]


def _nlpn_use(x, cfg, rng):
    """One channel use, its noise drawn in blocks of steps capped at
    _NLPN_DRAW_NORMALS normals. From _NLPN_PIPELINE_SYMBOLS symbols up
    a helper thread steps each block while the caller draws the next."""
    step_var = cfg.sigma_sq_mw / cfg.K
    block = max(1, _NLPN_DRAW_NORMALS // (2 * max(x.size, 1)))
    blocks = (_gaussian_parts(x.shape, step_var, rng, (min(block, cfg.K - k),)) for k in range(0, cfg.K, block))
    out, step = _nlpn_steps(x, cfg)
    if x.size < _NLPN_PIPELINE_SYMBOLS:
        for noise in blocks:
            step(noise)
    else:
        _fold_behind(step, blocks)
    return out


def _nlpn_rows(x, cfg, rng):
    """A group of whole rows of a stacked input, all K steps of every row
    drawn at once: one (rows, K, 2, B) draw."""
    noise = _gaussian_parts(x.shape[1:], cfg.sigma_sq_mw / cfg.K, rng, (len(x), cfg.K))
    out, step = _nlpn_steps(x, cfg)
    step(np.moveaxis(noise, 0, 2))
    return out


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
