"""SER measurement, ML baselines, decision regions, and the gradient-scaling
verification harness.

The harness checks, by Monte Carlo, the two theoretical claims the feedback
scheme rests on: quantizing pre-processed losses scales the expected policy
gradient by the Bussgang gain g (with a variance bound involving the maximum
quantization error and the Fisher trace), and flipping feedback bits with
probability p scales it further by (1 - 2p). Everything runs on a frozen
transceiver, where the score of a sampled symbol factors through the
constellation Jacobian: s_k = J[m_k]^T u_k with u_k = 2 w_k / sigma_p^2.
That factorization keeps a 10^6-sample study near 30 MB, not a 12 GB score
matrix (tracemalloc: a 9.4 MB sample set, each check at most 20.3 MB over
it; the eval_mc benchmark process peaks near 79 MB), and a sample keeps 9
bytes: w is replayed, not stored.
"""

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channels import BscConfig, _fold_behind, bsc, propagate
from .feedback import (
    DEFAULT_CLIP_FRACTION,
    QuantizerConfig,
    error_bound,
    level_indices,
    linear_gain,
    preprocess,
)
from .neuralnet import _forward
from .transceiver import (
    complex_to_real,
    constellation,
    constellation_jacobian,
    cross_entropy_losses,
    exploration_noise,
    exploration_variance,
    perturb,
    real_to_complex,
    receive,
    score_upstream,
)

DEFAULT_CHUNK = 65_536
# Rows per receiver forward pass over a large batch: one 65,536-row pass
# peaks at about 70 MB and runs out of cache. A row's output bits do
# not depend on the pass size from about 80 rows up (16 messages), but below
# that BLAS takes another kernel, so no pass is cut shorter than this.
# 262,144 rows took 217, 226, 226, 234 and 260 ms in passes of 512, 1,024,
# 2,048, 4,096 and 8,192 rows, so short passes hold a small tape for free.
RECEIVE_ROWS = 1024


def _chunks(total, chunk=DEFAULT_CHUNK):
    """Consecutive slices of at most chunk items that cover range(total).

    Every Monte Carlo loop walks these, so each chunk draws from its
    generator in the same order whatever the loop computes.
    """
    for start in range(0, total, chunk):
        yield slice(start, min(start + chunk, total))


def _pass_rows(total):
    """The row slices of the receiver passes over total rows: RECEIVE_ROWS
    to 2 * RECEIVE_ROWS - 1 consecutive rows each (one pass when total is
    shorter), the parts np.array_split cuts."""
    passes = max(total // RECEIVE_ROWS, 1)
    size, longer = divmod(total, passes)
    bounds = [k * size + min(k, longer) for k in range(passes + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _receive_passes(rx, y):
    """(rows, probs) of each receiver pass over y (_pass_rows), where probs
    is what receive(rx, y[rows]) returns without its tape, so no caller
    holds the probabilities of every row."""
    for rows in _pass_rows(len(y)):
        yield rows, receive(rx, y[rows])[0]


def binomial_stderr(p_hat, n):
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


@dataclass
class SerResult:
    ser: float
    stderr: float
    num_symbols: int
    num_errors: int
    p_dbm: float
    snr_db: float


def estimate_ser(tx, rx, channel_cfg, num_messages, num_symbols, rng):
    """Symbol error rate of the frozen transceiver over the channel.

    Messages are uniform, the transmitter is unperturbed, and the symbols
    come from the constellation normalized to the channel's power setting,
    so sweeping power re-normalizes the constellation to each operating
    point. Decisions are the receiver argmax (see ReceiverDetector).
    """
    points = real_to_complex(constellation(tx, num_messages, channel_cfg.P_mw))
    return detector_ser(points, ReceiverDetector(rx), channel_cfg, num_symbols, rng)


class ReceiverDetector:
    """The learned receiver's decisions: argmax of its output (lowest index wins ties)."""

    def __init__(self, rx):
        self.rx = rx

    def decide(self, y):
        return np.concatenate([np.argmax(probs, axis=1) for _, probs in _receive_passes(self.rx, y)])


class ExactAwgnDetector:
    """Maximum-likelihood detection for AWGN: nearest constellation point."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=np.complex128)

    def decide(self, y):
        y = np.asarray(y, dtype=np.complex128)
        return _first_best((-(np.abs(y - point) ** 2) for point in self.points), y.shape)


def _first_best(scores, shape):
    """Index of the largest of one score array per point, elementwise; the
    lowest index wins ties. Holds one point's scores at a time."""
    choice = np.zeros(shape, dtype=np.intp)
    best = np.full(shape, -math.inf)
    for m, score in enumerate(scores):
        better = score > best
        best[better] = score[better]
        choice[better] = m
    return choice


# Radii within this relative distance share a ring table: a rotated
# constellation's ring members can differ in |x| by an ulp.
RING_RTOL = 1e-12


def _rings(radii):
    """Each radius's ring index, and each ring's radius (that of its first
    member), rings numbered in order of first appearance."""
    ring_radii, ring_of = [], []
    for r in radii:
        for k, ring_r in enumerate(ring_radii):
            if abs(r - ring_r) <= RING_RTOL * max(r, ring_r):
                break
        else:
            k = len(ring_radii)
            ring_radii.append(r)
        ring_of.append(k)
    return ring_of, ring_radii


class SampledNlpnDetector:
    """Likelihood tables fitted from channel draws, for the NLPN channel,
    whose density has no closed form.

    The NLPN channel is rotation-covariant: its phase shift depends only on
    |x| and its circular noise is rotation-invariant, so
    p(y | x) = p(y * conj(x) / |x| | |x| + 0j). One table per ring (distinct
    |x|) therefore serves every point on it. A ring's table estimates the
    density of y given the real point |x| + 0j on a common square 2-d
    histogram grid, with add-one smoothing so no cell has zero likelihood.
    Detection rotates y into each point's frame and picks the point whose
    ring table is largest at the rotated y's cell (lowest index wins ties).
    Observations outside the grid clamp to the edge cells. A point at the
    origin is its own frame: its ring is circularly symmetric.
    """

    def __init__(self, points, ring_of, log_density, edges):
        self.points = np.asarray(points, dtype=np.complex128)
        self.ring_of = ring_of  # each point's table
        self.log_density = log_density  # (rings, bins, bins)
        self.edges = edges  # (bins + 1,) on both axes
        radii = np.abs(self.points)
        off_origin = radii > 0.0
        self.frames = np.ones_like(self.points)  # y * frame is y in the point's frame
        self.frames[off_origin] = self.points[off_origin].conj() / radii[off_origin]
        # Cell c spans [lower[c], upper[c]); the outer cells reach to infinity.
        self._lower = np.concatenate(([-math.inf], edges[1:-1]))
        self._upper = np.concatenate((edges[1:-1], [math.inf]))

    @classmethod
    def fit(cls, points, channel_cfg, rng, draws_per_point=100_000, bins=100, pad=4.0):
        """One table per ring from draws_per_point channel draws: each
        point's likelihood comes from that many draws, shared across its ring."""
        if draws_per_point < 1:
            raise ValueError("draws_per_point must be >= 1")
        if bins < 1:
            raise ValueError("bins must be >= 1")
        if not 0.0 <= pad < math.inf:
            raise ValueError("pad must be finite and >= 0")
        points = np.asarray(points, dtype=np.complex128)
        radii = np.abs(points)
        ring_of, ring_radii = _rings(radii)
        half = float(np.max(radii)) + pad * math.sqrt(channel_cfg.sigma_sq_mw)
        edges = np.linspace(-half, half, bins + 1)
        log_density = np.empty((len(ring_radii), bins, bins))
        for k, radius in enumerate(ring_radii):
            y = propagate(np.full(draws_per_point, radius, dtype=np.complex128), channel_cfg, rng)
            counts, _, _ = np.histogram2d(y.real, y.imag, bins=(edges, edges))
            log_density[k] = np.log(counts + 1.0)  # add-one smoothing
        return cls(points, ring_of, log_density, edges)

    def _cell(self, v):
        """Each v's cell index along one axis, clamped to the edge cells:
        np.clip(np.searchsorted(edges, v, side="right") - 1, 0, bins - 1).

        The uniform grid's linear estimate of the index is off by at most
        one next to an edge; one comparison with each bound of the
        estimated cell corrects it.
        """
        bins = len(self._lower)
        scale = bins / (self.edges[-1] - self.edges[0])
        c = np.clip((v - self.edges[0]) * scale, 0, bins - 1).astype(np.intp)
        c -= v < self._lower[c]
        c += v >= self._upper[c]
        return c

    def decide(self, y):
        y = np.asarray(y, dtype=np.complex128)
        rotated = ((y * frame, ring) for frame, ring in zip(self.frames, self.ring_of))
        scores = (self.log_density[ring][self._cell(z.real), self._cell(z.imag)] for z, ring in rotated)
        return _first_best(scores, y.shape)


def detector_ser(points, detector, channel_cfg, num_symbols, rng):
    """Monte Carlo SER of a detector over the channel, for uniform messages
    sent as the given complex points."""
    if num_symbols < 1:
        raise ValueError("num_symbols must be >= 1")
    points = np.asarray(points, dtype=np.complex128)
    errors = 0
    for sl in _chunks(num_symbols):
        messages = rng.integers(0, points.size, size=sl.stop - sl.start)
        y = propagate(points[messages], channel_cfg, rng)
        errors += int(np.count_nonzero(detector.decide(y) != messages))
    ser = errors / num_symbols
    return SerResult(
        ser=ser,
        stderr=binomial_stderr(ser, num_symbols),
        num_symbols=num_symbols,
        num_errors=errors,
        p_dbm=channel_cfg.P_dbm,
        snr_db=channel_cfg.snr_db,
    )


def qam16(power_mw=1.0):
    """16-QAM constellation with average power power_mw, row-major order."""
    axis = np.array([-3.0, -1.0, 1.0, 3.0])
    re, im = np.meshgrid(axis, axis, indexing="ij")
    points = (re + 1j * im).ravel()
    return points * math.sqrt(power_mw / 10.0)  # E|a+jb|^2 = 10 on the +-1,+-3 grid


def qam16_ser_closed_form(snr_db):
    """Textbook symbol error probability of Gray-agnostic 16-QAM over AWGN.

    SER = 1 - (1 - 1.5*Qf(sqrt(SNR/5)))^2 with Qf the Gaussian tail; the SNR
    is the linear ratio of average symbol power to total noise variance.
    """
    snr = 10.0 ** (snr_db / 10.0)
    arg = math.sqrt(snr / 5.0)
    qf = 0.5 * math.erfc(arg / math.sqrt(2.0))
    return 1.0 - (1.0 - 1.5 * qf) ** 2


@dataclass
class DecisionGrid:
    re: np.ndarray  # (resolution,) axis values
    im: np.ndarray
    labels: np.ndarray  # (len(im), len(re)) message indices, 0-based


def check_grid(bounds, resolution):
    """Raise ValueError unless resolution >= 2 and bounds is a finite (lo, hi) with hi > lo."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    if len(bounds) != 2:
        raise ValueError("bounds must be a [lo, hi] pair")
    lo, hi = bounds
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("bounds must be finite with hi > lo")


def decision_regions(rx, bounds, resolution):
    """Receiver argmax decision at every point of a square grid.

    bounds is (lo, hi) on both axes; resolution is points per axis (>= 2).
    labels[i, j] is the 0-based decision for re[j] + 1j*im[i].
    """
    check_grid(bounds, resolution)
    axis = np.linspace(*bounds, resolution)
    re_grid, im_grid = np.meshgrid(axis, axis, indexing="xy")
    flat = np.stack([re_grid.ravel(), im_grid.ravel()], axis=-1)
    labels = ReceiverDetector(rx).decide(flat).reshape(resolution, resolution)
    return DecisionGrid(re=axis, im=axis.copy(), labels=labels)


# ---------------------------------------------------------------------------
# Gradient-scaling verification harness
# ---------------------------------------------------------------------------


@dataclass
class ScoreSampleSet:
    """Everything needed to reconstruct per-sample policy gradients lazily.

    The score of sample k is jac[messages[k]]^T @ (2*perturbations[k]/sigma_p_sq);
    storing (message, raw loss) and replaying the perturbations instead of
    storing score vectors keeps 10^6 samples at ~9 MB.
    """

    messages: np.ndarray  # (N,) in the smallest unsigned dtype that holds M - 1
    perturbations: np.ndarray  # (N, 2) noise applied, read [rows]; or a ReplayedPerturbations
    raw_losses: np.ndarray  # (N,) receiver cross-entropy per sample
    jac: np.ndarray  # (M, 2, P) constellation Jacobian
    sigma_p_sq: float

    @property
    def num_samples(self):
        return self.messages.size


class ReplayedPerturbations:
    """A collection's (N, 2) exploration noise, read by row slice: states[i], a
    copy of the generator made just before the draw of chunk i (DEFAULT_CHUNK
    rows each), redraws that chunk on a copy of itself, with the same bits. The
    chunk last read is kept until a slice reads up to its end."""

    def __init__(self, states, num_samples, sigma_p_sq):
        self.states, self.num_samples, self.sigma_p_sq = states, num_samples, sigma_p_sq
        self._last = None, None  # (chunk index, its read-only draw)

    def _chunk(self, i):
        if self._last[0] != i:
            rows = min(DEFAULT_CHUNK, self.num_samples - i * DEFAULT_CHUNK)
            w = exploration_noise((rows, 2), self.sigma_p_sq, copy.deepcopy(self.states[i]))
            w.flags.writeable = False
            self._last = i, w
        return self._last[1]

    def __getitem__(self, rows):
        start, stop, step = rows.indices(self.num_samples)
        if step != 1:
            raise ValueError("replayed perturbations are read in row slices of step 1")
        chunks = range(start // DEFAULT_CHUNK, -(-stop // DEFAULT_CHUNK))
        parts = [self._chunk(i)[max(start - i * DEFAULT_CHUNK, 0) : stop - i * DEFAULT_CHUNK] for i in chunks]
        if stop % DEFAULT_CHUNK == 0 or stop == self.num_samples:
            self._last = None, None  # a forward walk reads no more of it
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _gram_blocks(jac):
    """The 2x2 Gram block J[m] J[m]^T of every message, shape (M, 2, 2)."""
    return np.einsum("mcp,mdp->mcd", jac, jac)


def _score_norms_sq(gram, messages, u):
    """||J[m_k]^T u_k||^2 = u_k^T G[m_k] u_k from the Gram blocks G and the
    (n, 2) u: the terms (u_c G_cd) u_d, one gathered coefficient at a time,
    added in c-major order, the bits of einsum("kc,kcd,kd->k", u, G[m], u)."""
    if len(messages) == 1:  # einsum adds a lone sample's four terms pairwise
        return np.einsum("kc,kcd,kd->k", u, gram[messages], u)
    total = 0.0
    for c in range(2):
        for d in range(2):
            term = u[:, c] * gram[messages, c, d]
            total += np.multiply(term, u[:, d], out=term)
    return total


# The share of each chunk's receiver passes a collection leaves to its
# helper thread; the caller, which also draws the next chunk, runs the
# rest. A 10^6-sample collection at one BLAS thread on 2 cores, 10 rounds
# in one process, median of two runs: 0.39 s at a 1/2 share (the caller
# is the critical path), 0.35-0.36 s at 9/16 and 5/8, 0.38 s at 11/16.
# Handing the share over after the caller's own passes instead of before
# them took 0.37 s at 5/8.
_HELPER_PASSES = 5 / 8


def collect_score_samples(tx, rx, channel_cfg, num_messages, num_samples, rng):
    """Sample the exploration policy on a frozen transceiver.

    Uniform messages, constellation symbols, Gaussian perturbation with the
    training exploration variance, channel, receiver cross-entropy per sample.

    Per 65,536-sample chunk the caller draws the messages, saves the replay
    state, perturbs and propagates. It hands the last _HELPER_PASSES of
    the chunk's receiver passes to a helper thread (channels._fold_behind),
    which runs them through the untraced kernel neuralnet._forward while
    the caller runs the first ones and draws the next chunk. The passes
    cut the rows as one serial walk over the chunk would, so every loss
    keeps its bits, and only the caller's thread draws from rng.
    """
    sigma_p_sq = exploration_variance(channel_cfg.P_mw)
    points, jac = constellation_jacobian(tx, num_messages, channel_cfg.P_mw)
    messages = np.empty(num_samples, dtype=np.min_scalar_type(num_messages - 1))
    raw_losses = np.empty(num_samples)
    states = []

    def helper_passes(item):
        losses, m, y, passes = item
        for rows in passes:
            losses[rows] = cross_entropy_losses(_forward(rx, y[rows])[0], m[rows])

    def chunks():
        for sl in _chunks(num_samples):
            messages[sl] = m = rng.integers(0, num_messages, size=sl.stop - sl.start)
            states.append(copy.deepcopy(rng))  # replays the perturbation draw below
            y = propagate(real_to_complex(perturb(points[m], sigma_p_sq, rng)[0]), channel_cfg, rng)
            passes = _pass_rows(len(y))
            split = len(passes) - int(len(passes) * _HELPER_PASSES)
            yield raw_losses[sl], m, complex_to_real(y), passes[split:]
            for rows in passes[:split]:
                raw_losses[sl][rows] = cross_entropy_losses(receive(rx, y[rows])[0], m[rows])

    _fold_behind(helper_passes, chunks())
    return ScoreSampleSet(
        messages=messages,
        perturbations=ReplayedPerturbations(states, num_samples, sigma_p_sq),
        raw_losses=raw_losses,
        jac=jac,
        sigma_p_sq=sigma_p_sq,
    )


@dataclass(frozen=True)
class CodedWeight:
    """A per-sample weight held as one unsigned code per sample, in the
    smallest dtype that holds the largest code, plus the elementwise rule
    that expands codes to the float64 weights.

    It answers the shape, slicing and mean() a float64 weight vector
    answers, with the same bits: a slice expands only its own codes.
    """

    codes: np.ndarray
    expand: Callable

    @property
    def shape(self):
        return self.codes.shape

    def __getitem__(self, index):
        return self.expand(self.codes[index])

    def mean(self):
        return self.expand(self.codes).mean()


def _ones_weight(n):
    """The weight 1.0 on each of n samples, from one shared zero code."""
    return CodedWeight(np.broadcast_to(np.uint8(0), (n,)), lambda codes: np.ones(codes.shape))


def _level_codes(losses, cfg):
    """The q-bit level index of each loss, in the smallest unsigned dtype
    that holds 2^q - 1. cfg.reconstruct expands them to the levels."""
    codes = np.empty(losses.shape, dtype=np.min_scalar_type(cfg.num_levels - 1))
    for sl in _chunks(losses.size):  # no full-length float64 or int64 index copy
        codes[sl] = level_indices(losses[sl], cfg)
    return codes


@dataclass
class ScoreMoments:
    """Weighted score statistics for a set of named per-sample weights.

    means[name] = (1/N) sum_k a_k s_k and weight_means[name] = (1/N) sum_k a_k.
    gram[(a, b)] = (1/N) sum_k a_k b_k ||s_k||^2 for each weight's diagonal
    (a, a) and for the requested pairs, and fourth[name] is the second
    moment of the diagonal's summands (for standard errors). Every variance
    and covariance the scaling checks need is a bilinear combination of these.
    """

    means: dict
    weight_means: dict
    gram: dict
    fourth: dict
    num_samples: int

    def gram_bilinear(self, coeffs_a, coeffs_b):
        """E[(sum_i c_i a_i)(sum_j d_j b_j) ||s||^2] from the pair table."""
        total = 0.0
        for name_a, ca in coeffs_a.items():
            for name_b, cb in coeffs_b.items():
                total += ca * cb * self.gram[_pair_key(name_a, name_b)]
        return total

    def gram_se(self, name):
        second = self.gram[(name, name)]
        var = max(self.fourth[name] - second**2, 0.0)
        return math.sqrt(var / self.num_samples)


def _pair_key(a, b):
    return (a, b) if a <= b else (b, a)


def score_moments(sample_set, weights, pairs=(), chunk=DEFAULT_CHUNK, ready=None):
    """One chunked pass over the samples computing the weighted moments.

    weights maps names to float64 vectors or CodedWeights, whose chunks are
    expanded where they are used. Every weight gets its mean vector, its
    mean and its diagonal gram entry with that entry's fourth moment; pairs
    lists the (a, b) name pairs whose gram entries are accumulated as well.
    Mean vectors are accumulated per message as sum_k a_k u_k and contracted
    with the Jacobian once at the end, so no (N, P) score matrix ever exists.
    Given ready, which yields once per chunk when that chunk's weights are
    final, the chunks are folded on a helper thread (channels._fold_behind)
    while ready makes the next chunk's weights on the caller's thread.
    """
    names = list(weights)
    n = sample_set.num_samples
    for name in names:
        if weights[name].shape != (n,):
            raise ValueError(f"weight vector {name!r} has wrong shape")
    pairs = list(dict.fromkeys(_pair_key(a, b) for a, b in pairs if a != b))
    num_messages = sample_set.jac.shape[0]
    acc_u = {name: np.zeros((num_messages, 2)) for name in names}
    acc_gram = dict.fromkeys([(name, name) for name in names] + pairs, 0.0)
    acc_fourth = dict.fromkeys(names, 0.0)
    gram = _gram_blocks(sample_set.jac)
    acc_bins = np.arange(num_messages)
    u_rows = np.empty((2, min(n, chunk)))  # every chunk's u

    def fold(sl):
        m, noise = sample_set.messages[sl], sample_set.perturbations[sl]
        u = u_rows[:, : len(m)].T  # (n, 2) with contiguous columns
        for c in range(2):
            u[:, c] = score_upstream(noise[:, c], sample_set.sigma_p_sq)
        del noise  # a replayed chunk dies before the chunk's other temporaries
        norms_sq = _score_norms_sq(gram, m, u)
        for a, b in pairs:  # before the bincount buffers exist
            acc_gram[(a, b)] += float((weights[a][sl] * weights[b][sl] * norms_sq).sum())
        # One bincount per component adds the accumulator and then each
        # sample's term in sample order, the same sums in the same order as
        # np.add.at; values holds the accumulator, then the terms.
        bins = np.concatenate([acc_bins, m])
        values = np.empty(bins.size)
        for name in names:
            w = weights[name][sl]
            for c in range(2):
                values[:num_messages] = acc_u[name][:, c]
                np.multiply(w, u[:, c], out=values[num_messages:])
                acc_u[name][:, c] = np.bincount(bins, values, num_messages)
            prod = w * w * norms_sq
            acc_gram[(name, name)] += float(prod.sum())
            acc_fourth[name] += float(np.square(prod, out=prod).sum())

    if ready is None:
        for sl in _chunks(n, chunk):
            fold(sl)
    else:
        _fold_behind(fold, (sl for sl, _ in zip(_chunks(n, chunk), ready)))
    return ScoreMoments(
        means={name: np.einsum("mc,mcp->p", acc_u[name], sample_set.jac) / n for name in names},
        weight_means={name: float(weights[name].mean()) for name in names},
        gram={key: val / n for key, val in acc_gram.items()},
        fourth={name: val / n for name, val in acc_fourth.items()},
        num_samples=n,
    )


def score_coordinate_std(jac, sigma_p_sq):
    """Exact per-parameter standard deviation of the score under the policy.

    Coordinate i of the score is J[m, 0, i]*u_0 + J[m, 1, i]*u_1 with u
    components independent N(0, 2/sigma_p_sq) and m uniform, so the variance
    is (2/sigma_p_sq) * mean_m (J[m, 0, i]^2 + J[m, 1, i]^2).
    """
    second = (jac**2).sum(axis=1).mean(axis=0)  # (P,)
    return np.sqrt(2.0 / sigma_p_sq * second)


@dataclass
class ScalingReport:
    """Result of one expected-gradient scaling check on shared samples.

    grad_ref is the Monte Carlo reference gradient, grad_test the transformed
    one, and the claim under test is grad_test = scale_target * grad_ref.
    mean_gap_norm is ||grad_test - scale_target*grad_ref|| with mean_gap_se
    its one-sigma Monte Carlo scale. Variance fields compare V{gamma_test}
    against the additive bound; var_slack_se combines the bound and estimate
    standard errors in quadrature.
    """

    label: str
    scale_target: float
    fitted_scale: float
    cosine: float
    magnitude_ratio: float
    mean_gap_norm: float
    mean_gap_se: float
    grad_ref: np.ndarray
    grad_test: np.ndarray
    var_test: float
    var_bound: float
    var_slack_se: float
    fisher_trace: float
    num_samples: int
    g_hat: float | None = None
    w_bar: float | None = None


def _variance_of(moments, name, mean):
    """V{a_k s_k} summed over coordinates, with a standard error.

    Equals E[a^2 ||s||^2] - ||mean||^2 (mean passed in, centered by the
    caller); the standard error combines the fourth-moment error of the
    first term with the mean-norm error of the second.
    """
    second = moments.gram[(name, name)]
    var = second - float(mean @ mean)
    se_second = moments.gram_se(name)
    se_mean_term = 2.0 * float(np.linalg.norm(mean)) * math.sqrt(
        max(second, 0.0) / moments.num_samples
    )
    return var, math.sqrt(se_second**2 + se_mean_term**2)


def _centered_mean(moments, name):
    """Control-variate mean estimate of E{w_k s_k}.

    Subtracting mean(w) times the empirical score mean changes nothing in
    expectation (the score is zero-mean under the policy) but cancels the
    dominant noise term, the one proportional to the weight's offset from
    zero. Without it the 1-bit mean estimates drown in score noise at any
    feasible sample count.
    """
    return moments.means[name] - moments.weight_means[name] * moments.means["ones"]


def _preprocessed_losses(sample_set, clip_fraction):
    """The pooled raw losses pre-processed to [0, 1] as in training."""
    pre, stats = preprocess(sample_set.raw_losses, clip_fraction)
    if stats.degenerate:
        raise ValueError("degenerate loss batch: zero range after clipping")
    return pre


def _fisher_trace(moments):
    """Same-sample estimate of tr(J) = E||s||^2, with its standard error."""
    return moments.gram[("ones", "ones")], moments.gram_se("ones")


def _report_pairs(name_test, name_ref):
    """The off-diagonal gram entries _scaling_report reads for one claim."""
    return [(name_test, name_ref), (name_test, "ones"), (name_ref, "ones")]


def _scaling_report(label, target, moments, test, ref, variance, **extra):
    """ScalingReport for the claim mean(test) = target * mean(ref).

    test and ref are (weight name, centered mean) pairs and variance is
    (var_test, var_bound, var_slack_se). The fitted scale is the
    least-squares factor of mean(test) on mean(ref). The mean gap's
    per-sample difference d_k = (a_k - target*b_k - c) s_k, with c the
    matching combination of weight averages, has second moment E||d||^2
    expressible through the gram table; the norm of its mean then carries
    sigma ~ sqrt(E||d||^2 / N) (mean-squared term negligible at the scales
    tested).
    """
    (name_test, mu_test), (name_ref, mu_ref) = test, ref
    offset = moments.weight_means[name_test] - target * moments.weight_means[name_ref]
    coeffs = {name_test: 1.0, name_ref: -target, "ones": -offset}
    gap_second = moments.gram_bilinear(coeffs, coeffs)
    norm_test = float(np.linalg.norm(mu_test))
    norm_ref = float(np.linalg.norm(mu_ref))
    dot = float(mu_test @ mu_ref)
    var_test, var_bound, var_slack_se = variance
    return ScalingReport(
        label=label,
        scale_target=target,
        fitted_scale=dot / norm_ref**2 if norm_ref else 0.0,
        cosine=dot / (norm_test * norm_ref) if norm_test and norm_ref else 0.0,
        magnitude_ratio=norm_test / norm_ref if norm_ref else 0.0,
        mean_gap_norm=float(np.linalg.norm(mu_test - target * mu_ref)),
        mean_gap_se=math.sqrt(max(gap_second, 0.0) / moments.num_samples),
        grad_ref=mu_ref,
        grad_test=mu_test,
        var_test=var_test,
        var_bound=var_bound,
        var_slack_se=var_slack_se,
        fisher_trace=_fisher_trace(moments)[0],
        num_samples=moments.num_samples,
        **extra,
    )


def verify_quantized_gradient_scaling(
    sample_set, q_bits_list=(1, 3, 5), clip_fraction=DEFAULT_CLIP_FRACTION
):
    """Check the Bussgang scaling of the expected gradient under quantization.

    Pre-processes the pooled raw losses to [0, 1], then for each bit width
    compares the quantized-loss gradient against g_hat times the
    unquantized-loss gradient on the same samples, and evaluates the
    variance bound g^2 V{gamma} + (g*w_bar + w_bar^2) * tr(J). Mean
    estimates are centered (see _centered_mean); variances are of the
    uncentered per-sample gradients, which is what the bound speaks about.
    The quantized losses are held as level codes (see CodedWeight).

    Returns {q_bits: ScalingReport}.
    """
    pre = _preprocessed_losses(sample_set, clip_fraction)
    pre_var = pre.var()
    weights = {"ones": _ones_weight(pre.size), "perfect": pre}
    pairs = []
    gains = {}
    for q in q_bits_list:
        cfg = QuantizerConfig(q)
        codes = _level_codes(pre, cfg)
        weights[f"q{q}"] = CodedWeight(codes, cfg.reconstruct)
        pairs += _report_pairs(f"q{q}", "perfect")
        # feedback.bussgang_gain's g and w_bar, from the codes already held;
        # the levels die with the call, so one bit width's are alive at a time
        g = linear_gain(pre, cfg.reconstruct(codes), pre_var, overwrite_levels=True)
        gains[q] = g, error_bound(g, cfg)
    moments = score_moments(sample_set, weights, pairs)
    fisher, fisher_se = _fisher_trace(moments)
    mu_ref = _centered_mean(moments, "perfect")
    var_ref, var_ref_se = _variance_of(moments, "perfect", mu_ref)
    reports = {}
    for q in q_bits_list:
        g, w_bar = gains[q]
        name = f"q{q}"
        mu_q = _centered_mean(moments, name)
        var_q, var_q_se = _variance_of(moments, name, mu_q)
        coeff = g * w_bar + w_bar**2
        bound = g**2 * var_ref + coeff * fisher
        slack_se = math.sqrt(var_q_se**2 + (g**2 * var_ref_se) ** 2 + (coeff * fisher_se) ** 2)
        reports[q] = _scaling_report(
            f"quantized_{q}bit", g, moments, (name, mu_q), ("perfect", mu_ref),
            (var_q, bound, slack_se), g_hat=g, w_bar=w_bar,
        )
    return reports


def _mean_level(cfg, flip_draws):
    """The rule expanding a sum of flip_draws level codes to the level of
    their mean, cfg.reconstruct(sums / flip_draws) in one float64 array."""

    def expand(sums):
        levels = sums / flip_draws
        return np.add(np.multiply(levels, cfg.delta, out=levels), cfg.delta / 2.0, out=levels)

    return expand


def check_bitflip_claim(q_bits_list, flip_probs):
    """Raise ValueError unless every p is a BscConfig flip probability and
    every q a bit width the (1 - 2p) scaling is claimed for."""
    for p in flip_probs:
        BscConfig(p)
    if bad := [q for q in q_bits_list if q not in (1, 2)]:
        raise ValueError(f"the (1 - 2p) scaling is only claimed for 1- or 2-bit quantizers; got q_bits={bad}")


def verify_bitflip_gradient_scaling(
    sample_set,
    rng,
    q_bits_list=(1, 2),
    flip_probs=(0.1, 0.2, 0.3),
    clip_fraction=DEFAULT_CLIP_FRACTION,
    flip_draws=8,
):
    """Check the (1 - 2p) scaling under a binary symmetric feedback channel.

    For each (q, p) the quantized bit vectors are flipped with fresh
    randomness, dequantized, and the resulting gradient compared against
    (1 - 2p) times the quantized-loss gradient on the same samples. The
    mean-side estimates average flip_draws independent flip realizations
    per sample (the expectation under test is over flip randomness too, so
    extra draws are plain Monte Carlo, and they cut the dominant noise
    term). For 1-bit quantization the variance bound
    V{gamma_q} + 4p(1-p)||grad_q||^2 + p*tr(J) is evaluated as well, on a
    single flip realization since the bound is about per-sample spread
    (bound fields are NaN for other bit widths, where no bound is claimed).
    Each chunk's sent codes go through channels.bsc on the caller's thread,
    every (q, p, draw) block drawing from its own copy of rng moved to where
    the serial loop over the blocks would start it, while a helper thread
    folds the chunk before into the moments. rng must be a PCG64 generator,
    and it ends where that loop leaves it. Every weight is held as level
    codes or their sum over the draws (see CodedWeight).

    Returns {(q_bits, p): ScalingReport}.
    """
    check_bitflip_claim(q_bits_list, flip_probs)
    if flip_draws < 1:
        raise ValueError("flip_draws must be >= 1")
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ValueError(f"flip draws are addressed by PCG64 stream position; got {type(rng.bit_generator).__name__}")
    if not (q_bits_list and flip_probs):
        return {}
    pre = _preprocessed_losses(sample_set, clip_fraction)
    n = pre.size
    sent_codes = [_level_codes(pre, QuantizerConfig(q)) for q in q_bits_list]
    del pre  # every flip draw starts from the sent codes
    weights = {"ones": _ones_weight(n)}
    pairs = []
    blocks = []  # per (q, p, draw): sent codes, q, p, the codes its draws add into, its generator
    offset = 0  # where the block's draws start in the stream: one 64-bit output per flip bit
    for q, sent in zip(q_bits_list, sent_codes):
        cfg = QuantizerConfig(q)
        weights[f"q{q}"] = CodedWeight(sent, cfg.reconstruct)
        for p in flip_probs:
            targets = [np.zeros(n, dtype=np.min_scalar_type(flip_draws * (cfg.num_levels - 1)))]
            if q == 1:  # one flip realization, for the variance bound
                targets.append(np.zeros_like(sent))
                weights[f"ev_q{q}_p{p}"] = CodedWeight(targets[1], cfg.reconstruct)
            # The level of the mean index is the mean of the levels. The
            # levels are dyadic, so for a power-of-two flip_draws it carries
            # the bits of summing the dequantized draws.
            weights[f"e_q{q}_p{p}"] = CodedWeight(targets[0], _mean_level(cfg, flip_draws))
            pairs += _report_pairs(f"e_q{q}_p{p}", f"q{q}")
            for draw in range(flip_draws):
                gen = np.random.Generator(copy.deepcopy(rng.bit_generator).advance(offset))
                blocks.append((sent, q, p, targets if draw == 0 else targets[:1], gen))
                offset += n * q

    def drawn():
        for sl in _chunks(n):
            for sent, q, p, targets, gen in blocks:
                received = bsc(sent[sl], q, p, gen)
                for codes in targets:
                    codes[sl] += received
            yield

    moments = score_moments(sample_set, weights, pairs, ready=drawn())
    kept = rng.bit_generator.state  # advance clears the buffered 32-bit half
    rng.bit_generator.state = dict(rng.bit_generator.advance(offset).state, has_uint32=kept["has_uint32"], uinteger=kept["uinteger"])
    fisher, fisher_se = _fisher_trace(moments)
    reports = {}
    for q in q_bits_list:
        name_q = f"q{q}"
        mu_q = _centered_mean(moments, name_q)
        norm_q = float(np.linalg.norm(mu_q))
        var_q, var_q_se = _variance_of(moments, name_q, mu_q)
        for p in flip_probs:
            name_e = f"e_q{q}_p{p}"
            if q == 1:
                name_ev = f"ev_q{q}_p{p}"
                var_e, var_e_se = _variance_of(moments, name_ev, _centered_mean(moments, name_ev))
                bound = var_q + 4.0 * p * (1.0 - p) * norm_q**2 + p * fisher
                slack_se = math.sqrt(var_e_se**2 + var_q_se**2 + (p * fisher_se) ** 2)
            else:
                var_e, bound, slack_se = math.nan, math.nan, math.nan
            mu_e = _centered_mean(moments, name_e)
            reports[(q, p)] = _scaling_report(
                f"bitflip_q{q}_p{p}", 1.0 - 2.0 * p, moments, (name_e, mu_e), (name_q, mu_q),
                (var_e, bound, slack_se),
            )
    return reports


def convergence_iteration(metrics, window=20, level_fraction=0.05):
    """First outer iteration where the smoothed transmitter loss reaches
    within level_fraction of its total drop.

    Per-outer-iteration tx losses are averaged, smoothed with a trailing
    window, and compared against end + level_fraction*(start - end), where
    start is the mean of the first 10 outer iterations and end the mean of
    the last 10%. Returns the 1-based outer iteration, or None if the
    threshold is never reached (e.g. the loss never decreases).
    """
    per_outer = {}
    for rec in metrics:
        if rec.phase == "tx":
            per_outer.setdefault(rec.outer_iter, []).append(rec.empirical_loss)
    if not per_outer:
        raise ValueError("no transmitter-phase records in metrics")
    outers = sorted(per_outer)
    series = np.array([np.mean(per_outer[o]) for o in outers])
    n = series.size
    start = series[: min(10, n)].mean()
    tail = max(1, n // 10)
    end = series[-tail:].mean()
    if not start > end:
        return None
    threshold = end + level_fraction * (start - end)
    smoothed = np.empty(n)
    for i in range(n):
        lo = max(0, i - window + 1)
        smoothed[i] = series[lo : i + 1].mean()
    below = np.nonzero(smoothed <= threshold)[0]
    if below.size == 0:
        return None
    return outers[int(below[0])]
