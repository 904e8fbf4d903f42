"""SER measurement, ML baselines, decision regions, and the gradient-scaling
verification harness.

The harness checks, by Monte Carlo, the two theoretical claims the feedback
scheme rests on: quantizing pre-processed losses scales the expected policy
gradient by the Bussgang gain g (with a variance bound involving the maximum
quantization error and the Fisher trace), and flipping feedback bits with
probability p scales it further by (1 - 2p). Everything runs on a frozen
transceiver, where the score of a sampled symbol factors through the
constellation Jacobian: s_k = J[m_k]^T u_k with u_k = 2 w_k / sigma_p^2.
That factorization keeps a 10^6-sample study near 20 MB, not a 12 GB score
matrix (tracemalloc: a 9.4 MB sample set; both claims in one pass 9.7 MB
over it, either claim alone 8.0 MB, nearly all of it the sorted copy that
takes the pre-processing bounds; the eval_mc benchmark process peaks near
69 MB), and a sample keeps 9 bytes: w is replayed, not stored. No weight
is held at full length: the checks make their weights chunk by chunk.
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
    gain_of_means,
    level_indices,
    preprocess_bounds,
    rescale,
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


def _chunks(total):
    """Consecutive slices of at most DEFAULT_CHUNK items that cover range(total).

    Every Monte Carlo loop walks these, so each chunk draws from its
    generator in the same order whatever the loop computes.
    """
    for start in range(0, total, DEFAULT_CHUNK):
        yield slice(start, min(start + DEFAULT_CHUNK, total))


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
# SampledNlpnDetector.fit's square grid: cells per axis, and how many noise
# standard deviations it reaches past the largest radius.
FIT_BINS = 100
FIT_PAD = 4.0


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
    def fit(cls, points, channel_cfg, rng, draws_per_point=100_000):
        """One table per ring from draws_per_point channel draws: each
        point's likelihood comes from that many draws, shared across its
        ring. The grid has FIT_BINS cells per axis and reaches FIT_PAD noise
        standard deviations past the largest radius."""
        if draws_per_point < 1:
            raise ValueError("draws_per_point must be >= 1")
        points = np.asarray(points, dtype=np.complex128)
        radii = np.abs(points)
        ring_of, ring_radii = _rings(radii)
        half = float(np.max(radii)) + FIT_PAD * math.sqrt(channel_cfg.sigma_sq_mw)
        edges = np.linspace(-half, half, FIT_BINS + 1)
        log_density = np.empty((len(ring_radii), FIT_BINS, FIT_BINS))
        for k, radius in enumerate(ring_radii):
            # The ring's one radius, broadcast: propagate copies it into its own buffer.
            y = propagate(np.broadcast_to(np.complex128(radius), (draws_per_point,)), channel_cfg, rng)
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
    perturbations: np.ndarray  # (N, 2) noise applied, read one _chunks slice at a time; or a ReplayedPerturbations
    raw_losses: np.ndarray  # (N,) receiver cross-entropy per sample
    jac: np.ndarray  # (M, 2, P) constellation Jacobian
    sigma_p_sq: float

    @property
    def num_samples(self):
        return self.messages.size


class ReplayedPerturbations:
    """A collection's (N, 2) exploration noise, read one whole collection
    chunk at a time: rows [i * DEFAULT_CHUNK, min((i + 1) * DEFAULT_CHUNK, N))
    are redrawn from states[i], a copy of the generator made just before the
    draw of chunk i, on a copy of itself, with the same bits. Any other
    slice raises ValueError."""

    def __init__(self, states, num_samples, sigma_p_sq):
        self.states, self.num_samples, self.sigma_p_sq = states, num_samples, sigma_p_sq

    def __getitem__(self, rows):
        start, stop, step = rows.indices(self.num_samples)
        i = start // DEFAULT_CHUNK
        if (start, stop, step) != (i * DEFAULT_CHUNK, min(start + DEFAULT_CHUNK, self.num_samples), 1):
            raise ValueError("replayed perturbations are read one whole collection chunk at a time")
        return exploration_noise((stop - start, 2), self.sigma_p_sq, copy.deepcopy(self.states[i]))


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


# NumPy sums a contiguous float64 vector pairwise (pairwise_sum in its
# loops_utils.h.src): a block of at most this many values in one unrolled
# leaf, a longer one as the sum of its first n/2 values, rounded down to a
# multiple of 8, and the rest.
_PAIRWISE_LEAF = 128


class PairwiseSum:
    """np.add.reduce of a float64 vector of total values given in
    consecutive chunks, with the bits of one reduction over the whole
    vector: NumPy's pairwise tree replayed over the chunks. A node inside
    one chunk is one reduction of its slice, a node across a chunk boundary
    adds its two halves once both are in, and a leaf across one keeps its
    values until its last arrives. Holds a few hundred values at most."""

    def __init__(self, total):
        self.total, self.seen, self.sum = total, 0, 0.0
        self._done = {}  # (start, size): the sum of a half whose other half is not in yet
        self._leaf = []  # the parts so far of a leaf across a chunk boundary

    def add(self, values):
        if len(values):
            root = self._node(0, self.total, values, self.seen)
            self.seen += len(values)
            if root is not None:
                self.sum = 0.0 + root  # the reduction starts from add's identity

    def mean(self):
        """np.mean of the whole vector, once every value is in."""
        return self.sum / self.total

    def _node(self, start, size, values, offset):
        """The sum of values [start, start + size) of the vector once its
        last value is in; values holds [offset, offset + len(values))."""
        end, stop = start + size, offset + len(values)
        if end <= offset:
            return self._done.pop((start, size))
        if start >= stop:
            return None
        if offset <= start and end <= stop:
            return np.add.reduce(values[start - offset : end - offset])
        if size <= _PAIRWISE_LEAF:
            self._leaf.append(values[max(start - offset, 0) : end - offset].copy())
            if end > stop:
                return None
            parts, self._leaf = self._leaf, []
            return np.add.reduce(np.concatenate(parts))
        half = size // 2 - size // 2 % 8
        left = self._node(start, half, values, offset)
        right = self._node(start + half, size - half, values, offset)
        if right is None:
            if left is not None:
                self._done[(start, half)] = left
            return None
        return left + right


@dataclass(frozen=True)
class CodedWeight:
    """A chunk's per-sample weight held as one unsigned code per sample, in
    the smallest dtype that holds the largest code, plus the elementwise
    rule that expands codes to the float64 weights. weight[:] expands it,
    as it reads a float64 weight vector."""

    codes: np.ndarray
    expand: Callable

    def __getitem__(self, index):
        return self.expand(self.codes[index])


def _level_codes(losses, cfg):
    """The q-bit level index of each loss, in the smallest unsigned dtype
    that holds 2^q - 1. cfg.reconstruct expands them to the levels."""
    return level_indices(losses, cfg).astype(np.min_scalar_type(cfg.num_levels - 1))


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


def score_moments(sample_set, weights_of, pairs=()):
    """One pass over the samples' collection chunks (_chunks) computing the
    weighted moments.

    weights_of(sl) maps names, the same for every chunk, to the chunk sl's
    weights: float64 vectors or CodedWeights, which are expanded where they
    are used. It runs on the calling thread, chunk after chunk, while a
    helper thread folds the chunk before (channels._fold_behind). Every
    weight gets its mean vector, its mean (a PairwiseSum, with the bits of
    the whole vector's mean) and its diagonal gram entry with that entry's
    fourth moment; pairs lists the (a, b) name pairs whose gram entries are
    accumulated as well. Mean vectors are accumulated per message as
    sum_k a_k u_k and contracted with the Jacobian once at the end, so no
    (N, P) score matrix ever exists.
    """
    n = sample_set.num_samples
    pairs = list(dict.fromkeys(_pair_key(a, b) for a, b in pairs if a != b))
    num_messages = sample_set.jac.shape[0]
    acc_u, acc_sum, acc_fourth = {}, {}, {}  # filled with the first chunk's names
    acc_gram = dict.fromkeys(pairs, 0.0)
    gram = _gram_blocks(sample_set.jac)
    acc_bins = np.arange(num_messages)
    u_rows = np.empty((2, min(n, DEFAULT_CHUNK)))  # every chunk's u

    def fold(item):
        sl, chunk_weights = item
        if not acc_u:
            for name in chunk_weights:
                acc_u[name], acc_sum[name] = np.zeros((num_messages, 2)), PairwiseSum(n)
                acc_gram[(name, name)] = acc_fourth[name] = 0.0
        m, noise = sample_set.messages[sl], sample_set.perturbations[sl]
        u = u_rows[:, : len(m)].T  # (n, 2) with contiguous columns
        for c in range(2):
            u[:, c] = score_upstream(noise[:, c], sample_set.sigma_p_sq)
        del noise  # a replayed chunk dies before the chunk's other temporaries
        norms_sq = _score_norms_sq(gram, m, u)
        for a, b in pairs:  # before the bincount buffers exist
            acc_gram[(a, b)] += float((chunk_weights[a][:] * chunk_weights[b][:] * norms_sq).sum())
        # One bincount per component adds the accumulator and then each
        # sample's term in sample order, the same sums in the same order as
        # np.add.at; values holds the accumulator, then the terms.
        bins = np.concatenate([acc_bins, m])
        values = np.empty(bins.size)
        for name, weight in chunk_weights.items():
            w = weight[:]
            acc_sum[name].add(w)
            for c in range(2):
                values[:num_messages] = acc_u[name][:, c]
                np.multiply(w, u[:, c], out=values[num_messages:])
                acc_u[name][:, c] = np.bincount(bins, values, num_messages)
            prod = w * w * norms_sq
            acc_gram[(name, name)] += float(prod.sum())
            acc_fourth[name] += float(np.square(prod, out=prod).sum())

    _fold_behind(fold, ((sl, weights_of(sl)) for sl in _chunks(n)))
    return ScoreMoments(
        means={name: np.einsum("mc,mcp->p", acc, sample_set.jac) / n for name, acc in acc_u.items()},
        weight_means={name: float(acc.mean()) for name, acc in acc_sum.items()},
        gram={key: val / n for key, val in acc_gram.items()},
        fourth={name: val / n for name, val in acc_fourth.items()},
        num_samples=n,
    )


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


def _mean_and_variance(moments, name):
    """The centered mean of a_k s_k (see _centered_mean), and V{a_k s_k}
    summed over coordinates with a standard error.

    The variance is E[a^2 ||s||^2] - ||mean||^2; the standard error
    combines the fourth-moment error of the first term with the mean-norm
    error of the second.
    """
    mean = _centered_mean(moments, name)
    second = moments.gram[(name, name)]
    var = second - float(mean @ mean)
    se_second = moments.gram_se(name)
    se_mean_term = 2.0 * float(np.linalg.norm(mean)) * math.sqrt(
        max(second, 0.0) / moments.num_samples
    )
    return mean, var, math.sqrt(se_second**2 + se_mean_term**2)


def _centered_mean(moments, name):
    """Control-variate mean estimate of E{w_k s_k}.

    Subtracting mean(w) times the empirical score mean changes nothing in
    expectation (the score is zero-mean under the policy) but cancels the
    dominant noise term, the one proportional to the weight's offset from
    zero. Without it the 1-bit mean estimates drown in score noise at any
    feasible sample count.
    """
    return moments.means[name] - moments.weight_means[name] * moments.means["ones"]


def _loss_preprocessor(sample_set, clip_fraction):
    """The rule that pre-processes a slice of the pooled raw losses to
    [0, 1] as training pre-processes a batch: preprocess's bounds, taken
    once over all the losses, and its elementwise transform."""
    raw = sample_set.raw_losses
    l_min, l_max, degenerate = preprocess_bounds(raw, clip_fraction)
    if degenerate:
        raise ValueError("degenerate loss batch: zero range after clipping")
    return lambda sl: rescale(raw[sl], l_min, l_max)


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


# Independent flip realizations per sample on the mean side of the bit-flip
# check: plain Monte Carlo over the flip randomness, which cuts the dominant
# noise term.
FLIP_DRAWS = 8


def _mean_level(cfg):
    """The rule expanding a sum of FLIP_DRAWS level codes to the level of
    their mean, cfg.reconstruct(sums / FLIP_DRAWS) in one float64 array."""

    def expand(sums):
        levels = sums / FLIP_DRAWS
        return np.add(np.multiply(levels, cfg.delta, out=levels), cfg.delta / 2.0, out=levels)

    return expand


def check_verify_claims(quantized_bits, bitflip_bits, flip_probs):
    """Raise ValueError unless every quantized width is a QuantizerConfig
    width, every p a BscConfig flip probability, every flipped width one
    the (1 - 2p) scaling is claimed for, and no list repeats a value."""
    for q in quantized_bits:
        QuantizerConfig(q)
    for p in flip_probs:
        BscConfig(p)
    if bad := [q for q in bitflip_bits if q not in (1, 2)]:
        raise ValueError(f"the (1 - 2p) scaling is only claimed for 1- or 2-bit quantizers; got q_bits={bad}")
    for key, values in (("quantized_bits", quantized_bits), ("bitflip_bits", bitflip_bits), ("flip_probs", flip_probs)):
        if len(set(values)) < len(values):
            raise ValueError(f"{key} repeats a value: {values}")


def verify_gradient_scaling(
    sample_set,
    flip_rng,
    quantized_bits=(1, 3, 5),
    bitflip_bits=(1, 2),
    flip_probs=(0.1, 0.2, 0.3),
    clip_fraction=DEFAULT_CLIP_FRACTION,
):
    """Check both gradient-scaling claims on one sample set, in one
    score_moments pass.

    Quantization: for each of quantized_bits, the gradient of the quantized
    pre-processed losses against g_hat times that of the losses themselves,
    with the variance bound g^2 V{gamma} + (g*w_bar + w_bar^2) * tr(J).
    Bit flips: for each q of bitflip_bits and p of flip_probs, the gradient
    of the quantized losses sent through a binary symmetric channel against
    (1 - 2p) times that of the quantized losses. Its mean side averages
    FLIP_DRAWS independent flip realizations per sample; for
    q = 1 the bound V{gamma_q} + 4p(1-p)||grad_q||^2 + p*tr(J) is checked
    on one realization, since it is about per-sample spread (the bound
    fields are NaN for q = 2). Means are centered (see _centered_mean);
    variances are of the uncentered per-sample gradients, which is what
    the bounds speak about.

    The weights are made chunk by chunk on the caller's thread, while a
    helper thread folds the chunk before (score_moments): the chunk's
    losses pre-processed with bounds taken once over all of them, each bit
    width's level codes, and the flipped codes summed over the draws (see
    CodedWeight). The losses are a weight of the quantization claim only.
    Every mean the reports read is a PairwiseSum over the chunks, with the
    bits of a mean over the whole vector, and the losses' variance takes a
    second pass. With flips to draw, each chunk's sent codes go through
    channels.bsc, every (q, p, draw) block drawing from its own copy of
    flip_rng moved to where a serial loop over the blocks, in bitflip_bits
    order, would start it; flip_rng must then be a PCG64 generator, and it
    ends where that loop leaves it. Otherwise flip_rng (None allowed) is
    not touched.

    Returns ({q_bits: ScalingReport}, {(q_bits, p): ScalingReport}).
    """
    check_verify_claims(quantized_bits, bitflip_bits, flip_probs)
    flip_bits = bitflip_bits if flip_probs else ()
    if flip_bits and not isinstance(bit_generator := getattr(flip_rng, "bit_generator", None), np.random.PCG64):
        raise ValueError(
            "flip draws are addressed by stream position: flip_rng must be a PCG64 generator; "
            f"got {type(bit_generator or flip_rng).__name__}"
        )
    cfgs = {q: QuantizerConfig(q) for q in dict.fromkeys([*quantized_bits, *flip_bits])}
    if not cfgs:
        return {}, {}
    preprocessed = _loss_preprocessor(sample_set, clip_fraction)
    n = sample_set.num_samples
    pairs, products = [], {}  # products: the streamed sum of losses times levels, per quantized width
    for q in quantized_bits:
        pairs += _report_pairs(f"q{q}", "perfect")
        products[q] = PairwiseSum(n)
    flips = {}  # per (q, p): each draw's generator
    offset = 0  # where a block's draws start in the stream: one 64-bit output per flip bit
    for q in flip_bits:
        for p in flip_probs:
            pairs += _report_pairs(f"e_q{q}_p{p}", f"q{q}")
            flips[(q, p)] = [
                np.random.Generator(copy.deepcopy(flip_rng.bit_generator).advance(offset + draw * n * q))
                for draw in range(FLIP_DRAWS)
            ]
            offset += FLIP_DRAWS * n * q
    # The level of the mean index is the mean of the levels. The levels are
    # dyadic, so for a power-of-two FLIP_DRAWS it carries the bits of
    # summing the dequantized draws.
    mean_levels = {q: _mean_level(cfgs[q]) for q in flip_bits}

    def chunk_weights(sl):
        """The chunk's weights; its temporaries die before the next chunk's are made."""
        pre = preprocessed(sl)
        weights = {"ones": CodedWeight(np.broadcast_to(np.uint8(0), pre.shape), lambda codes: np.ones(codes.shape))}
        if quantized_bits:
            weights["perfect"] = pre
        for q, cfg in cfgs.items():
            codes = _level_codes(pre, cfg)
            weights[f"q{q}"] = CodedWeight(codes, cfg.reconstruct)
            if q in products:  # feedback.linear_gain's product mean
                levels = cfg.reconstruct(codes)
                products[q].add(np.multiply(pre, levels, out=levels))
                del levels  # before the next width's are made
        del pre  # the flips need only the sent codes
        for (q, p), gens in flips.items():
            sent = weights[f"q{q}"].codes
            draws = np.zeros(sent.shape, dtype=np.min_scalar_type(FLIP_DRAWS * (cfgs[q].num_levels - 1)))
            for draw, gen in enumerate(gens):
                received = bsc(sent, q, p, gen)
                draws += received
                if q == 1 and draw == 0:  # one flip realization, for the variance bound
                    weights[f"ev_q{q}_p{p}"] = CodedWeight(received, cfgs[q].reconstruct)
            weights[f"e_q{q}_p{p}"] = CodedWeight(draws, mean_levels[q])
        return weights

    moments = score_moments(sample_set, chunk_weights, pairs)
    if flips:
        kept = flip_rng.bit_generator.state  # advance clears the buffered 32-bit half
        flip_rng.bit_generator.state = dict(flip_rng.bit_generator.advance(offset).state, has_uint32=kept["has_uint32"], uinteger=kept["uinteger"])
    fisher, fisher_se = _fisher_trace(moments)
    centered = {q: _mean_and_variance(moments, f"q{q}") for q in cfgs}
    quant_reports, flip_reports = {}, {}
    if quantized_bits:
        mu_ref, var_ref, var_ref_se = _mean_and_variance(moments, "perfect")
        pre_mean = moments.weight_means["perfect"]
        squares = PairwiseSum(n)  # np.var's second pass: the squared deviations from the mean
        for sl in _chunks(n):
            deviations = preprocessed(sl) - pre_mean
            squares.add(np.multiply(deviations, deviations, out=deviations))
        pre_var = squares.mean()
    for q in quantized_bits:
        g = gain_of_means(pre_mean, moments.weight_means[f"q{q}"], products[q].mean(), pre_var)
        w_bar = error_bound(g, cfgs[q])
        mu_q, var_q, var_q_se = centered[q]
        coeff = g * w_bar + w_bar**2
        bound = g**2 * var_ref + coeff * fisher
        slack_se = math.sqrt(var_q_se**2 + (g**2 * var_ref_se) ** 2 + (coeff * fisher_se) ** 2)
        quant_reports[q] = _scaling_report(
            f"quantized_{q}bit", g, moments, (f"q{q}", mu_q), ("perfect", mu_ref),
            (var_q, bound, slack_se), g_hat=g, w_bar=w_bar,
        )
    for q in flip_bits:
        mu_q, var_q, var_q_se = centered[q]
        norm_q = float(np.linalg.norm(mu_q))
        for p in flip_probs:
            name_e = f"e_q{q}_p{p}"
            if q == 1:
                _, var_e, var_e_se = _mean_and_variance(moments, f"ev_q{q}_p{p}")
                bound = var_q + 4.0 * p * (1.0 - p) * norm_q**2 + p * fisher
                slack_se = math.sqrt(var_e_se**2 + var_q_se**2 + (p * fisher_se) ** 2)
            else:
                var_e, bound, slack_se = math.nan, math.nan, math.nan
            mu_e = _centered_mean(moments, name_e)
            flip_reports[(q, p)] = _scaling_report(
                f"bitflip_q{q}_p{p}", 1.0 - 2.0 * p, moments, (name_e, mu_e), (f"q{q}", mu_q),
                (var_e, bound, slack_se),
            )
    return quant_reports, flip_reports


def verify_quantized_gradient_scaling(sample_set, q_bits_list=(1, 3, 5), clip_fraction=DEFAULT_CLIP_FRACTION):
    """The quantization claim alone: verify_gradient_scaling's {q_bits: ScalingReport}."""
    return verify_gradient_scaling(sample_set, None, q_bits_list, (), (), clip_fraction)[0]


def verify_bitflip_gradient_scaling(
    sample_set, rng, q_bits_list=(1, 2), flip_probs=(0.1, 0.2, 0.3), clip_fraction=DEFAULT_CLIP_FRACTION
):
    """The bit-flip claim alone: verify_gradient_scaling's {(q_bits, p): ScalingReport}."""
    return verify_gradient_scaling(sample_set, rng, (), q_bits_list, flip_probs, clip_fraction)[1]


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
