"""SER measurement, ML baselines, decision regions, and the gradient-scaling
verification harness.

The harness checks, by Monte Carlo, the two theoretical claims the feedback
scheme rests on: quantizing pre-processed losses scales the expected policy
gradient by the Bussgang gain g (with a variance bound involving the maximum
quantization error and the Fisher trace), and flipping feedback bits with
probability p scales it further by (1 - 2p). Everything runs on a frozen
transceiver, where the score of a sampled symbol factors through the
constellation Jacobian: s_k = J[m_k]^T u_k with u_k = 2 w_k / sigma_p^2.
That factorization is what keeps 10^6-sample studies at a few hundred MB of
arithmetic instead of a 12 GB score matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import propagate
from .feedback import (
    DEFAULT_CLIP_FRACTION,
    QuantizerConfig,
    bussgang_gain,
    dequantize,
    preprocess,
    quantize,
    quantize_value,
)
from .transceiver import (
    constellation,
    constellation_jacobian,
    cross_entropy_losses,
    exploration_variance,
    perturb,
    real_to_complex,
    receive,
    score_upstream,
)

DEFAULT_CHUNK = 65_536


def _chunks(total, chunk=DEFAULT_CHUNK):
    """Consecutive slices of at most chunk items that cover range(total).

    Every Monte Carlo loop walks these, so each chunk draws from its
    generator in the same order whatever the loop computes.
    """
    for start in range(0, total, chunk):
        yield slice(start, min(start + chunk, total))


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
        probs, _ = receive(self.rx, y)
        return np.argmax(probs, axis=1)


class ExactAwgnDetector:
    """Maximum-likelihood detection for AWGN: nearest constellation point."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=np.complex128)

    def decide(self, y):
        y = np.asarray(y, dtype=np.complex128)
        d2 = np.abs(y[:, None] - self.points[None, :]) ** 2
        return np.argmin(d2, axis=1)


class SampledNlpnDetector:
    """Likelihood tables fitted from channel draws, for channels without a
    tractable density.

    For each constellation point the conditional density of y is estimated
    on a common 2-d histogram grid (with add-one smoothing so no cell has
    zero likelihood); detection picks the argmax table value at y's cell.
    Observations outside the grid clamp to the edge cells.
    """

    def __init__(self, points, log_density, re_edges, im_edges):
        self.points = np.asarray(points, dtype=np.complex128)
        self.log_density = log_density  # (M, bins, bins)
        self.re_edges = re_edges
        self.im_edges = im_edges

    @classmethod
    def fit(cls, points, channel_cfg, rng, draws_per_point=100_000, bins=100, pad=4.0):
        points = np.asarray(points, dtype=np.complex128)
        num_points = points.size
        sigma = math.sqrt(channel_cfg.sigma_sq_mw)
        radius = float(np.max(np.abs(points))) + pad * sigma
        re_edges = np.linspace(-radius, radius, bins + 1)
        im_edges = np.linspace(-radius, radius, bins + 1)
        log_density = np.zeros((num_points, bins, bins))
        for m in range(num_points):
            x = np.full(draws_per_point, points[m], dtype=np.complex128)
            y = propagate(x, channel_cfg, rng)
            counts, _, _ = np.histogram2d(y.real, y.imag, bins=(re_edges, im_edges))
            log_density[m] = np.log(counts + 1.0)  # add-one smoothing
        return cls(points, log_density, re_edges, im_edges)

    def decide(self, y):
        y = np.asarray(y, dtype=np.complex128)
        nbins = self.log_density.shape[1]
        i = np.clip(np.searchsorted(self.re_edges, y.real, side="right") - 1, 0, nbins - 1)
        j = np.clip(np.searchsorted(self.im_edges, y.imag, side="right") - 1, 0, nbins - 1)
        return np.argmax(self.log_density[:, i, j], axis=0)


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


def decision_regions(rx, bounds, resolution):
    """Receiver argmax decision at every point of a square grid.

    bounds is (lo, hi) on both axes; resolution is points per axis (>= 2).
    labels[i, j] is the 0-based decision for re[j] + 1j*im[i].
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    lo, hi = bounds
    if not hi > lo:
        raise ValueError("bounds must satisfy hi > lo")
    axis = np.linspace(lo, hi, resolution)
    re_grid, im_grid = np.meshgrid(axis, axis, indexing="xy")
    flat = np.stack([re_grid.ravel(), im_grid.ravel()], axis=-1)
    labels = ReceiverDetector(rx).decide(flat).reshape(resolution, resolution)
    return DecisionGrid(re=axis, im=axis.copy(), labels=labels)


def export_decision_regions_csv(path, grid, comments=()):
    """Write grid decisions as re,im,message rows (message 1-based); comment
    lines (leading '#') go directly under the header."""
    with open(path, "w") as fh:
        fh.write("re,im,message\n")
        for line in comments:
            fh.write(f"# {line}\n")
        for i, im in enumerate(grid.im):
            for j, re in enumerate(grid.re):
                fh.write(f"{float(re)!r},{float(im)!r},{grid.labels[i, j] + 1}\n")


# ---------------------------------------------------------------------------
# Gradient-scaling verification harness
# ---------------------------------------------------------------------------


@dataclass
class ScoreSampleSet:
    """Everything needed to reconstruct per-sample policy gradients lazily.

    The score of sample k is jac[messages[k]]^T @ (2*perturbations[k]/sigma_p_sq);
    storing (message, perturbation, raw loss) instead of score vectors keeps
    10^6 samples at ~32 MB.
    """

    messages: np.ndarray  # (N,) int
    perturbations: np.ndarray  # (N, 2) exploration noise actually applied
    raw_losses: np.ndarray  # (N,) receiver cross-entropy per sample
    jac: np.ndarray  # (M, 2, P) constellation Jacobian
    points: np.ndarray  # (M, 2) constellation
    sigma_p_sq: float

    @property
    def num_samples(self):
        return self.messages.size

    @property
    def num_params(self):
        return self.jac.shape[2]

    def score_norms_sq(self, sl=slice(None)):
        """||s_k||^2 for a slice of samples."""
        u = score_upstream(self.perturbations[sl], self.sigma_p_sq)
        return _score_norms_sq(_gram_blocks(self.jac), self.messages[sl], u)


def _gram_blocks(jac):
    """The 2x2 Gram block J[m] J[m]^T of every message, shape (M, 2, 2)."""
    return np.einsum("mcp,mdp->mcd", jac, jac)


def _score_norms_sq(gram, messages, u):
    """||J[m_k]^T u_k||^2 = u_k^T G[m_k] u_k from the Gram blocks G."""
    return np.einsum("kc,kcd,kd->k", u, gram[messages], u)


def collect_score_samples(tx, rx, channel_cfg, num_messages, num_samples, rng):
    """Sample the exploration policy on a frozen transceiver.

    Uniform messages, constellation symbols, Gaussian perturbation with the
    training exploration variance, channel, receiver cross-entropy per sample.
    """
    sigma_p_sq = exploration_variance(channel_cfg.P_mw)
    points, jac = constellation_jacobian(tx, num_messages, channel_cfg.P_mw)
    messages = np.empty(num_samples, dtype=np.int64)
    perturbations = np.empty((num_samples, 2))
    raw_losses = np.empty(num_samples)
    for sl in _chunks(num_samples):
        m = rng.integers(0, num_messages, size=sl.stop - sl.start)
        perturbed, perturbations[sl] = perturb(points[m], sigma_p_sq, rng)
        probs, _ = receive(rx, propagate(real_to_complex(perturbed), channel_cfg, rng))
        messages[sl] = m
        raw_losses[sl] = cross_entropy_losses(probs, m)
    return ScoreSampleSet(
        messages=messages,
        perturbations=perturbations,
        raw_losses=raw_losses,
        jac=jac,
        points=points,
        sigma_p_sq=sigma_p_sq,
    )


@dataclass
class ScoreMoments:
    """Weighted score statistics for a set of named per-sample weights.

    means[name] = (1/N) sum_k a_k s_k, and gram[(a, b)] = (1/N) sum a_k b_k
    ||s_k||^2 for every pair, with fourth[(a, b)] the matching second moment
    of those summands (for standard errors). Every variance and covariance
    the scaling checks need is a bilinear combination of these.
    """

    means: dict
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

    def gram_se(self, name_a, name_b):
        key = _pair_key(name_a, name_b)
        var = max(self.fourth[key] - self.gram[key] ** 2, 0.0)
        return math.sqrt(var / self.num_samples)


def _pair_key(a, b):
    return (a, b) if a <= b else (b, a)


def score_moments(sample_set, weights, chunk=DEFAULT_CHUNK):
    """One chunked pass over the samples computing all weighted moments.

    Mean vectors are accumulated per message as sum_k a_k u_k and contracted
    with the Jacobian once at the end, so no (N, P) score matrix ever exists.
    """
    names = list(weights)
    n = sample_set.num_samples
    for name in names:
        if weights[name].shape != (n,):
            raise ValueError(f"weight vector {name!r} has wrong shape")
    num_messages = sample_set.jac.shape[0]
    acc_u = {name: np.zeros((num_messages, 2)) for name in names}
    acc_gram = {}
    acc_fourth = {}
    for a in range(len(names)):
        for b in range(a, len(names)):
            acc_gram[_pair_key(names[a], names[b])] = 0.0
            acc_fourth[_pair_key(names[a], names[b])] = 0.0
    gram = _gram_blocks(sample_set.jac)
    for sl in _chunks(n, chunk):
        m = sample_set.messages[sl]
        u = score_upstream(sample_set.perturbations[sl], sample_set.sigma_p_sq)
        norms_sq = _score_norms_sq(gram, m, u)
        for name in names:
            wv = weights[name][sl]
            np.add.at(acc_u[name], m, wv[:, None] * u)
        for a in range(len(names)):
            for b in range(a, len(names)):
                key = _pair_key(names[a], names[b])
                prod = weights[names[a]][sl] * weights[names[b]][sl] * norms_sq
                acc_gram[key] += float(prod.sum())
                acc_fourth[key] += float((prod * prod).sum())
    means = {}
    for name in names:
        means[name] = np.einsum("mc,mcp->p", acc_u[name], sample_set.jac) / n
    gram = {key: val / n for key, val in acc_gram.items()}
    fourth = {key: val / n for key, val in acc_fourth.items()}
    return ScoreMoments(means=means, gram=gram, fourth=fourth, num_samples=n)


def score_coordinate_std(jac, sigma_p_sq):
    """Exact per-parameter standard deviation of the score under the policy.

    Coordinate i of the score is J[m, 0, i]*u_0 + J[m, 1, i]*u_1 with u
    components independent N(0, 2/sigma_p_sq) and m uniform, so the variance
    is (2/sigma_p_sq) * mean_m (J[m, 0, i]^2 + J[m, 1, i]^2).
    """
    second = (jac**2).sum(axis=1).mean(axis=0)  # (P,)
    return np.sqrt(2.0 / sigma_p_sq * second)


def fisher_trace_exact(jac, sigma_p_sq):
    """Closed-form E||score||^2 for the frozen-constellation factorization."""
    return float(2.0 / sigma_p_sq * np.einsum("mcp,mcp->", jac, jac) / jac.shape[0])


def fisher_trace_sampled(jac, sigma_p_sq, num_samples, rng):
    """Monte Carlo E||score||^2 over uniform messages and fresh policy draws.

    Returns (estimate, stderr).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    gram = _gram_blocks(jac)
    total = 0.0
    total_sq = 0.0
    for sl in _chunks(num_samples):
        n = sl.stop - sl.start
        m = rng.integers(0, jac.shape[0], size=n)
        u = rng.normal(0.0, math.sqrt(2.0 / sigma_p_sq), size=(n, 2))
        norms_sq = _score_norms_sq(gram, m, u)
        total += float(norms_sq.sum())
        total_sq += float((norms_sq**2).sum())
    mean = total / num_samples
    var = max(total_sq / num_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / num_samples)


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
    second = moments.gram[_pair_key(name, name)]
    var = second - float(mean @ mean)
    se_second = moments.gram_se(name, name)
    se_mean_term = 2.0 * float(np.linalg.norm(mean)) * math.sqrt(
        max(moments.gram[_pair_key(name, name)], 0.0) / moments.num_samples
    )
    return var, math.sqrt(se_second**2 + se_mean_term**2)


def _centered_mean(moments, weights, name):
    """Control-variate mean estimate of E{w_k s_k}.

    Subtracting mean(w) times the empirical score mean changes nothing in
    expectation (the score is zero-mean under the policy) but cancels the
    dominant noise term, the one proportional to the weight's offset from
    zero. Without it the 1-bit mean estimates drown in score noise at any
    feasible sample count.
    """
    return moments.means[name] - float(weights[name].mean()) * moments.means["ones"]


def _preprocessed_losses(sample_set, clip_fraction):
    """The pooled raw losses pre-processed to [0, 1] as in training."""
    pre, stats = preprocess(sample_set.raw_losses, clip_fraction)
    if stats.degenerate:
        raise ValueError("degenerate loss batch: zero range after clipping")
    return pre


def _fisher_trace(moments):
    """Same-sample estimate of tr(J) = E||s||^2, with its standard error."""
    return moments.gram[_pair_key("ones", "ones")], moments.gram_se("ones", "ones")


def _scaling_report(label, target, moments, weights, test, ref, variance, **extra):
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
    offset = float(weights[name_test].mean()) - target * float(weights[name_ref].mean())
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

    Returns {q_bits: ScalingReport}.
    """
    pre = _preprocessed_losses(sample_set, clip_fraction)
    weights = {"ones": np.ones_like(pre), "perfect": pre}
    estimates = {}
    for q in q_bits_list:
        cfg = QuantizerConfig(q)
        weights[f"q{q}"] = quantize_value(pre, cfg)
        estimates[q] = bussgang_gain(pre, cfg)
    moments = score_moments(sample_set, weights)
    fisher, fisher_se = _fisher_trace(moments)
    mu_ref = _centered_mean(moments, weights, "perfect")
    var_ref, var_ref_se = _variance_of(moments, "perfect", mu_ref)
    reports = {}
    for q in q_bits_list:
        est = estimates[q]
        name = f"q{q}"
        mu_q = _centered_mean(moments, weights, name)
        var_q, var_q_se = _variance_of(moments, name, mu_q)
        coeff = est.g * est.w_bar + est.w_bar**2
        bound = est.g**2 * var_ref + coeff * fisher
        slack_se = math.sqrt(var_q_se**2 + (est.g**2 * var_ref_se) ** 2 + (coeff * fisher_se) ** 2)
        reports[q] = _scaling_report(
            f"quantized_{q}bit", est.g, moments, weights, (name, mu_q), ("perfect", mu_ref),
            (var_q, bound, slack_se), g_hat=est.g, w_bar=est.w_bar,
        )
    return reports


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

    Returns {(q_bits, p): ScalingReport}.
    """
    for p in flip_probs:
        if not 0.0 <= p <= 0.5:
            raise ValueError("flip probability must lie in [0, 0.5]")
    for q in q_bits_list:
        if q not in (1, 2):
            raise ValueError(
                "the (1 - 2p) scaling holds for 1- and 2-bit quantizers with the "
                f"natural bit mapping; got q_bits={q}"
            )
    if flip_draws < 1:
        raise ValueError("flip_draws must be >= 1")
    pre = _preprocessed_losses(sample_set, clip_fraction)
    weights = {"ones": np.ones_like(pre)}
    for q in q_bits_list:
        cfg = QuantizerConfig(q)
        weights[f"q{q}"], bits = quantize(pre, cfg)
        for p in flip_probs:
            acc = np.zeros_like(pre)
            for draw in range(flip_draws):
                dequant = dequantize(bits ^ (rng.random(bits.shape) < p), cfg)
                if draw == 0 and q == 1:
                    weights[f"ev_q{q}_p{p}"] = dequant
                acc += dequant
            weights[f"e_q{q}_p{p}"] = acc / flip_draws
    moments = score_moments(sample_set, weights)
    fisher, fisher_se = _fisher_trace(moments)
    reports = {}
    for q in q_bits_list:
        name_q = f"q{q}"
        mu_q = _centered_mean(moments, weights, name_q)
        norm_q = float(np.linalg.norm(mu_q))
        var_q, var_q_se = _variance_of(moments, name_q, mu_q)
        for p in flip_probs:
            name_e = f"e_q{q}_p{p}"
            if q == 1:
                name_ev = f"ev_q{q}_p{p}"
                var_e, var_e_se = _variance_of(
                    moments, name_ev, _centered_mean(moments, weights, name_ev)
                )
                bound = var_q + 4.0 * p * (1.0 - p) * norm_q**2 + p * fisher
                slack_se = math.sqrt(var_e_se**2 + var_q_se**2 + (p * fisher_se) ** 2)
            else:
                var_e, bound, slack_se = math.nan, math.nan, math.nan
            mu_e = _centered_mean(moments, weights, name_e)
            reports[(q, p)] = _scaling_report(
                f"bitflip_q{q}_p{p}", 1.0 - 2.0 * p, moments, weights, (name_e, mu_e), (name_q, mu_q),
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
