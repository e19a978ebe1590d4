"""Entropy and Fisher-information estimators with quantified uncertainty.

Three independent entropy routes (Monte Carlo on the own log-density,
composite Gauss-Legendre quadrature for 1-D laws, and nearest-neighbor
distances from samples alone) cross-check each other, alongside Monte
Carlo estimators for the Fisher information, score cross terms, the
conditional-score projection identity, and a mixed-partial independence
probe.

Monte Carlo estimators report stderr from the sample variance and accept
results statistically (z-scores), never with hidden absolute tolerances.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.spatial import cKDTree
from scipy.special import digamma, erfc, gammaln

from .errors import (
    IndexOutOfRangeError,
    NonFiniteLogDensityError,
    NonFiniteScoreError,
    NotUnitVectorError,
    RankDeficientError,
    TooFewSamplesError,
    TruncationInsufficientError,
)
from .mixtures import GaussianMixture, push_forward_linear
from .streams import mc_mean, split_seed

_GL_PANEL = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_PANEL)
_TAIL_BOUND = 1e-12
_QUAD_FLOOR = 1e-12


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy value in nats with a standard error and a method tag."""

    value: float
    stderr: float
    method: str  # mc_logdensity | quadrature_1d | knn | debruijn
    count: int


@dataclass(frozen=True)
class FisherEstimate:
    """Estimated E||score||^2 (trace Fisher information) with standard error."""

    value: float
    stderr: float
    count: int


@dataclass(frozen=True)
class MomentEstimate:
    """Plain Monte Carlo moment (may be negative) with standard error."""

    value: float
    stderr: float
    count: int


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation radius (None: derive from mixture tails) and node budget."""

    radius: float | None = None
    nodes: int = 512


def entropy_mc(d, count, seed):
    """Monte Carlo entropy: minus the mean log-density at own samples."""
    count = int(count)
    if count < 100:
        raise ValueError(f"count: must be >= 100 (got {count})")

    def stat(m, s):
        lf = np.asarray(d.log_density(d.sample(m, s)))
        if not np.all(np.isfinite(lf)):
            raise NonFiniteLogDensityError("log-density non-finite at a sample point")
        return -lf

    value, stderr, n = mc_mean(stat, count, seed)
    return EntropyEstimate(value, stderr, "mc_logdensity", n)


def fisher_mc(d, count, seed):
    """Monte Carlo Fisher information: mean squared score norm at own samples."""
    count = int(count)
    if count < 100:
        raise ValueError(f"count: must be >= 100 (got {count})")

    def stat(m, s):
        rho = np.asarray(d.score(d.sample(m, s)))
        if not np.all(np.isfinite(rho)):
            raise NonFiniteScoreError("score non-finite at a sample point")
        return np.einsum("ij,ij->i", rho, rho)

    value, stderr, n = mc_mean(stat, count, seed)
    return FisherEstimate(value, stderr, n)


def cross_term_mc(d, i, j, count, seed):
    """Monte Carlo estimate of E[score_i * score_j]; zero for symmetric laws."""
    n = d.dim
    i, j = int(i), int(j)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise IndexOutOfRangeError(
            f"indices: need distinct i, j in [0, {n}) (got i={i}, j={j})"
        )
    count = int(count)
    if count < 100:
        raise ValueError(f"count: must be >= 100 (got {count})")

    def stat(m, s):
        rho = np.asarray(d.score(d.sample(m, s)))
        if not np.all(np.isfinite(rho)):
            raise NonFiniteScoreError("score non-finite at a sample point")
        return rho[:, i] * rho[:, j]

    value, stderr, n_used = mc_mean(stat, count, seed)
    return MomentEstimate(value, stderr, n_used)


# --- 1-D quadrature --------------------------------------------------------

def _normal_tail(z):
    return 0.5 * erfc(z / math.sqrt(2.0))


def _mixture_radius(mix):
    stds = np.sqrt(mix.covs[:, 0, 0])
    return float(np.max(np.abs(mix.means[:, 0])) + 8.0 * np.max(stds))


def _mixture_tail_mass(mix, radius):
    mus = mix.means[:, 0]
    stds = np.sqrt(mix.covs[:, 0, 0])
    upper = _normal_tail((radius - mus) / stds)
    lower = _normal_tail((radius + mus) / stds)
    return float(np.sum(mix.weights * (upper + lower)))


def _neg_f_log_f(d, x):
    lf = np.asarray(d.log_density(x[:, None]))
    if np.any(np.isnan(lf)) or np.any(np.isposinf(lf)):
        raise NonFiniteLogDensityError("log-density NaN or +inf inside quadrature range")
    out = np.where(np.isneginf(lf), 0.0, -np.exp(lf) * lf)
    return out


def _panel_integral(d, radius, panels):
    edges = np.linspace(-radius, radius, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return float(w @ _neg_f_log_f(d, x))


def entropy_quadrature_1d(d, spec=None):
    """Entropy of a 1-D law by adaptive composite Gauss-Legendre quadrature.

    The range [-R, R] is fixed so the mixture tail mass outside is below
    1e-12 (R = max mean + 8 max std when not given).  Panels double until
    the value is stable; stderr is the convergence-difference proxy
    |result - result at half resolution|, floored at representable
    truncation-level accuracy so it never understates the error.
    """
    if d.dim != 1:
        raise ValueError(f"dim: quadrature needs a 1-D law (got dim {d.dim})")
    spec = spec or QuadratureSpec()
    if spec.radius is not None:
        radius = float(spec.radius)
        if isinstance(d, GaussianMixture):
            tail = _mixture_tail_mass(d, radius)
            if tail >= _TAIL_BOUND:
                raise TruncationInsufficientError(
                    f"radius {radius} leaves tail mass {tail:.3e} >= 1e-12"
                )
    elif isinstance(d, GaussianMixture):
        radius = _mixture_radius(d)
    else:
        raise ValueError("radius: required for non-mixture laws")

    panels = max(4, int(math.ceil(spec.nodes / _GL_PANEL)))
    value_half = _panel_integral(d, radius, max(2, panels // 2))
    value = _panel_integral(d, radius, panels)
    for _ in range(3):
        if abs(value - value_half) <= 1e-10 * (1.0 + abs(value)):
            break
        panels *= 2
        value_half = value
        value = _panel_integral(d, radius, panels)
    stderr = max(abs(value - value_half), _QUAD_FLOOR * (1.0 + abs(value)))
    return EntropyEstimate(value, stderr, "quadrature_1d", panels * _GL_PANEL)


def projection_entropy(mix, a, spec=None):
    """Entropy of the projection a . X, exactly via 1-D pushforward."""
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > 1e-10:
        raise NotUnitVectorError(f"direction: norm {norm} differs from 1 by > 1e-10")
    return entropy_quadrature_1d(push_forward_linear(mix, a[None, :]), spec)


# --- nearest-neighbor entropy ---------------------------------------------

_JITTER = 1e-12
_KNN_FOLDS = 10


def _deduplicate(x):
    _, inverse, counts = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    if np.all(counts == 1):
        return x
    x = x.copy()
    rng = np.random.default_rng(0xD1CE)
    seen = set()
    for row, group in enumerate(inverse):
        g = int(group)
        if counts[g] > 1:
            if g in seen:
                x[row] += _JITTER * rng.standard_normal(x.shape[1])
            seen.add(g)
    return x


def _knn_value(x, k):
    n_samples, n_dim = x.shape
    tree = cKDTree(x)
    r = tree.query(x, k=k + 1, workers=1)[0][:, k]
    if np.any(r <= 0.0):
        raise TooFewSamplesError("duplicate points survived jitter; increase spread")
    log_ball = 0.5 * n_dim * math.log(math.pi) - gammaln(0.5 * n_dim + 1.0)
    return float(
        digamma(n_samples) - digamma(k) + log_ball + n_dim * np.mean(np.log(r))
    )


def entropy_knn(samples, k=4):
    """Nearest-neighbor (Kozachenko-Leonenko) entropy from samples alone.

    Digamma-corrected k-th neighbor estimate (k=4 default); exact duplicate
    rows get a deterministic 1e-12 jitter.  The stderr combines the 10-fold
    subsample spread with the drift between the fold mean and the full
    estimate, so finite-sample bias is surfaced rather than hidden.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    k = int(k)
    n_samples = x.shape[0]
    if n_samples < 2 * k + 2:
        raise TooFewSamplesError(
            f"need at least {2 * k + 2} samples for k={k} (got {n_samples})"
        )
    x = _deduplicate(x)
    value = _knn_value(x, k)
    folds = min(_KNN_FOLDS, n_samples // (k + 2))
    if folds < 2:
        return EntropyEstimate(value, float("inf"), "knn", n_samples)
    fold_values = [
        _knn_value(x[f::folds], k) for f in range(folds)
    ]
    spread = float(np.std(fold_values, ddof=1) / math.sqrt(folds))
    drift = abs(float(np.mean(fold_values)) - value)
    return EntropyEstimate(value, math.hypot(spread, drift), "knn", n_samples)


# --- conditional-score projection check ------------------------------------

@dataclass(frozen=True)
class ScoreProjectionReport:
    """Worst-case gap between the projected-law score and the conditional
    expectation of the projected original score."""

    max_residual: float
    stderr: float
    residuals: tuple
    stderrs: tuple
    probe_count: int
    count: int


def _conditional_parts(mix, a):
    # Per-component conditionals of X given Y = A X: gain and a PSD factor of
    # the conditional covariance (eigenvalues below the floor are treated as
    # exact zeros so degenerate conditioning stays exact).
    parts = []
    for cov in mix.covs:
        chol_s = np.linalg.cholesky(a @ cov @ a.T)
        gain = cho_solve((chol_s, True), a @ cov).T
        cond_cov = cov - gain @ (a @ cov)
        eigval, eigvec = np.linalg.eigh(0.5 * (cond_cov + cond_cov.T))
        floor = 1e-12 * max(1.0, float(eigval[-1]))
        eigval = np.where(eigval < floor, 0.0, eigval)
        factor = eigvec * np.sqrt(eigval)
        parts.append((gain, factor))
    return parts


def score_projection_residual(mix, a, probes=16, count=4096, seed=0):
    """Check score(AX at y) against E[A score(X) | AX = y] at sampled probes.

    The right-hand side uses the mixture's exact conditional law of X given
    Y = y (Gaussian per component), so single-Gaussian inputs are evaluated
    analytically and the residual is at rounding level; multi-component
    inputs average Monte Carlo draws from the exact conditional mixture.
    The posterior component weights given Y = y are the responsibilities
    of the push-forward law, whose components match those of ``mix``.
    """
    a = np.asarray(a, dtype=float)
    k, n = a.shape
    smallest_sv = float(np.linalg.svd(a, compute_uv=False)[-1])
    if smallest_sv < 1e-10:
        raise RankDeficientError(f"smallest singular value {smallest_sv:.3e} < 1e-10")
    if float(np.max(np.abs(a @ a.T - np.eye(k)))) > 1e-8:
        raise RankDeficientError("rows are not orthonormal")
    y_mix = push_forward_linear(mix, a)
    ys = y_mix.sample(int(probes), seed)
    lhs_all = y_mix.score(ys)
    posts = y_mix.responsibilities(ys)
    parts = _conditional_parts(mix, a)

    residuals, stderrs = [], []
    for p_idx, (y, lhs, post) in enumerate(zip(ys, lhs_all, posts)):
        if mix.n_components == 1:
            gain, _ = parts[0]
            cond_mean = mix.means[0] + gain @ (y - a @ mix.means[0])
            rhs = a @ mix.score(cond_mean)
            se = 0.0
        else:
            rng = np.random.default_rng(split_seed(seed, 1000 + p_idx))
            comp = rng.choice(mix.n_components, size=int(count), p=post)
            z = rng.standard_normal((int(count), n))
            x = np.empty((int(count), n))
            for m in range(mix.n_components):
                mask = comp == m
                if np.any(mask):
                    gain, factor = parts[m]
                    cond_mean = mix.means[m] + gain @ (y - a @ mix.means[m])
                    x[mask] = cond_mean + z[mask] @ factor.T
            s = np.asarray(mix.score(x)) @ a.T
            rhs = s.mean(axis=0)
            se = float(np.linalg.norm(s.std(axis=0, ddof=1) / math.sqrt(s.shape[0])))
        residuals.append(float(np.linalg.norm(lhs - rhs)))
        stderrs.append(se)
    worst = int(np.argmax(residuals))
    return ScoreProjectionReport(
        max_residual=residuals[worst],
        stderr=stderrs[worst],
        residuals=tuple(residuals),
        stderrs=tuple(stderrs),
        probe_count=int(probes),
        count=int(count),
    )


# --- mixed-partial independence probe ---------------------------------------

@dataclass(frozen=True)
class MixedPartialReport:
    """Largest mixed second difference of log f against coordinate i."""

    max_abs: float
    by_coordinate: tuple
    verdict: bool
    tol: float
    tol_effective: float
    step: float
    probe_count: int


def mixed_partial_independence(d, i, probes=24, h=1e-4, tol=1e-5, seed=0):
    """Probe whether d^2/dx_k dx_i log f vanishes for every k != i.

    Central second differences at sampled probe points; the verdict uses the
    requested tolerance widened by a rounding guard proportional to
    eps * |log f| / h^2, which is what the difference quotient can resolve.
    """
    n = d.dim
    i = int(i)
    if not 0 <= i < n:
        raise IndexOutOfRangeError(f"i: need 0 <= i < {n} (got {i})")
    h = float(h)
    x = np.asarray(d.sample(int(probes), seed), dtype=float)
    others = [k for k in range(n) if k != i]
    if not others:
        return MixedPartialReport(0.0, (), True, float(tol), float(tol), h, int(probes))

    e_i = np.zeros(n)
    e_i[i] = h
    points = []
    for k in others:
        e_k = np.zeros(n)
        e_k[k] = h
        points.append(x + e_i + e_k)
        points.append(x + e_i - e_k)
        points.append(x - e_i + e_k)
        points.append(x - e_i - e_k)
    batch = np.concatenate(points, axis=0)
    lf = np.asarray(d.log_density(batch))
    if not np.all(np.isfinite(lf)):
        raise NonFiniteLogDensityError("log-density non-finite at a probe point")
    lf = lf.reshape(len(others), 4, x.shape[0])
    d2 = (lf[:, 0] - lf[:, 1] - lf[:, 2] + lf[:, 3]) / (4.0 * h * h)
    per_k = np.max(np.abs(d2), axis=1)
    max_abs = float(np.max(per_k))
    guard = 16.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(lf)))) / (h * h)
    tol_effective = max(float(tol), guard)
    return MixedPartialReport(
        max_abs=max_abs,
        by_coordinate=tuple((k, float(v)) for k, v in zip(others, per_k)),
        verdict=bool(max_abs <= tol_effective),
        tol=float(tol),
        tol_effective=tol_effective,
        step=h,
        probe_count=int(probes),
    )
