"""Entropy and Fisher-information estimators with quantified uncertainty.

Three independent entropy routes (Monte Carlo on the own log-density,
composite Gauss-Legendre quadrature for 1-D laws, ``quadrature_1d``, and
nearest-neighbor distances from samples alone) cross-check each other.
Every 1-D entropy and Fisher integral is the line-law rule, one array
kernel over the (D, K) component arrays of D 1-D mixtures:
:func:`projection_entropy` passes the D line laws a . X of unit directions,
the other 1-D estimators the law's own row.  2-D mixtures take the tensor
product of the rule through the mixture kernel (``quadrature_2d``).  A law
whose components are closed under mu -> -mu has an even integrand, so the
rule evaluates only its nodes with a nonnegative first coordinate, at doubled
weights: half of them.  The ``count`` of an estimate is still the node count
of the full rule.  A decomposed route adds the quadrature entropies of a
mixture's coordinate marginals, each distinct one integrated once, and
subtracts a Monte Carlo total correlation, which is exactly zero, with no
draws, when the mixture is their product.  Alongside are Monte Carlo
estimators for the Fisher information, score cross terms, the
conditional-score projection identity, and a mixed-partial independence
probe.

Monte Carlo estimators report stderr from the sample variance and accept
results statistically (z-scores), never with hidden absolute tolerances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteLogDensityError,
    NonFiniteScoreError,
    NotUnitVectorError,
    RankDeficientError,
    TooFewSamplesError,
)
from .mixtures import coordinate_marginals, line_laws, push_forward_linear
from .streams import CHUNK_SIZE, mc_mean, split_seed

_GL_PANEL = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_PANEL)
_ROUNDING_FLOOR = 1e-12


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy value in nats with a standard error and a method tag."""

    value: float
    stderr: float
    method: str  # mc_logdensity | quadrature_1d | quadrature_2d | decomposed | knn | debruijn
    count: int


@dataclass(frozen=True)
class FisherEstimate:
    """Estimated E||score||^2 (trace Fisher information) with standard error."""

    value: float
    stderr: float
    method: str  # mc_score | quadrature_1d | quadrature_2d
    count: int


@dataclass(frozen=True)
class MomentEstimate:
    """Plain Monte Carlo moment (may be negative) with standard error."""

    value: float
    stderr: float
    count: int


def floored_stderr(stderr, value):
    """``stderr``, but never below the rounding level ``1e-12 * (1 + |value|)``.

    Deterministic estimates can report an error far below what their
    arithmetic resolves; a verdict must not read a last-bit difference as
    many sigmas.
    """
    return max(stderr, _ROUNDING_FLOOR * (1.0 + abs(value)))


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
    return FisherEstimate(value, stderr, "mc_score", n)


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


# --- composite Gauss-Legendre quadrature ------------------------------------

# Panels of 16 nodes before any doubling: per line law (512 nodes), and per
# axis of a 2-D grid ((8 * 16)^2 nodes).
_PANELS_1D = 32
_PANELS_2D = 8


def _radius(means, stds):
    # R along the last axis: the largest |mean| plus 8 of the largest std
    return np.max(np.abs(means), axis=-1) + 8.0 * np.max(stds, axis=-1)


def _panel_nodes(radii, panels, fold=False):
    # ``panels`` equal panels of 16 Gauss-Legendre nodes on [-R, R], one row
    # of nodes x and weights w per radius R; folded, the ``panels // 2`` of
    # them on [0, R] at doubled weights, which is the same rule for an even
    # integrand
    low, count = (0.0, panels // 2) if fold else (-radii, panels)
    edges = np.ascontiguousarray(np.linspace(low, radii, count + 1, axis=-1))
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    shape = np.shape(radii) + (-1,)
    x = (mid[..., None] + half[..., None] * _GL_NODES).reshape(shape)
    w = (half[..., None] * _GL_WEIGHTS).reshape(shape)
    return x, 2.0 * w if fold else w


def _point_symmetric(fields, means):
    """Per law, whether its components are closed under mu -> -mu, exactly.

    ``fields`` (..., K, F) holds what the flip keeps of each of K components
    and ``means`` (..., K, M) their means; a law is point-symmetric when its
    rows ``[fields | mu]`` and ``[fields | -mu]``, each sorted along the
    component axis, are equal bit for bit (``+ 0.0`` makes -0.0 equal 0.0).
    No tolerance: a law symmetric only up to rounding is not folded.
    """

    def ordered(rows):
        order = np.lexsort(np.moveaxis(rows, -1, 0), axis=-1)
        return np.take_along_axis(rows, order[..., None], axis=-2)

    rows = np.concatenate([fields, means], axis=-1) + 0.0
    images = np.concatenate([fields, -means], axis=-1) + 0.0
    return np.all(ordered(rows) == ordered(images), axis=(-2, -1))


def _checked_log_density(lf):
    if np.any(np.isnan(lf)) or np.any(np.isposinf(lf)):
        raise NonFiniteLogDensityError("log-density NaN or +inf inside quadrature range")
    return lf


def _neg_x_exp_x(lf):
    # -f log f from log f, with 0 where f is 0
    return np.where(np.isneginf(lf), 0.0, -np.exp(lf) * lf)


def _neg_f_log_f(d, x):
    return _neg_x_exp_x(_checked_log_density(np.asarray(d.log_density(x))))


def _f_score_squared(d, x):
    lf = _checked_log_density(np.asarray(d.log_density(x)))
    rho = np.asarray(d.score(x))
    if not np.all(np.isfinite(rho)):
        raise NonFiniteScoreError("score non-finite inside quadrature range")
    return np.exp(lf) * np.einsum("ij,ij->i", rho, rho)


def _panel_integral(integrand, mix, radius, panels, fold):
    # the tensor product of the 1-D rule on [-R, R]^2, taken in slabs of
    # whole grid rows of at most CHUNK_SIZE nodes; folded, the first
    # coordinate takes the folded rule on [0, R]
    x, w = _panel_nodes(radius, panels)
    x_rows, w_rows = _panel_nodes(radius, panels, fold)
    rows = max(1, CHUNK_SIZE // x.size)
    parts = []
    for s in range(0, x_rows.size, rows):
        xs = x_rows[s : s + rows]
        points = np.column_stack([np.repeat(xs, x.size), np.tile(x, xs.size)])
        values = integrand(mix, points).reshape(xs.size, x.size)
        parts.append(w_rows[s : s + rows] @ values @ w)
    return math.fsum(parts)


def _quadrature(integrate, rows, panels):
    """Row-wise integrals by the composite rule, with panel doubling.

    ``integrate(active, panels)`` returns the integrals of the rows indexed
    by ``active`` with ``panels`` panels per axis.  Each row's panels
    double, at most 3 times, until its value agrees with the one at half
    the panels to 1e-10 relative; only rows that have not converged are
    evaluated again.  Returns per row the value, its stderr (the last
    convergence difference, floored by :func:`floored_stderr`) and the
    final panels per axis.
    """
    active = np.arange(rows)
    value_half = integrate(active, max(2, panels // 2))
    value = integrate(active, panels)
    final = np.full(rows, panels)
    for _ in range(3):
        converged = np.abs(value - value_half) <= 1e-10 * (1.0 + np.abs(value))
        active = active[~converged[active]]
        if not active.size:
            break
        panels *= 2
        value_half[active] = value[active]
        value[active] = integrate(active, panels)
        final[active] = panels
    values = value.tolist()
    stderrs = [floored_stderr(abs(v - h), v) for v, h in zip(values, value_half.tolist())]
    return values, stderrs, final.tolist()


def _grid_quadrature(integrand, mix):
    """A 2-D law's integral of ``integrand(mix, points)`` over [-R, R]^2.

    R is that of :func:`_radius` over both coordinates, and the grid
    starts at 8 panels per axis; the one-row case of :func:`_quadrature`.
    A law invariant under x -> -x (:func:`_point_symmetric` on its weights
    and covariances) evaluates only the half-grid of nonnegative first
    coordinates.  Returns the value, its stderr and the node count of the
    full final grid.
    """
    stds = np.sqrt(np.diagonal(mix.covs, axis1=1, axis2=2))
    radius = float(_radius(mix.means.ravel(), stds.ravel()))
    fields = np.column_stack([mix.weights, mix.covs.reshape(len(mix.weights), -1)])
    fold = bool(_point_symmetric(fields, mix.means))
    [value], [stderr], [panels] = _quadrature(
        lambda _, p: np.array([_panel_integral(integrand, mix, radius, p, fold)]),
        1,
        _PANELS_2D,
    )
    return value, stderr, (panels * _GL_PANEL) ** 2


def _line_neg_f_log_f(t, top, x, means, variances):
    return _neg_x_exp_x(_checked_log_density(np.log(t.sum(axis=1)) + top))


def _line_f_score_squared(t, top, x, means, variances):
    # f rho^2 = exp(top) slope^2 / sum t, as rho = -slope / sum t
    slope = np.einsum("ikj,ikj->ij", t, (x - means) / variances)
    values = np.exp(top) * slope * slope / t.sum(axis=1)
    if not np.all(np.isfinite(values)):
        raise NonFiniteScoreError("score non-finite inside quadrature range")
    return values


def _line_integrals(integrand, log_weights, means, variances, radii, panels, fold):
    """Integrals over [-R_d, R_d] for the 1-D mixtures f_d, one per row.

    Row d of the (D, K) arrays ``log_weights``, ``means`` and ``variances``
    holds the components of f_d, and the rule is that of
    :func:`_panel_nodes` on its own range, folded onto [0, R_d] for every
    row when ``fold`` is set.  The components are one pass
    over rows x components x nodes, in slabs of at most CHUNK_SIZE
    node-components, and ``integrand(t, top, x, means, variances)`` turns a
    slab into the integrand at each node: ``t`` holds the weighted
    component densities over ``exp(top)``, so f = exp(top) * sum_k t_k.
    """
    rows, k = means.shape
    x, w = _panel_nodes(radii, panels, fold)
    consts = log_weights - 0.5 * np.log(2.0 * math.pi * variances)
    scales = -0.5 / variances
    nodes = x.shape[1]
    slab_rows = max(1, CHUNK_SIZE // (k * nodes))
    slab_nodes = max(1, CHUNK_SIZE // (k * slab_rows))
    out = np.empty(rows)
    for r in range(0, rows, slab_rows):
        rs = slice(r, r + slab_rows)
        values = np.empty_like(x[rs])
        for c in range(0, nodes, slab_nodes):
            cs = slice(c, c + slab_nodes)
            # rows x components x nodes, so the reductions run along whole node rows
            t = x[rs, None, cs] - means[rs, :, None]
            t *= t
            t *= scales[rs, :, None]
            t += consts[rs, :, None]
            top = t.max(axis=1)
            t -= top[:, None, :]
            np.exp(t, out=t)
            values[:, cs] = integrand(
                t, top, x[rs, None, cs], means[rs, :, None], variances[rs, :, None]
            )
        out[rs] = np.einsum("ij,ij->i", w[rs], values)
    return out


def _line_quadrature(integrand, log_weights, means, variances):
    """Row-wise integrals for the 1-D mixtures of (D, K) arrays, by :func:`_quadrature`.

    Row d is integrated over [-R_d, R_d], R_d from :func:`_radius` on its
    components, from 32 panels; a row whose law :func:`_point_symmetric`
    finds invariant under x -> -x is integrated over [0, R_d] only.  Returns
    per row the value, its stderr and the node count of the full final rule.
    """
    radii = _radius(means, np.sqrt(variances))
    fold = _point_symmetric(np.stack([log_weights, variances], axis=-1), means[..., None])

    def integrate(rows, panels):
        out = np.empty(len(rows))
        for folded in (True, False):
            part = fold[rows] == folded
            if np.any(part):
                r = rows[part]
                out[part] = _line_integrals(
                    integrand, log_weights[r], means[r], variances[r], radii[r], panels, folded
                )
        return out

    values, stderrs, panels = _quadrature(integrate, len(means), _PANELS_1D)
    return values, stderrs, [p * _GL_PANEL for p in panels]


def _own_line(mix):
    # a 1-D mixture as the one row of line-law arrays
    return np.log(mix.weights)[None, :], mix.means.T, mix.covs[:, 0, 0][None, :]


def entropy_quadrature_1d(mix):
    """Entropy of a 1-D mixture by adaptive composite Gauss-Legendre quadrature.

    Integrates -f log f over [-R, R], R = max |mean| + 8 max std, which
    leaves a tail mass far below 1e-12.  Panels of 16 nodes double from 32
    until the value is stable; stderr is the convergence-difference proxy
    |result - result at half resolution|, floored at the rounding level so
    it never understates the error.  A law invariant under x -> -x is
    integrated over [0, R] at doubled weights; ``count`` is the node count
    of the full rule.
    """
    if mix.dim != 1:
        raise ValueError(f"dim: quadrature needs a 1-D law (got dim {mix.dim})")
    [value], [stderr], [nodes] = _line_quadrature(_line_neg_f_log_f, *_own_line(mix))
    return EntropyEstimate(value, stderr, "quadrature_1d", nodes)


def entropy_quadrature_2d(mix):
    """Entropy of a 2-D mixture by the tensor product of the 1-D composite rule.

    Integrates -f log f over the square [-R, R]^2, R = max |mean| + 8 max
    std over both coordinates, with 8 panels of 16 nodes per axis doubled
    as in :func:`entropy_quadrature_1d`, so the grid holds at most 1024^2
    nodes and is evaluated CHUNK_SIZE nodes at a time.  A law invariant
    under x -> -x evaluates only the half of the grid with a nonnegative
    first coordinate; ``count`` is the node count of the full grid either
    way.
    """
    if mix.dim != 2:
        raise ValueError(f"dim: 2-D quadrature needs a 2-D law (got dim {mix.dim})")
    value, stderr, nodes = _grid_quadrature(_neg_f_log_f, mix)
    return EntropyEstimate(value, stderr, "quadrature_2d", nodes)


def fisher_quadrature(mix):
    """Trace Fisher information of a 1-D or 2-D mixture by quadrature of f |score|^2.

    The rule, radius and doubling are those of :func:`entropy_quadrature_1d`
    in 1-D and of :func:`entropy_quadrature_2d` in 2-D.
    """
    if mix.dim == 1:
        [value], [stderr], [nodes] = _line_quadrature(_line_f_score_squared, *_own_line(mix))
    elif mix.dim == 2:
        value, stderr, nodes = _grid_quadrature(_f_score_squared, mix)
    else:
        raise ValueError(f"dim: Fisher quadrature needs a 1-D or 2-D law (got dim {mix.dim})")
    return FisherEstimate(value, stderr, f"quadrature_{mix.dim}d", nodes)


def projection_entropy(mix, directions):
    """Entropies h(a . X), one :class:`EntropyEstimate` per unit row a of ``directions``.

    ``directions`` is a (D, n) block of unit rows.  The law of each a . X is
    the exact 1-D mixture of :func:`line_laws`, and its entropy is the rule
    of :func:`entropy_quadrature_1d`: the same radius, panels and doubling,
    applied to all rows at once.  The error names the first row whose norm
    differs from 1 by more than 1e-10.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.ndim == 2:  # line_laws rejects any other shape
        norms = np.linalg.norm(directions, axis=1)
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-10)
        if off.size:
            raise NotUnitVectorError(
                f"directions row {off[0]}: norm {norms[off[0]]} differs from 1 by > 1e-10"
            )
    weights, means, variances = line_laws(mix, directions)
    log_weights = np.broadcast_to(np.log(weights), means.shape)
    values, stderrs, nodes = _line_quadrature(_line_neg_f_log_f, log_weights, means, variances)
    return [
        EntropyEstimate(v, s, "quadrature_1d", c) for v, s, c in zip(values, stderrs, nodes)
    ]


def _each_marginal(estimate, marginals):
    """``[estimate(m) for m in marginals]``, computing each distinct marginal once.

    Marginals are the same when their weights, means and covariances are
    equal byte for byte, as the n marginals of an exchangeable law are.
    """
    keys = [(m.weights.tobytes(), m.means.tobytes(), m.covs.tobytes()) for m in marginals]
    done = {}
    for key, m in zip(keys, marginals):
        if key not in done:
            done[key] = estimate(m)
    return [done[key] for key in keys]


def entropy_decomposed(mix, count, seed, basis=None):
    """Entropy of a mixture as marginal quadratures minus a total correlation.

    With ``Z = B^T X`` for the square matrix ``B = basis`` (the identity
    when None), ``h(X) = sum_i h(Z_i) - TC(Z) - log|det B|``, where the
    total correlation ``TC(Z) = E[log f_Z(Z) - sum_i log f_{Z_i}(Z_i)]``
    (Watanabe 1960) is the only term that needs draws.  Each ``h(Z_i)``
    comes from :func:`entropy_quadrature_1d`, run once per distinct
    marginal.  When :func:`coordinate_marginals` finds Z to be the product
    of its marginals, TC is exactly zero and no sample is drawn (``count``
    0 in the result); otherwise TC is the mean of the per-sample statistic
    over ``count`` draws of Z.  The stderr combines the TC stderr with the
    quadrature stderrs, floored at the rounding level.  For an orthogonal
    ``B`` the log-determinant is zero up to rounding.
    """
    count = int(count)
    if count < 100:
        raise ValueError(f"count: must be >= 100 (got {count})")
    if basis is None:
        z_law, log_det = mix, 0.0
    else:
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (mix.dim, mix.dim):
            raise DimensionMismatchError(
                f"basis: expected shape {(mix.dim, mix.dim)} (got {basis.shape})"
            )
        z_law = push_forward_linear(mix, basis.T)
        log_det = float(np.linalg.slogdet(basis)[1])
    marginals, product = coordinate_marginals(z_law)
    parts = _each_marginal(entropy_quadrature_1d, marginals)
    if product:
        tc, tc_stderr, used = 0.0, 0.0, 0
    else:
        def stat(m, s):
            z = z_law.sample(m, s)
            dependence = z_law.log_density(z)
            for i, marginal in enumerate(marginals):
                dependence -= marginal.log_density(z[:, i : i + 1])
            if not np.all(np.isfinite(dependence)):
                raise NonFiniteLogDensityError("log-density non-finite at a sample point")
            return dependence

        tc, tc_stderr, used = mc_mean(stat, count, seed)
    value = math.fsum(p.value for p in parts) - tc - log_det
    stderr = math.hypot(tc_stderr, *(p.stderr for p in parts))
    return EntropyEstimate(value, floored_stderr(stderr, value), "decomposed", used)


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


def _knn_radii(x, k):
    # Column j holds each row's distance to its j-th nearest row; column 0 is
    # the row itself, so a zero in column 1 marks an exact duplicate.
    from scipy.spatial import cKDTree

    return cKDTree(x).query(x, k=k + 1, workers=1)[0]


def _knn_value(x, k, radii=None):
    from scipy.special import digamma, gammaln

    n_samples, n_dim = x.shape
    if radii is None:
        radii = _knn_radii(x, k)
    r = radii[:, k]
    if np.any(r <= 0.0):
        raise TooFewSamplesError("duplicate points survived jitter; increase spread")
    log_ball = 0.5 * n_dim * math.log(math.pi) - gammaln(0.5 * n_dim + 1.0)
    return float(
        digamma(n_samples) - digamma(k) + log_ball + n_dim * np.mean(np.log(r))
    )


def entropy_knn(samples, k=4):
    """Nearest-neighbor (Kozachenko-Leonenko) entropy from samples alone.

    Digamma-corrected k-th neighbor estimate (k=4 default); exact duplicate
    rows, seen as zero nearest-neighbor distances, get a deterministic 1e-12
    jitter.  The stderr combines the 10-fold subsample spread with the
    drift between the fold mean and the full estimate, so finite-sample bias
    is surfaced rather than hidden.  Needs scipy, which only this estimator
    imports.
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
    radii = _knn_radii(x, k)
    if np.any(radii[:, 1] == 0.0):
        x = _deduplicate(x)
        radii = _knn_radii(x, k)
    value = _knn_value(x, k, radii)
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
        gain = np.linalg.solve(a @ cov @ a.T, a @ cov).T
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
