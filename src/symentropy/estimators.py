"""Entropy and Fisher-information estimators with quantified uncertainty.

Every estimator returns an :class:`Estimate`.  Three independent entropy
routes (Monte Carlo on the own log-density, nested trapezoidal quadrature,
and nearest-neighbor distances from samples alone) cross-check each other.
Every quadrature, 1-D or 2-D, entropy or Fisher, is the line-law rule: one
array kernel over the (D, K) component arrays of D 1-D mixtures, never the
mixture's own log-density or score; one pass of it gives each value and the
value at twice the step that certifies it.  Every 1-D estimator goes
through one entry, :func:`_line_quadrature`, on the line laws a . X of
:func:`line_laws`: :func:`projection_entropy` on unit directions a, the
other 1-D estimators on the law's own row a = [1].  The 2-D rule takes the
laws of X_1 given each outer node of X_0.  The same weights integrate f
itself; a rule whose mass is not 1 misses part of f and reports stderr inf.
A law whose components are closed under mu -> -mu, decided once per law,
has an even integrand on every line, so the rule evaluates only its nodes
with a nonnegative first coordinate, at doubled weights; the ``count`` of
an estimate is still the node count of the full rule.  One structure rule
gives h(X) (:func:`entropy_decomposed`) and I(X) (:func:`fisher_decomposed`)
as a sum over the blocks of :func:`coordinate_marginals`: a 1-D block is its
marginal's quadrature, each distinct marginal integrated once; a 2-D block
its 2-D rule, if that converged; any other block draws, h as its marginal
quadratures minus a Monte Carlo total correlation, I by :func:`fisher_mc`.
Alongside are Monte Carlo estimators for score cross terms, the
conditional-score projection identity, and a mixed-partial independence probe.

Every Monte Carlo mean (entropy, Fisher information, score cross term and
total correlation) is formed by :func:`_mc_estimate`, with a stderr from the
sample variance.  Results are accepted statistically (z-scores), never with
hidden absolute tolerances.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    NonFiniteLogDensityError,
    NonFiniteScoreError,
    NotUnitVectorError,
    RankDeficientError,
    TooFewSamplesError,
)
from .mixtures import coordinate_marginals, line_laws, push_forward_linear
from .streams import CHUNK_SIZE, mc_mean, split_seed

_ROUNDING_FLOOR = 1e-12
_CONVERGED = 1e-10  # largest change from twice the step, relative to 1 + |value|


@dataclass(frozen=True)
class Estimate:
    """A value with its standard error, method tag and count.

    ``method`` is one of mc_logdensity, mc_score, mc_cross_term,
    mc_total_correlation, quadrature_1d, quadrature_2d, decomposed, knn,
    debruijn and closed_form.  ``count`` is the draws of a Monte Carlo
    estimate, a decomposition or a de Bruijn estimate (both its sums; 0
    where every node is a quadrature), the node count of a quadrature rule,
    the sample size of a kNN estimate, and 0 for a closed form.
    """

    value: float
    stderr: float
    method: str
    count: int


def floored_stderr(stderr, value):
    """``stderr``, but never below the rounding level ``1e-12 * (1 + |value|)``.

    Deterministic estimates can report an error far below what their
    arithmetic resolves; a verdict must not read a last-bit difference as
    many sigmas.
    """
    return max(stderr, _ROUNDING_FLOOR * (1.0 + abs(value)))


def _checked_count(count):
    count = int(count)
    if count < 100:
        raise ValueError(f"count: must be >= 100 (got {count})")
    return count


def _mc_estimate(law, count, seed, statistic, method, error, what):
    """Monte Carlo mean of ``statistic(x)`` over ``count`` >= 100 draws x of ``law``.

    The draws come in the chunks of :func:`mc_mean`; a statistic that is
    not finite at some draw raises ``error``, naming ``what``.
    """
    count = _checked_count(count)

    def stat(m, s):
        values = statistic(law.sample(m, s))
        if not np.all(np.isfinite(values)):
            raise error(f"{what} non-finite at a sample point")
        return values

    value, stderr, used = mc_mean(stat, count, seed)
    return Estimate(value, stderr, method, used)


def entropy_mc(d, count, seed):
    """Monte Carlo entropy: minus the mean log-density at own samples."""
    return _mc_estimate(
        d,
        count,
        seed,
        lambda x: -np.asarray(d.log_density(x)),
        "mc_logdensity",
        NonFiniteLogDensityError,
        "log-density",
    )


def fisher_mc(d, count, seed):
    """Monte Carlo Fisher information: mean squared score norm at own samples."""

    def squared_norm(x):
        rho = np.asarray(d.score(x))
        return np.einsum("ij,ij->i", rho, rho)

    return _mc_estimate(d, count, seed, squared_norm, "mc_score", NonFiniteScoreError, "score")


def cross_term_mc(d, i, j, count, seed):
    """Monte Carlo estimate of E[score_i * score_j]; zero for symmetric laws."""
    n = d.dim
    i, j = int(i), int(j)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise IndexOutOfRangeError(
            f"indices: need distinct i, j in [0, {n}) (got i={i}, j={j})"
        )

    def product(x):
        rho = np.asarray(d.score(x))
        return rho[:, i] * rho[:, j]

    return _mc_estimate(d, count, seed, product, "mc_cross_term", NonFiniteScoreError, "score")


# --- nested trapezoidal quadrature -----------------------------------------

_STEPS = 128  # steps per half-range first tried, per line law and per grid axis


def _radius(means, stds):
    # R along the last axis: the largest |mean| plus 8 of the largest std
    return np.max(np.abs(means), axis=-1) + 8.0 * np.max(stds, axis=-1)


def _trapezoid(steps, fold):
    # the trapezoidal rule on [-R, R]: nodes R * unit, j / steps for j in
    # -steps..steps, at weights (R / steps) * pattern; folded, j in 0..steps
    # at doubled weights, the same rule for an even integrand
    unit = np.arange(0 if fold else -steps, steps + 1) / steps
    pattern = np.full(unit.size, 2.0 if fold else 1.0)
    pattern[[0, -1]] *= 0.5
    return unit, pattern


def _nested_sums(h, values, pattern):
    # the rule at step h along the last axis, and at step 2h: its even nodes
    # at twice their weights, endpoints included (steps are even)
    return h * (values @ pattern), 2.0 * h * (values[..., ::2] @ pattern[::2])


def _point_symmetric(mix):
    """Whether a law's components are closed under mu -> -mu, exactly.

    The rows ``(weight, covariance group, mu)`` and ``(weight, covariance
    group, -mu)`` of its components, each sorted, must be equal; bit-equal
    covariances share a kernel group (``GaussianMixture._group_of``).  No
    tolerance: a law symmetric only up to rounding is not folded.  A law
    that passes has every line law a . X point-symmetric too, as
    a . (-mu) is -(a . mu) and the variance a^T Sigma a is the same.
    """
    rows = np.column_stack([mix.weights, mix._group_of, mix.means])
    images = rows.copy()
    images[:, 2:] *= -1.0
    return np.array_equal(rows[np.lexsort(rows.T)], images[np.lexsort(images.T)])


def _quadrature(integrate, rows, refinements):
    """Row-wise integrals by the nested trapezoidal rule, with step halving.

    ``integrate(active, steps)`` returns, from one pass at ``steps`` steps per
    half-range and axis, the integrals, masses and integrals at twice the step
    of the rows ``active``.  Each row's steps double from ``_STEPS``, at most
    ``refinements`` times, until its mass is 1 and its value agrees with the
    one at twice the step, both to ``_CONVERGED``.  Returns per row the value,
    its stderr (that difference floored by :func:`floored_stderr`, or inf
    while the mass is off, as the rule then misses part of f) and its steps.
    """
    active, steps = np.arange(rows), _STEPS
    value, mass, coarse = integrate(active, steps)
    final = np.full(rows, steps)

    def differences():
        return np.where(np.abs(mass - 1.0) <= _CONVERGED, np.abs(value - coarse), math.inf)

    for _ in range(refinements):
        converged = differences() <= _CONVERGED * (1.0 + np.abs(value))
        active = active[~converged[active]]
        if not active.size:
            break
        steps *= 2
        value[active], mass[active], coarse[active] = integrate(active, steps)
        final[active] = steps
    values = value.tolist()
    stderrs = [floored_stderr(d, v) for d, v in zip(differences().tolist(), values)]
    return values, stderrs, final.tolist()


def _line_neg_f_log_f(t, total, top, x, means, variances):
    # -f log f from log f, with 0 where f is 0
    lf = np.log(total) + top
    if np.any(np.isnan(lf)) or np.any(np.isposinf(lf)):
        raise NonFiniteLogDensityError("log-density NaN or +inf inside quadrature range")
    return np.where(np.isneginf(lf), 0.0, -np.exp(lf) * lf)


def _line_f_score_squared(t, total, top, x, means, variances):
    # f rho^2 = exp(top) slope^2 / total, as rho = -slope / total, where
    # slope = sum_k t_k (x - mu_k) / v_k = x sum_k t_k / v_k - sum_k t_k mu_k / v_k
    inverse = 1.0 / variances[:, None, :]
    slope = x * (inverse @ t)[:, 0] - ((means[:, None, :] * inverse) @ t)[:, 0]
    values = np.exp(top) * slope * slope / total
    if not np.all(np.isfinite(values)):
        raise NonFiniteScoreError("score non-finite inside quadrature range")
    return values


def _line_integrals(integrand, log_weights, means, variances, radii, steps, fold):
    """Integrals over [-R_d, R_d] for the 1-D mixtures f_d, and their masses.

    Row d of the (D, K) arrays ``log_weights``, ``means`` and ``variances``
    holds the components of f_d, and the rule is :func:`_trapezoid` on its
    own range, folded onto [0, R_d] for every row when ``fold`` is set; a
    scalar ``radii`` gives all rows one node row.  One pass over rows x
    components x nodes, in slabs of at most CHUNK_SIZE node-components, gives
    ``t``, the weighted component densities over ``exp(top)``, and their sum
    ``total``, so f = exp(top) * total; ``integrand(t, total, top, x, means,
    variances)`` is the integrand at each node.  Returns the (3, D)
    integrals, masses and integrals at twice the step.
    """
    rows, k = means.shape
    unit, pattern = _trapezoid(steps, fold)
    nodes = unit.size
    x = np.broadcast_to(np.multiply.outer(radii, unit), (rows, nodes))
    h = np.broadcast_to(np.divide(radii, steps), rows)
    consts = log_weights - 0.5 * np.log(2.0 * math.pi * variances)
    scales = -0.5 / variances
    slab_rows = max(1, CHUNK_SIZE // (k * nodes))
    slab_nodes = max(1, CHUNK_SIZE // (k * slab_rows))
    out = np.empty((3, rows))
    for r in range(0, rows, slab_rows):
        rs = slice(r, r + slab_rows)
        values, f = np.empty(x[rs].shape), np.empty(x[rs].shape)
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
            total = t.sum(axis=1)
            values[:, cs] = integrand(t, total, top, x[rs, cs], means[rs], variances[rs])
            f[:, cs] = np.exp(top) * total
        out[0, rs], out[2, rs] = _nested_sums(h[rs], values, pattern)
        out[1, rs] = h[rs] * (f @ pattern)
    return out


def _line_quadrature(integrand, mix, directions):
    """Integrals over the line laws a . X, one :class:`Estimate` per row a of ``directions``.

    The rows are :func:`line_laws`; row d is integrated by
    :func:`_quadrature` over [-R_d, R_d], R_d from :func:`_radius` on its
    components, at most 4097 nodes, with one :func:`_line_integrals` call per
    refinement.  A law that :func:`_point_symmetric` finds invariant under
    x -> -x has every row integrated over [0, R_d] only.  ``count`` is the
    node count of the full final rule.
    """
    weights, means, variances = line_laws(mix, directions)
    log_weights = np.broadcast_to(np.log(weights), means.shape)
    radii = _radius(means, np.sqrt(variances))
    fold = _point_symmetric(mix)

    def integrate(rows, steps):
        lines = log_weights[rows], means[rows], variances[rows], radii[rows]
        return _line_integrals(integrand, *lines, steps, fold)

    values, stderrs, steps = _quadrature(integrate, len(means), 4)
    return [
        Estimate(v, e, "quadrature_1d", 2 * s + 1) for v, e, s in zip(values, stderrs, steps)
    ]


def _conditional_lines(weights, means, covs, x):
    # the line-law arrays of a 2-D mixture's f(x_0, .), one row per x_0 in x:
    # w_k N(x_0; mu_k0, S_k00) N(mu_k1 + (S_k01 / S_k00)(x_0 - mu_k0), S_k11 - S_k01^2 / S_k00)
    s00, s01, s11 = covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]
    gain = s01 / s00
    d = x[:, None] - means[:, 0]
    log_weights = np.log(weights) - 0.5 * (np.log(2.0 * math.pi * s00) + d * d / s00)
    return log_weights, means[:, 1] + gain * d, np.broadcast_to(s11 - gain * s01, d.shape)


def _grid_quadrature(integrand, mix, swap=False):
    """A 2-D law's integral over [-R, R]^2, R of :func:`_radius` on both axes.

    Both axes take the nodes of :func:`_trapezoid`, at most 1025^2 in all.
    The inner rule at each outer node x_0 is a row of :func:`_line_integrals`
    on f(x_0, .); ``swap`` adds the integral over the law with its
    coordinates swapped.  A law invariant under x -> -x
    (:func:`_point_symmetric`), and so its swap, takes the folded outer rule
    on [0, R].  ``count`` is the node count of the full final grid.
    """
    stds = np.sqrt(np.diagonal(mix.covs, axis1=1, axis2=2))
    radius = float(_radius(mix.means.ravel(), stds.ravel()))
    fold = _point_symmetric(mix)
    laws = [(mix.weights, mix.means, mix.covs)]
    if swap:
        laws.append((mix.weights, mix.means[:, ::-1], mix.covs[:, ::-1, ::-1]))

    def integrate(_, steps):
        unit, pattern = _trapezoid(steps, fold)
        x = radius * unit
        inner = [
            _line_integrals(integrand, *_conditional_lines(*law, x), radius, steps, False)
            for law in laws
        ]
        h = radius / steps
        fine, coarse = _nested_sums(h, sum(part[[0, 2]] for part in inner), pattern)
        # a swap integrates the same f over the same nodes: one mass serves both
        return np.array([[fine[0]], [h * (inner[0][1] @ pattern)], [coarse[1]]])

    [value], [stderr], [steps] = _quadrature(integrate, 1, 2)
    return Estimate(value, stderr, "quadrature_2d", (2 * steps + 1) ** 2)


def entropy_quadrature_1d(mix):
    """Entropy of a 1-D mixture by the adaptive nested trapezoidal rule.

    Integrates -f log f over [-R, R], R = max |mean| + 8 max std, which
    leaves a tail mass far below 1e-12.  The step R / 128 halves, at most 4
    times (4097 nodes), until the value is stable and the rule's mass is 1;
    stderr is |result - result at twice the step| floored at the rounding
    level, or inf if the mass is not 1.  A law invariant under x -> -x is
    integrated over [0, R] at doubled weights; ``count`` is the node count of
    the full rule.
    """
    if mix.dim != 1:
        raise ValueError(f"dim: quadrature needs a 1-D law (got dim {mix.dim})")
    [est] = _line_quadrature(_line_neg_f_log_f, mix, [[1.0]])
    return est


def entropy_quadrature_2d(mix):
    """Entropy of a 2-D mixture by the tensor product of the 1-D trapezoidal rule.

    Integrates -f log f over the square [-R, R]^2, R = max |mean| + 8 max
    std over both coordinates, at the step R / 128 on both axes, halved as
    in :func:`entropy_quadrature_1d` but at most twice (1025^2 nodes): the
    outer rule over x_0, and at each of its nodes the line-law rule on the
    law of f(x_0, .).  A law invariant under x -> -x takes the outer rule
    on [0, R] only; ``count`` is the node count of the full grid either way.
    """
    if mix.dim != 2:
        raise ValueError(f"dim: 2-D quadrature needs a 2-D law (got dim {mix.dim})")
    return _grid_quadrature(_line_neg_f_log_f, mix)


def fisher_quadrature(mix):
    """Trace Fisher information of a 1-D or 2-D mixture by quadrature of f |score|^2.

    The rule, radius and refinement are those of :func:`entropy_quadrature_1d`
    in 1-D and of :func:`entropy_quadrature_2d` in 2-D, where
    f |score|^2 = (d_0 f)^2 / f + (d_1 f)^2 / f takes each term on the line
    laws along its own axis.
    """
    if mix.dim == 1:
        [est] = _line_quadrature(_line_f_score_squared, mix, [[1.0]])
        return est
    if mix.dim == 2:
        return _grid_quadrature(_line_f_score_squared, mix, swap=True)
    raise ValueError(f"dim: Fisher quadrature needs a 1-D or 2-D law (got dim {mix.dim})")


def projection_entropy(mix, directions):
    """Entropies h(a . X), one :class:`Estimate` per unit row a of ``directions``.

    ``directions`` is a (D, n) block of unit rows.  The law of each a . X is
    the exact 1-D mixture of :func:`line_laws`, and its entropy is the rule
    of :func:`entropy_quadrature_1d`: the same radius, nodes and refinement,
    applied to all rows at once.  The error names the first row whose norm
    differs from 1 by more than 1e-10, or is not finite.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.ndim == 2:  # line_laws rejects any other shape
        norms = np.linalg.norm(directions, axis=1)
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-10))  # NaN is off too
        if off.size:
            raise NotUnitVectorError(
                f"directions row {off[0]}: norm {norms[off[0]]} differs from 1 by > 1e-10"
            )
    return _line_quadrature(_line_neg_f_log_f, mix, directions)


def _structure_rule(mix, count, seed, line, grid, draw):
    """One estimate per block of :func:`coordinate_marginals`, and their sum.

    A 1-D block is ``line`` on its marginal, once per distinct marginal; a
    2-D block is ``grid`` on its law if that converged; any other block is
    ``draw(law, marginals, line, count, seed)``.  A one-block law is that
    block at ``seed``; block j of a sum draws from stream -2 - j of ``seed``,
    which no chunk (>= 0) and no caller's stream -1 meets."""
    count = _checked_count(count)
    marginals, blocks = coordinate_marginals(mix)
    once = functools.cache(line)
    parts, draws = [], 0
    for j, block in enumerate(blocks):
        if len(block) == 1:
            parts.append(once(marginals[block[0]]))
            continue
        law = mix if len(blocks) == 1 else push_forward_linear(mix, np.eye(mix.dim)[list(block)])
        est = grid(law) if len(block) == 2 else None
        if est is None or est.stderr > _CONVERGED * (1.0 + abs(est.value)):
            block_seed = seed if len(blocks) == 1 else split_seed(seed, -2 - j)
            est = draw(law, [marginals[i] for i in block], once, count, block_seed)
            draws += est.count
        parts.append(est)
    if len(parts) == 1:
        return parts[0]
    value = math.fsum(p.value for p in parts)
    stderr = floored_stderr(math.hypot(*(p.stderr for p in parts)), value)
    return Estimate(value, stderr, "decomposed", draws)


def _entropy_draw(law, marginals, line, count, seed):
    # h = sum_i h(X_i) - TC, the total correlation TC drawn: the mean of its pointwise form
    def pointwise(x):
        out = law.log_density(x)
        for i, marginal in enumerate(marginals):
            out -= marginal.log_density(x[:, i : i + 1])
        return out

    tc = _mc_estimate(
        law, count, seed, pointwise, "mc_total_correlation", NonFiniteLogDensityError, "log-density"
    )
    parts = [line(m) for m in marginals]
    value = math.fsum(p.value for p in parts) - tc.value
    stderr = math.hypot(tc.stderr, *(p.stderr for p in parts))
    return Estimate(value, floored_stderr(stderr, value), "decomposed", tc.count)


def entropy_decomposed(mix, count, seed):
    """Entropy of a mixture by the structure rule, drawing only where it must.

    ``h(X) = sum_B h(X_B)`` over the blocks B of :func:`coordinate_marginals`:
    :func:`entropy_quadrature_1d` or :func:`entropy_quadrature_2d` for a 1-D
    block or a converged 2-D one, else ``sum_i h(X_i) - TC(X_B)``, the total
    correlation ``TC = E[log f(X_B) - sum_i log f_i(X_i)]`` (Watanabe 1960)
    drawn ``count`` times.  A sum of blocks is ``decomposed``; its ``count``
    is its draws, its stderr the combined one.
    """
    rules = entropy_quadrature_1d, entropy_quadrature_2d
    return _structure_rule(mix, count, seed, *rules, _entropy_draw)


def fisher_decomposed(mix, count, seed):
    """Trace Fisher information of a mixture by the rule of :func:`entropy_decomposed`.

    ``I(X) = sum_B I(X_B)`` (Stam 1959) over the same blocks:
    :func:`fisher_quadrature` for a 1-D block and for a 2-D block whose
    grid converged, and :func:`fisher_mc` over ``count`` draws for any other.
    """
    return _structure_rule(
        mix, count, seed, fisher_quadrature, fisher_quadrature,
        lambda law, marginals, line, count, seed: fisher_mc(law, count, seed),
    )


# --- nearest-neighbor entropy ---------------------------------------------

_JITTER = 1e-12
_KNN_FOLDS = 10


def _deduplicate(x):
    # every row after the first copy of its value gets jitter, drawn in row order
    later = np.ones(x.shape[0], dtype=bool)
    later[np.unique(x, axis=0, return_index=True)[1]] = False
    if not later.any():
        return x
    x = x.copy()
    rng = np.random.default_rng(0xD1CE)
    x[later] += _JITTER * rng.standard_normal((int(later.sum()), x.shape[1]))
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
        return Estimate(value, float("inf"), "knn", n_samples)
    fold_values = [
        _knn_value(x[f::folds], k) for f in range(folds)
    ]
    spread = float(np.std(fold_values, ddof=1) / math.sqrt(folds))
    drift = abs(float(np.mean(fold_values)) - value)
    return Estimate(value, math.hypot(spread, drift), "knn", n_samples)


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
    # Per-component conditionals of X given Y = A X, found once per distinct
    # covariance: gains and PSD factors of the conditional covariances
    # (eigenvalues below the floor are treated as exact zeros so degenerate
    # conditioning stays exact).
    covs = mix.covs[mix._heads]
    projected = a @ covs
    solved = np.linalg.solve(projected @ a.T, projected)
    cond_covs = covs - solved.transpose(0, 2, 1) @ projected
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cond_covs + cond_covs.transpose(0, 2, 1)))
    floors = 1e-12 * np.maximum(1.0, eigvals[:, -1:])
    factors = eigvecs * np.sqrt(np.where(eigvals < floors, 0.0, eigvals))[:, None, :]
    return solved[mix._group_of].transpose(0, 2, 1), factors[mix._group_of]


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
    gains, factors = _conditional_parts(mix, a)

    residuals, stderrs = [], []
    for p_idx, (y, lhs, post) in enumerate(zip(ys, lhs_all, posts)):
        if mix.n_components == 1:
            cond_mean = mix.means[0] + gains[0] @ (y - a @ mix.means[0])
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
                    cond_mean = mix.means[m] + gains[m] @ (y - a @ mix.means[m])
                    x[mask] = cond_mean + z[mask] @ factors[m].T
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
