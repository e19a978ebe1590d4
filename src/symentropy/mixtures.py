"""Gaussian-mixture probability laws on R^n.

The mixture family is the workhorse law of the package: it has an exact
log-density and score, it is closed under linear maps and under isotropic
Gaussian smoothing, and it can be projected onto the sign-symmetric class
by averaging reflections.  Everything here is pure and safe to call from
many threads; sampling takes an explicit seed.

Densities, scores and samples come from one vectorised kernel over the
groups of components that share a covariance: per group, a
(components x dim) @ (dim x points) product on whitened coordinates, from
tables built on first use, then one reduction over all components with
whole-row vector operations, taken over blocks of points small enough to
stay in cache and on the calling thread.  Every builtin law and every law
derived from one by :func:`push_forward_linear`,
:func:`convolve_isotropic` or :func:`symmetrize` has a single group;
covariances that differ, even in the last bit, make more groups.
:func:`line_laws` merges the components that are bit-equal in every row.

All log-densities and entropies are in nats.
"""

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyMixtureError,
    IndexOutOfRangeError,
    InvalidComponentError,
    NegativeTimeError,
    NotPositiveDefiniteError,
    NotSymmetricBaseError,
    NotUnivariateError,
    RankDeficientError,
)
from .streams import CHUNK_SIZE

# Largest law dimension: one CHUNK_SIZE x n float64 sample chunk stays
# within 256 MiB.
MAX_DIM = (256 << 20) // (8 * CHUNK_SIZE)

_EIG_FLOOR = 1e-12
_MERGE_DECIMALS = 12
_SYMMETRIZE_MAX_DIM = 12
_SPLIT_MAX_DIM = 12  # largest law that coordinate_marginals splits into blocks
_RANK_TOL = 1e-10
# Multiply-adds in one matrix product of the mixture kernel, which
# works through its points in row blocks of at most this size.  A block's
# points x components terms then stay in cache, and OpenBLAS runs products
# this small on the calling thread: larger ones are split over BLAS threads,
# and their time then swings with whatever else holds the cores.
_BLOCK_MADDS = 1 << 18


class _Group(NamedTuple):
    """Components that share one covariance ``L L^T``, with their kernel terms."""

    span: slice  # the members' rows in the kernel's block of log-terms
    chol: np.ndarray  # L
    whiten: np.ndarray  # W = L^-1
    terms: np.ndarray  # [M | const], one row per member


class GaussianMixture:
    """Finite Gaussian mixture with exact log-density, score, and sampling.

    Use :func:`make_gaussian_mixture` to build one from ``(weight, mean,
    cov)`` triples with full validation.

    Components are grouped by bit-equal covariance ``L_g L_g^T``, and a
    mixture is built with that grouping only.  The first ``log_density``,
    ``score``, ``responsibilities`` or ``sample`` call builds, per group,
    ``L_g``, ``W_g = L_g^-1`` and the rows ``[M_k | const_k]`` of its
    members: whitened means ``M_k = (mu_k - c) W_g^T`` about the weighted
    mean ``c`` of the whole mixture, which keeps the expansion accurate far
    from the origin, and ``const_k = log w_k - |M_k|^2 / 2 - log norm_g``.
    For ``yt_g = W_g (x - c)^T``, one column per point, group g's
    log-terms are ``[M_g | const] @ [yt_g; 1] - |yt_g|^2 / 2``: one GEMM
    per group, then one max-shifted log-sum-exp over all K rows, each step
    a vector operation over all points of a block.  With the shifted
    exponentials ``p``, ``s_g`` the sum of group g's rows and ``s`` their
    total, the score is ``sum_g ((M_g^T p_g) / s - (s_g / s) yt_g)^T W_g``.
    ``log_density``, ``score`` and ``responsibilities`` share this kernel
    over row blocks of at most ``_BLOCK_MADDS`` multiply-adds per product;
    ``sample`` adds ``z L_g^T`` to the drawn means in blocks of the same
    product size.
    """

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=float)
        self.means = np.asarray(means, dtype=float)
        self.covs = np.asarray(covs, dtype=float)
        self.dim = self.means.shape[1]
        self.n_components = self.weights.shape[0]
        self._center = self.weights @ self.means
        # + 0.0 turns -0.0 into +0.0, so equal covariances share one key
        shared = {}
        for k, cov in enumerate(self.covs + 0.0):
            shared.setdefault(cov.tobytes(), []).append(k)
        self._group_of = np.empty(self.n_components, dtype=np.intp)  # each component's group
        for g, members in enumerate(shared.values()):
            self._group_of[members] = g
        self._heads = np.array([members[0] for members in shared.values()])  # each group's first
        self._block_rows = max(
            1, _BLOCK_MADDS // ((self.dim + 1) * max(self.dim, self.n_components))
        )

    @functools.cached_property
    def _kernel(self):
        # one _Group per covariance group; threads that race here build equal tables
        order = np.argsort(self._group_of, kind="stable")  # the kernel's row order
        chols = np.linalg.cholesky(self.covs[self._heads])
        whitens = np.linalg.inv(chols)
        log_norms = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        log_norms += 0.5 * self.dim * np.log(2.0 * np.pi)
        stops = np.cumsum(np.bincount(self._group_of)).tolist()
        groups, start = [], 0
        for chol, whiten, log_norm, stop in zip(chols, whitens, log_norms.tolist(), stops):
            members = order[start:stop]
            white_means = (self.means[members] - self._center) @ whiten.T
            consts = (
                np.log(self.weights[members])
                - 0.5 * np.einsum("ij,ij->i", white_means, white_means)
                - log_norm
            )
            terms = np.column_stack([white_means, consts])
            groups.append(_Group(slice(start, stop), chol, whiten, terms))
            start = stop
        return groups

    def _as_batch(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points have dimension {x.shape[1]}, law has dimension {self.dim}"
            )
        return x, single

    def _blocks(self, x):
        # Yields (rows, yts, p, top) per row block, components-major:
        # yts[g] = W_g (x[rows] - c)^T, one column per point, and
        # p[k, i] * exp(top[i]) = w_k N_k(x_i), components in group order
        # (group g's rows are p[span_g]) and max_k p[k, i] = 1.  Each group's
        # rows are shifted by their own max and quadratic, so no row holds
        # another group's |yt|^2.  The arrays are buffers refilled per block,
        # so a caller may scale them in place.  A non-finite point gives NaN
        # for its own point only.
        groups = self._kernel
        step = self._block_rows
        width = None
        for start in range(0, x.shape[0], step):
            rows = slice(start, start + step)
            d = (x[rows] - self._center).T
            if d.shape[1] != width:
                width = d.shape[1]
                p = np.empty((self.n_components, width))
                p_groups = [p[g.span] for g in groups]
                ys = np.ones((len(groups), self.dim + 1, width))
                yts = ys[:, : self.dim]
                tops = np.empty((len(groups), width))
            for g, p_g, y, top_g in zip(groups, p_groups, ys, tops):
                np.matmul(g.whiten, d, out=y[: self.dim])
                np.matmul(g.terms, y, out=p_g)
                p_g.max(axis=0, out=top_g)
            log_scales = np.einsum("gij,gij->gj", yts, yts)
            log_scales *= -0.5
            log_scales += tops
            top = log_scales.max(axis=0)
            log_scales -= top
            tops -= log_scales
            for p_g, shift in zip(p_groups, tops):
                p_g -= shift
            np.exp(p, out=p)
            yield rows, yts, p, top

    def log_density(self, x):
        """Log-density in nats, via a max-shifted log-sum-exp over components."""
        x, single = self._as_batch(x)
        out = np.empty(x.shape[0])
        for rows, _, p, top in self._blocks(x):
            out[rows] = np.log(p.sum(axis=0)) + top
        return float(out[0]) if single else out

    def responsibilities(self, x):
        """Posterior component weights ``P(component k | X = x)``, one row per point."""
        x, single = self._as_batch(x)
        order = np.argsort(self._group_of, kind="stable")  # the kernel's row order
        resp = np.empty((x.shape[0], self.n_components))
        for rows, _, p, _ in self._blocks(x):
            resp[rows, order] = (p / p.sum(axis=0)).T
        return resp[0] if single else resp

    def score(self, x):
        """Gradient of the log-density, from posterior component weights."""
        # -sum_k r_k Sigma_k^-1 (x - mu_k) = sum_g ((M_g^T p_g) / s - (s_g / s) yt_g)^T W_g
        x, single = self._as_batch(x)
        groups = self._kernel
        out = np.empty_like(x)
        for rows, yts, p, _ in self._blocks(x):
            sums = [p[g.span].sum(axis=0) for g in groups]
            total = sum(sums[1:], sums[0])
            parts = []
            for g, s_g, yt in zip(groups, sums, yts):
                grad = g.terms[:, :-1].T @ p[g.span]
                grad /= total
                yt *= s_g / total
                grad -= yt
                parts.append(grad.T @ g.whiten)
            out[rows] = sum(parts[1:], parts[0])
        return out[0] if single else out

    def sample(self, count, seed):
        """Draw ``count`` points; deterministic given ``(count, seed mod 2^64)``.

        Every point gets the first group's ``z L^T``; points drawn from any
        other group are then redone with that group's factor.
        """
        count = int(count)
        if count < 1:
            raise ValueError(f"count: must be >= 1 (got {count})")
        rng = np.random.default_rng(int(seed) % 2**64)
        comp = rng.choice(self.n_components, size=count, p=self.weights)
        z = rng.standard_normal((count, self.dim))
        out = self.means[comp]
        first, *rest = self._kernel
        step = max(1, _BLOCK_MADDS // (self.dim * self.dim))
        for start in range(0, count, step):
            rows = slice(start, start + step)
            out[rows] += z[rows] @ first.chol.T
            for i, g in enumerate(rest, 1):
                idx = start + np.flatnonzero(self._group_of[comp[rows]] == i)
                out[idx] = self.means[comp[idx]] + z[idx] @ g.chol.T
        return out

    def covariance(self):
        """Covariance matrix of the mixture law."""
        group_weights = np.bincount(self._group_of, weights=self.weights)
        # sum_k w_k d_k d_k^T as one product A^T A, which comes out exactly symmetric
        spread = (self.means - self._center) * np.sqrt(self.weights)[:, None]
        return np.tensordot(group_weights, self.covs[self._heads], axes=1) + spread.T @ spread

    def __repr__(self):
        return f"GaussianMixture(dim={self.dim}, n_components={self.n_components})"


@dataclass(frozen=True)
class SymmetryReport:
    """Whether the law is sign-symmetric, and the coordinates whose flip changes it."""

    verdict: bool
    asymmetric_coordinates: tuple


@dataclass(frozen=True)
class IndependenceReport:
    """Whether one coordinate of the law is independent of the rest, and why.

    ``max_cross_covariance`` is the largest rounded ``|Sigma_k[i, rest]|``,
    ``max_weight_residual`` the largest rounded ``|W - outer(p, q)|`` of the
    weight table over atom pairs, and ``atoms`` counts the distinct
    ``Z_i`` and ``Z_rest`` atoms.
    """

    verdict: bool
    coordinate: int
    max_cross_covariance: float
    max_weight_residual: float
    atoms: tuple


def make_gaussian_mixture(components):
    """Validate and build a :class:`GaussianMixture`.

    ``components`` is a nonempty list of ``(weight, mean, cov)``; scalars are
    accepted for 1-D laws.  Means and covariances must be finite.  Weights
    are normalized; covariances are forced symmetric and must have smallest
    eigenvalue above 1e-12 and a Cholesky factor.  The dimension is at most
    :data:`MAX_DIM`.  Each rule is checked once over all components, and an
    error names the first component that breaks it.
    """
    if not components:
        raise EmptyMixtureError("mixture needs at least one component")
    weights = np.array([float(w) for w, _, _ in components])
    try:  # one array pass; any other input takes the per-component pass below
        means = np.array([mean for _, mean, _ in components], dtype=float)
        covs = np.array([cov for _, _, cov in components], dtype=float)
    except (TypeError, ValueError):
        means = covs = np.empty(0)
    dim = means.shape[-1]
    if means.ndim == 2 and covs.shape == (*means.shape, dim) and 0 < dim <= MAX_DIM:
        return _checked_mixture(weights, means, covs)
    means = [np.atleast_1d(np.asarray(mean, dtype=float)) for _, mean, _ in components]
    covs = [np.atleast_2d(np.asarray(cov, dtype=float)) for _, _, cov in components]
    dim = means[0].shape[0]
    if means[0].size and dim > MAX_DIM:
        raise DimensionTooLargeError(
            f"component 0: dimension {dim} > {MAX_DIM}, the largest supported"
        )
    for k, (mean, cov) in enumerate(zip(means, covs)):
        if mean.size == 0:
            raise DimensionMismatchError(f"component {k}: mean has zero length")
        if mean.shape != (dim,) or cov.shape != (dim, dim):
            raise DimensionMismatchError(
                f"component {k}: mean shape {mean.shape}, cov shape {cov.shape}, "
                f"expected dimension {dim}"
            )
    return _checked_mixture(weights, np.asarray(means), np.asarray(covs))


def _first_fault(bad):
    """Index tuple of the first True entry of ``bad``, or None."""
    if not bad.any():
        return None
    return np.unravel_index(int(np.argmax(bad)), bad.shape)


def _check_variance_floor(smallest):
    """Raise unless every smallest covariance eigenvalue is above 1e-12.

    ``smallest`` holds one eigenvalue per component, shape (K,), or per row
    and component, shape (D, K); the error names the first that fails.
    """
    at = _first_fault(~(smallest > _EIG_FLOOR))
    if at is not None:
        row = f"row {at[0]}, " if len(at) == 2 else ""
        raise NotPositiveDefiniteError(
            f"{row}component {at[-1]}: smallest covariance eigenvalue "
            f"{smallest[at]:.3e} <= 1e-12"
        )


def _checked_mixture(weights, means, covs):
    """Build a mixture from stacked (K,), (K, n), (K, n, n) arrays of matching shape.

    The rules of :func:`make_gaussian_mixture` are each checked once over
    all components: positive finite weights with a finite sum, finite means
    and covariances, and covariances, forced symmetric, with smallest
    eigenvalue above 1e-12 and a Cholesky factor, found once per distinct
    covariance.  No other code accepts a covariance.
    """
    at = _first_fault(~(np.isfinite(weights) & (weights > 0.0)))
    if at is not None:
        raise InvalidComponentError(
            f"component {at[0]}: weight must be positive and finite (got {weights[at]})"
        )
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not np.isfinite(total):
        at = int(np.argmax(weights))
        raise InvalidComponentError(
            f"component {at}: weight {weights[at]} makes the sum of the weights overflow"
        )
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    at = _first_fault(~finite)
    if at is not None:
        raise InvalidComponentError(f"component {at[0]}: mean and covariance must be finite")
    mix = GaussianMixture(weights / total, means, 0.5 * (covs + covs.transpose(0, 2, 1)))
    heads = mix.covs[mix._heads]  # one per distinct covariance
    _check_variance_floor(np.linalg.eigvalsh(heads)[:, 0][mix._group_of])
    try:  # eigvalsh may pass what cannot factor
        np.linalg.cholesky(heads)
    except np.linalg.LinAlgError:
        for k, cov in zip(mix._heads.tolist(), heads):  # name the first that fails
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise NotPositiveDefiniteError(
                    f"component {k}: cov has no Cholesky factor"
                ) from None
    return mix


def push_forward_linear(mix, matrix):
    """Exact law of ``A X`` for a mixture ``X`` and full-row-rank ``A``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise DimensionMismatchError("projection matrix must be 2-D")
    k, n = matrix.shape
    if n != mix.dim:
        raise DimensionMismatchError(
            f"matrix has {n} columns, law has dimension {mix.dim}"
        )
    if k > n:
        raise RankDeficientError(f"matrix has more rows ({k}) than columns ({n})")
    smallest_sv = float(np.linalg.svd(matrix, compute_uv=False)[-1])
    if smallest_sv < _RANK_TOL:
        raise RankDeficientError(
            f"smallest singular value {smallest_sv:.3e} < 1e-10"
        )
    # one A mu_k product per component, so each mean rounds as a lone
    # matrix-vector product would; the result is C-contiguous
    means = np.matmul(matrix, mix.means[:, :, None])[:, :, 0]
    covs = matrix @ mix.covs[mix._heads] @ matrix.T  # once per distinct covariance
    return _checked_mixture(mix.weights, means, covs[mix._group_of])


def line_laws(mix, directions):
    """The 1-D laws of ``a . X`` for every row ``a`` of ``directions``, as arrays.

    Returns ``(weights, means, variances)``: the component weights that
    every row shares, and the (D, K) arrays ``a_d . mu_k`` and
    ``a_d^T Sigma_k a_d``.  Components bit-equal (after ``+ 0.0``) in every
    row are merged in order of first appearance, their weights summed, so K
    counts the distinct ones.  Row d is the law of
    ``push_forward_linear(mix, directions[d:d + 1])`` up to rounding, and
    its variances meet the same 1e-12 floor; an error names the row and
    component that fails it.  Rows are not checked for rank: a zero row
    fails the floor.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != mix.dim:
        raise DimensionMismatchError(
            f"directions: expected a 2-D block of rows of length {mix.dim} "
            f"(got shape {directions.shape})"
        )
    # (G, D, n): each distinct covariance is transformed once
    spread = directions @ mix.covs[mix._heads]
    variances = np.einsum("gdi,di->dg", spread, directions)[:, mix._group_of]
    _check_variance_floor(variances)
    means = directions @ mix.means.T
    first, label = _first_rows(np.concatenate([means, variances]).T + 0.0)
    weights = np.bincount(label, weights=mix.weights)
    return weights / mix.weights.sum(), means[:, first], variances[:, first]


def convolve_isotropic(mix, t):
    """Law of ``X + sqrt(t) Z``, ``Z`` standard normal, finite ``t >= 0``: covs gain ``t I``."""
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise NegativeTimeError(f"t: must be finite and >= 0 (got {t})")
    covs = mix.covs + t * np.eye(mix.dim) if t != 0.0 else mix.covs.copy()
    return GaussianMixture(mix.weights.copy(), mix.means.copy(), covs)


def _rounded(a):
    """``a`` at ``_MERGE_DECIMALS`` decimals: the one rule for equal components.

    ``+ 0.0`` after rounding turns ``-0.0`` into ``+0.0``, so rounded arrays
    that are equal by value are equal as bytes too.
    """
    return np.round(a, _MERGE_DECIMALS) + 0.0


def symmetrize(mix):
    """Project a mixture onto the sign-symmetric class.

    Averaging over the 2^n coordinate sign reflections is the product of the
    single-flip averages ``(I + S_i) / 2``, as the flips commute.  So for each
    i in turn, every component is followed by its ``S_i`` image, both at half
    the weight, and components equal at :func:`_rounded` merge, their weights
    summed: the first in (component, sign pattern) order stays, coordinate 0's
    sign varying slowest.  Mean coordinates that round to 0 are set to 0
    first, so the output's means are exact mirror images.  Covariances equal
    at the rounding then share the first such array, so residues do not split
    the covariance groups, and the components are sorted by their rounded
    ``[mean | cov]`` rows.  A symmetric input comes back with the same
    components, its weights moved at most in the last bits.  Guarded to
    n <= 12 because the output can hold 2^n components per input component.
    """
    n = mix.dim
    if n > _SYMMETRIZE_MAX_DIM:
        raise DimensionTooLargeError(
            f"dim {n} > {_SYMMETRIZE_MAX_DIM}: the output can hold 2^n components per input one"
        )
    weights, covs = mix.weights, mix.covs
    means = np.where(_rounded(mix.means) == 0.0, 0.0, mix.means)
    for flip in 1.0 - 2.0 * np.eye(n):  # row i is the diagonal of S_i
        weights = np.repeat(0.5 * weights, 2)
        means = np.stack([means, means * flip], axis=1).reshape(-1, n)
        covs = np.stack([covs, covs * np.outer(flip, flip)], axis=1).reshape(-1, n, n)
        table = _rounded(np.column_stack([means, covs.reshape(-1, n * n)]))
        first, label = _first_rows(table)
        weights = np.bincount(label, weights=weights)
        means, covs, table = means[first], covs[first], table[first]
    first, label = _first_rows(table[:, n:])
    order = np.lexsort(table.T[::-1])
    return _checked_mixture(weights[order], means[order], covs[first][label][order])


def coordinate_marginals(mix):
    """The n 1-D coordinate marginals of a mixture, and its independent blocks.

    Marginal i has the components ``(w_k, mu_k[i], Sigma_k[i, i])``, those
    equal at the rounding :func:`symmetrize` merges by summed into one, in
    ascending ``(mean, var)`` order.  The blocks, mutually independent tuples
    of coordinates, are singletons when every covariance is diagonal and the
    weights over the marginals' components factorize, at that rounding.  Else,
    for 3 <= n <= 12, each coordinate and then each pair independent (as in
    :func:`check_independence`) of the coordinates still left splits off in
    turn, and the rest is one block.  No sampling or density evaluation.
    """
    n = mix.dim
    variances = np.diagonal(mix.covs, axis1=1, axis2=2)
    # (mean, var) as one complex key, which sorts by mean, then var
    keys = _rounded(np.stack([mix.means, variances], axis=2)).view(complex)[:, :, 0]
    marginals, labels, built = [], [], {}
    for i in range(n):
        _, first, label = np.unique(keys[:, i], return_index=True, return_inverse=True)
        parts = np.bincount(label, weights=mix.weights), mix.means[first, i], variances[first, i]
        key = tuple(part.tobytes() for part in parts)
        if key not in built:
            built[key] = GaussianMixture(parts[0], parts[1][:, None], parts[2][:, None, None])
        marginals.append(built[key])
        labels.append(label)
    covs = _rounded(mix.covs[mix._heads])  # one per distinct covariance
    if not np.any(covs - covs * np.eye(n)) and _factorizes(labels, mix.weights):
        return marginals, tuple((i,) for i in range(n))
    if not 3 <= n <= _SPLIT_MAX_DIM:
        return marginals, (tuple(range(n)),)
    blocks, left = [], list(range(n))
    for part in [[i] for i in range(n)] + list(map(list, itertools.combinations(range(n), 2))):
        rest = [c for c in left if c not in part]
        apart = len(rest) == len(left) - len(part) > 0 and not np.any(covs[:, part][:, :, rest])
        if apart and _factorizes([_atoms(mix, part), _atoms(mix, rest)], mix.weights):
            blocks.append(tuple(part))
            left = rest
    return marginals, (*blocks, tuple(left))


def _factorizes(labels, weights):
    """Whether every combination of atoms, one per array of ``labels`` (each
    component's atom label 0..A-1 in a part), is some component's, and each
    one's summed weight is the product of its atoms' at :func:`_rounded`."""
    margins = [np.bincount(label, weights=weights) for label in labels]
    size = math.prod(len(m) for m in margins)
    if size > len(weights):  # a combination is missing
        return False
    codes, product = 0, np.ones(1)
    for label, margin in zip(labels, margins):
        codes = codes * len(margin) + label
        product = np.outer(product, margin).ravel()
    joint = np.bincount(codes, weights=weights, minlength=size)  # weights are > 0
    return bool(joint.all()) and not np.any(_rounded(joint - product))


def _atoms(mix, coords):
    # each component's label 0..A-1 of its rounded (mu, Sigma) on ``coords``
    inner = mix.covs[:, coords][:, :, coords].reshape(mix.n_components, -1)
    return _label_rows(_rounded(np.column_stack([mix.means[:, coords], inner])))[2]


def _label_rows(table):
    """Label the rows of a 2-D table so that rows equal byte for byte share a label.

    Each row is viewed as one void scalar; on a :func:`_rounded` table,
    rows equal by value are equal as bytes.  Returns ``(keys, first,
    label)``: the distinct rows as sorted void scalars, the index of each
    one's first occurrence, and each row's index into ``keys``.
    """
    table = np.ascontiguousarray(table)
    row = np.dtype((np.void, table.shape[1] * table.itemsize))
    keys, first, label = np.unique(
        table.view(row).ravel(), return_index=True, return_inverse=True
    )
    return keys, first, label.reshape(-1)


def _first_rows(table):
    """:func:`_label_rows` renumbered by first appearance: ``(first, label)``, each
    distinct row's first index, ascending, and each row's index into ``first``."""
    _, first, label = _label_rows(table)
    order = np.argsort(first)
    return first[order], np.argsort(order)[label]


def check_symmetry(mix):
    """Find the coordinates whose sign flip changes a mixture, from its components.

    Finite Gaussian mixtures are identifiable (Teicher 1963), so the flip
    ``S_i`` of coordinate i leaves the law unchanged exactly when it maps the
    multiset of components ``(w, mu, Sigma)`` onto itself as
    ``(w, S_i mu, S_i Sigma S_i)``.  Components equal at :func:`_rounded`
    are merged by summing their weights, which are then rounded the same
    way.  Each distinct covariance is flipped once, so a component is its
    rounded mean and covariance label, matched in one pass under the flips
    that move a mean or a covariance.  The single flips generate the whole
    sign group, so the law is symmetric when no coordinate is reported.  No
    sampling and no density evaluation.
    """
    n = mix.dim
    # one covariance per group: the distinct ones, bit for bit after + 0.0
    covs = _rounded(mix.covs[mix._heads])
    cov_keys, first, cov_label = _label_rows(covs.reshape(len(covs), -1))
    covs = covs[first]
    flips = 1.0 - 2.0 * np.eye(n)  # row i is the diagonal of S_i
    # flipped[i, c] labels S_i Sigma_c S_i among the covariances, -1 if absent
    flipped = np.tile(np.arange(len(covs), dtype=float), (n, 1))
    moves = (covs - covs * np.eye(n)).any(axis=(0, 2))  # flip i moves some covariance
    for i in np.flatnonzero(moves):
        image = covs * np.outer(flips[i], flips[i]) + 0.0
        rows = image.reshape(len(covs), -1).view(cov_keys.dtype)[:, 0]
        at = np.minimum(np.searchsorted(cov_keys, rows), len(covs) - 1)
        flipped[i] = np.where((covs[at] == image).all(axis=(1, 2)), at, -1.0)
    table = np.column_stack([_rounded(mix.means), cov_label[mix._group_of]])
    keys, first, label = _label_rows(table)
    weights = _rounded(np.bincount(label, weights=mix.weights))
    table = table[first]
    moved = np.flatnonzero(moves | table[:, :n].any(axis=0))
    images = table * np.column_stack([flips[moved], np.ones(len(moved))])[:, None, :] + 0.0
    images[:, :, n] = flipped[moved][:, table[:, n].astype(np.intp)]
    at = np.minimum(np.searchsorted(keys, images.view(keys.dtype)[..., 0]), len(keys) - 1)
    matched = (table[at] == images).all(axis=2) & (weights[at] == weights)
    asymmetric = moved[~matched.all(axis=1)].tolist()
    return SymmetryReport(not asymmetric, tuple(asymmetric))


def _weight_residual(a, b, weights):
    """Largest rounded ``|W - outer(p, q)|`` of the table ``W[a, b]`` of summed
    component weights and its margins ``p``, ``q``.  The table is built a block
    of rows at a time, so its memory stays bounded however many atoms there are."""
    p, q = np.bincount(a, weights=weights), np.bincount(b, weights=weights)
    step = max(1, _BLOCK_MADDS // len(q))
    worst = 0.0
    for start in range(0, len(p), step):
        table = -np.outer(p[start:start + step], q)
        inside = (a >= start) & (a < start + step)
        np.add.at(table, (a[inside] - start, b[inside]), weights[inside])
        worst = max(worst, float(np.abs(_rounded(table)).max()))
    return worst


def check_independence(mix, i):
    """Decide whether coordinate i of a mixture is independent of the others.

    The verdict is True exactly when, at :func:`_rounded`, every component
    has a zero cross-covariance block ``Sigma[i, rest]`` and the weights over
    the components' :func:`_atoms` on ``{i}`` and on the rest factorize
    (:func:`_factorizes`): a missing pair fails even when its product weight
    rounds to 0.  This is exact.  An independent law is the product of its
    two marginal mixtures, ``sum_ab p_a q_b N_a (x) N_b``, whose components
    all have a zero cross block and product weights.  Finite Gaussian
    mixtures are identifiable (Teicher 1963), so the law's own components,
    merged where equal, are exactly these.  Conversely, when the check
    passes, every component is ``N_a (x) N_b`` with weight ``p_a q_b``, and
    the sum factors.  No sampling and no density evaluation.
    """
    n = mix.dim
    i = int(i)
    if not 0 <= i < n:
        raise IndexOutOfRangeError(f"i: need 0 <= i < {n} (got {i})")
    rest = np.delete(np.arange(n), i)
    a = _atoms(mix, [i])
    b = _atoms(mix, rest) if rest.size else np.zeros_like(a)  # an empty Z_rest: one atom
    max_cross = float(np.abs(_rounded(mix.covs[:, i, rest])).max(initial=0.0))
    return IndependenceReport(
        verdict=max_cross == 0.0 and _factorizes([a, b], mix.weights),
        coordinate=i,
        max_cross_covariance=max_cross,
        max_weight_residual=_weight_residual(a, b, mix.weights),
        atoms=(int(a.max()) + 1, int(b.max()) + 1),
    )


ROTATION_2D = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def rotated_iid_construction(base):
    """2-D mixture ``X = A Z`` with ``Z`` a pair of i.i.d. copies of a 1-D mixture.

    ``A`` is the 45-degree rotation, so ``(X1 + X2)/sqrt(2)`` recovers the
    base law exactly and the joint density factorizes as
    ``f(x) = f_base((x1+x2)/sqrt 2) * f_base((x1-x2)/sqrt 2)``.  The law is
    the pushforward of the product components.
    """
    if base.dim != 1:
        raise NotUnivariateError(f"base law must be 1-D (got dim {base.dim})")
    if not check_symmetry(base).verdict:
        raise NotSymmetricBaseError("base law changes under the sign flip of coordinate 0")
    product = [
        (wi * wj, np.array([mi[0], mj[0]]), np.diag([ci[0, 0], cj[0, 0]]))
        for wi, mi, ci in zip(base.weights, base.means, base.covs)
        for wj, mj, cj in zip(base.weights, base.means, base.covs)
    ]
    return push_forward_linear(make_gaussian_mixture(product), ROTATION_2D)


# --- JSON round-trip (17 significant digits, bit-exact) -------------------

def mixture_to_json(mix):
    """Serialize to ``{dim, components: [{weight, mean, cov}]}`` with 17-digit decimals.

    Each distinct weight or mean coordinate and each distinct covariance
    block is formatted once by ``%.17g``, keyed by its bytes so that ``-0.0``
    keeps its sign, and each component's text is joined from those pieces.
    """
    k, n = mix.means.shape
    values = np.column_stack([mix.weights, mix.means]).reshape(-1, 1)
    _, first, at = _label_rows(values)
    texts = np.array(["%.17g" % v for v in values[first, 0].tolist()], dtype=object)
    row = "[" + ", ".join(["%.17g"] * n) + "]"
    covs = mix.covs.reshape(k, -1)
    _, first, label = _label_rows(covs)
    blocks = [("[" + ", ".join([row] * n) + "]") % tuple(c) for c in covs[first].tolist()]
    parts = ", ".join(
        '{"weight": %s, "mean": [%s], "cov": %s}' % (w, ", ".join(m), blocks[c])
        for (w, *m), c in zip(texts[at.reshape(k, n + 1)].tolist(), label.tolist())
    )
    return '{"dim": %d, "components": [%s]}' % (mix.dim, parts)


def mixture_from_json(text):
    """Parse a mixture written by :func:`mixture_to_json`.  Every weight, mean
    and covariance entry must be a JSON number (int or float, not bool)."""
    obj = json.loads(text)
    components = [(c["weight"], c["mean"], c["cov"]) for c in obj["components"]]
    values = [components]  # opened list by list down to the numbers
    while values:
        value = values.pop()
        if isinstance(value, (list, tuple)):
            values.extend(value[::-1])
        elif type(value) not in (int, float):
            raise TypeError(f"mixture values must be JSON numbers (got {value!r})")
    mix = make_gaussian_mixture(components)
    dim = obj["dim"]
    if type(dim) is not int or dim != mix.dim:  # a JSON integer, not a bool
        raise DimensionMismatchError(f"declared dim {dim!r} is not the component dim {mix.dim}")
    return mix


def law_fingerprint(mix):
    """Stable hex digest of the canonical mixture JSON."""
    return hashlib.sha256(mixture_to_json(mix).encode("ascii")).hexdigest()[:16]
