"""Gaussian-mixture probability laws on R^n.

The mixture family is the workhorse law of the package: it has an exact
log-density and score, it is closed under linear maps and under isotropic
Gaussian smoothing, and it can be projected onto the sign-symmetric class
by averaging reflections.  Everything here is pure and safe to call from
many threads; sampling takes an explicit seed.

Densities, scores and samples come from one vectorised kernel over the
groups of components that share a covariance: per group, a
(components x dim) @ (dim x points) product on whitened coordinates
cached at construction, then one reduction over all components with
whole-row vector operations, taken over blocks of points small enough to
stay in cache and on the calling thread.  Every builtin law and every law
derived from one by :func:`push_forward_linear`,
:func:`convolve_isotropic` or :func:`symmetrize` has a single group;
covariances that differ, even in the last bit, make more groups.

All log-densities and entropies are in nats.
"""

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyMixtureError,
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

    Components are grouped by bit-equal covariance ``L_g L_g^T``.  Each
    group caches ``W_g = L_g^-1`` and the rows ``[M_k | const_k]`` of its
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
        half_log_2pi = 0.5 * self.dim * np.log(2.0 * np.pi)
        self._groups = []
        self._group_of = np.empty(self.n_components, dtype=np.intp)
        start = 0
        for members in map(np.array, shared.values()):
            self._group_of[members] = len(self._groups)
            chol = np.linalg.cholesky(self.covs[members[0]])
            whiten = lapack.dtrtri(chol, lower=1)[0]
            white_means = (self.means[members] - self._center) @ whiten.T
            consts = (
                np.log(self.weights[members])
                - 0.5 * np.einsum("ij,ij->i", white_means, white_means)
                - (float(np.log(chol.diagonal()).sum()) + half_log_2pi)
            )
            terms = np.column_stack([white_means, consts])
            span = slice(start, start + len(members))
            start = span.stop
            self._groups.append(_Group(span, chol, whiten, terms))
        self._order = np.concatenate(list(shared.values()))
        self._block_rows = max(
            1, _BLOCK_MADDS // ((self.dim + 1) * max(self.dim, self.n_components))
        )

    @property
    def components(self):
        """Components as a list of ``(weight, mean, cov)`` triples."""
        return [
            (float(w), self.means[k].copy(), self.covs[k].copy())
            for k, w in enumerate(self.weights)
        ]

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
        step = self._block_rows
        width = None
        for start in range(0, x.shape[0], step):
            rows = slice(start, start + step)
            d = (x[rows] - self._center).T
            if d.shape[1] != width:
                width = d.shape[1]
                p = np.empty((self.n_components, width))
                p_groups = [p[g.span] for g in self._groups]
                ys = np.ones((len(self._groups), self.dim + 1, width))
                yts = ys[:, : self.dim]
                tops = np.empty((len(self._groups), width))
            for g, p_g, y, top_g in zip(self._groups, p_groups, ys, tops):
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
        resp = np.empty((x.shape[0], self.n_components))
        for rows, _, p, _ in self._blocks(x):
            resp[rows, self._order] = (p / p.sum(axis=0)).T
        return resp[0] if single else resp

    def score(self, x):
        """Gradient of the log-density, from posterior component weights."""
        # -sum_k r_k Sigma_k^-1 (x - mu_k) = sum_g ((M_g^T p_g) / s - (s_g / s) yt_g)^T W_g
        x, single = self._as_batch(x)
        out = np.empty_like(x)
        for rows, yts, p, _ in self._blocks(x):
            sums = [p[g.span].sum(axis=0) for g in self._groups]
            total = sum(sums[1:], sums[0])
            parts = []
            for g, s_g, yt in zip(self._groups, sums, yts):
                grad = g.terms[:, :-1].T @ p[g.span]
                grad /= total
                yt *= s_g / total
                grad -= yt
                parts.append(grad.T @ g.whiten)
            out[rows] = sum(parts[1:], parts[0])
        return out[0] if single else out

    def sample(self, count, seed):
        """Draw ``count`` points; deterministic given ``(count, seed)``.

        Every point gets the first group's ``z L^T``; points drawn from any
        other group are then redone with that group's factor.
        """
        count = int(count)
        if count < 1:
            raise ValueError(f"count: must be >= 1 (got {count})")
        rng = np.random.default_rng(int(seed))
        comp = rng.choice(self.n_components, size=count, p=self.weights)
        z = rng.standard_normal((count, self.dim))
        out = self.means[comp]
        first, *rest = self._groups
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
        mean = self.weights @ self.means
        cov = np.zeros((self.dim, self.dim))
        for k in range(self.n_components):
            d = self.means[k] - mean
            cov += self.weights[k] * (self.covs[k] + np.outer(d, d))
        return cov

    def __repr__(self):
        return f"GaussianMixture(dim={self.dim}, n_components={self.n_components})"


class DensityModel:
    """Generic law on R^n assembled from callables.

    Exposes the same interface as :class:`GaussianMixture` (``dim``,
    ``log_density``, ``score``, ``sample``) so estimators accept either.
    """

    def __init__(self, dim, log_density, score, sampler):
        self.dim = int(dim)
        self._log_density = log_density
        self._score = score
        self._sampler = sampler

    def log_density(self, x):
        return self._log_density(np.asarray(x, dtype=float))

    def score(self, x):
        return self._score(np.asarray(x, dtype=float))

    def sample(self, count, seed):
        return np.asarray(self._sampler(int(count), int(seed)), dtype=float)


@dataclass(frozen=True)
class SymmetryReport:
    """Worst log-density mismatch between sign reflections of probe points."""

    max_violation: float
    probe_count: int
    verdict: bool
    tol: float


def make_gaussian_mixture(components):
    """Validate and build a :class:`GaussianMixture`.

    ``components`` is a nonempty list of ``(weight, mean, cov)``; scalars are
    accepted for 1-D laws.  Means and covariances must be finite.  Weights
    are normalized; covariances are forced symmetric and must have smallest
    eigenvalue above 1e-12.  The dimension is at most :data:`MAX_DIM`.
    """
    if not components:
        raise EmptyMixtureError("mixture needs at least one component")
    weights, means, covs = [], [], []
    dim = None
    for k, (w, mean, cov) in enumerate(components):
        w = float(w)
        if not np.isfinite(w) or w <= 0.0:
            raise ValueError(f"component {k}: weight must be positive and finite (got {w})")
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if mean.size == 0:
            raise DimensionMismatchError(f"component {k}: mean has zero length")
        if dim is None:
            dim = mean.shape[0]
            if dim > MAX_DIM:
                raise DimensionTooLargeError(
                    f"component {k}: dimension {dim} > {MAX_DIM}, the largest supported"
                )
        if mean.shape != (dim,) or cov.shape != (dim, dim):
            raise DimensionMismatchError(
                f"component {k}: mean shape {mean.shape}, cov shape {cov.shape}, "
                f"expected dimension {dim}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError(f"component {k}: mean and covariance must be finite")
        cov = 0.5 * (cov + cov.T)
        smallest = float(np.linalg.eigvalsh(cov)[0])
        if smallest <= _EIG_FLOOR:
            raise NotPositiveDefiniteError(
                f"component {k}: smallest covariance eigenvalue {smallest:.3e} <= 1e-12"
            )
        weights.append(w)
        means.append(mean)
        covs.append(cov)
    weights = np.asarray(weights)
    return GaussianMixture(weights / weights.sum(), np.asarray(means), np.asarray(covs))


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
    components = [
        (w, matrix @ mu, matrix @ cov @ matrix.T)
        for w, mu, cov in zip(mix.weights, mix.means, mix.covs)
    ]
    return make_gaussian_mixture(components)


def convolve_isotropic(mix, t):
    """Law of ``X + sqrt(t) Z`` with ``Z`` standard normal: covs become ``cov + t I``."""
    t = float(t)
    if t < 0.0:
        raise NegativeTimeError(f"t: must be >= 0 (got {t})")
    if t == 0.0:
        return GaussianMixture(mix.weights.copy(), mix.means.copy(), mix.covs.copy())
    eye = t * np.eye(mix.dim)
    return GaussianMixture(mix.weights.copy(), mix.means.copy(), mix.covs + eye)


def _rounded(a):
    # +0.0 turns -0.0 into +0.0 so reflected zeros fingerprint identically
    return tuple(np.round(a + 0.0, _MERGE_DECIMALS).ravel().tolist())


def symmetrize(mix, max_dim=12):
    """Project a mixture onto the sign-symmetric class.

    Averages the 2^n coordinate sign reflections of every component and
    merges reflected duplicates by (mean, cov) fingerprint, so symmetric
    inputs are fixed points.  Reflected covariances with the same rounded
    fingerprint share the first such array, so rounding residues do not
    split the output into more covariance groups.  Guarded to n <= 12
    because the component count multiplies by up to 2^n.
    """
    n = mix.dim
    if n > max_dim:
        raise DimensionTooLargeError(
            f"dim {n} > {max_dim}: reflection count 2^n is too large"
        )
    merged = {}
    covs = {}
    scale = 1.0 / (1 << n)
    for w, mu, cov in zip(mix.weights, mix.means, mix.covs):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            s = np.asarray(signs)
            mean_r = s * mu
            cov_r = cov * np.outer(s, s)
            cov_key = _rounded(cov_r)
            cov_r = covs.setdefault(cov_key, cov_r)
            key = _rounded(mean_r) + cov_key
            if key in merged:
                merged[key][0] += w * scale
            else:
                merged[key] = [w * scale, mean_r, cov_r]
    items = sorted(merged.items(), key=lambda kv: kv[0])
    return make_gaussian_mixture([(w, m, c) for w, m, c in (v for _, v in items)])


def check_symmetry(d, probes=32, seed=0, tol=1e-8):
    """Compare log f at the single-coordinate sign flips of sampled probes.

    Reports the largest deviation of ``log f(S_i x)`` from ``log f(x)`` over
    the n flips ``S_i`` of one coordinate; a symmetric law shows only
    rounding noise.  The single flips generate the whole sign group, so
    invariance under them is invariance under every sign pattern, at a
    cost of ``probes * (n + 1)`` density evaluations.
    """
    probes = int(probes)
    if probes < 1:
        raise ValueError(f"probes: must be >= 1 (got {probes})")
    n = d.dim
    x = np.asarray(d.sample(probes, seed), dtype=float)
    flipped = np.repeat(x[None, :, :], n + 1, axis=0)
    for i in range(n):
        flipped[i + 1, :, i] *= -1.0
    lf = np.asarray(d.log_density(flipped.reshape(-1, n))).reshape(n + 1, probes)
    max_violation = float(np.max(np.abs(lf[1:] - lf[0])))
    return SymmetryReport(max_violation, probes, bool(max_violation <= tol), float(tol))


ROTATION_2D = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def rotated_iid_construction(base, probes=64, seed=0, tol=1e-8):
    """2-D law ``X = A Z`` with ``Z`` a pair of i.i.d. copies of ``base``.

    ``A`` is the 45-degree rotation, so ``(X1 + X2)/sqrt(2)`` recovers the
    base law exactly and the joint density factorizes as
    ``f(x) = f_base((x1+x2)/sqrt 2) * f_base((x1-x2)/sqrt 2)``.
    Mixture bases stay mixtures (product components, then pushforward).
    """
    if base.dim != 1:
        raise NotUnivariateError(f"base law must be 1-D (got dim {base.dim})")
    report = check_symmetry(base, probes=probes, seed=seed, tol=tol)
    if not report.verdict:
        raise NotSymmetricBaseError(
            f"base law violates symmetry by {report.max_violation:.3e} (tol {tol})"
        )
    if isinstance(base, GaussianMixture):
        product = [
            (wi * wj, np.array([mi[0], mj[0]]), np.diag([ci[0, 0], cj[0, 0]]))
            for wi, mi, ci in zip(base.weights, base.means, base.covs)
            for wj, mj, cj in zip(base.weights, base.means, base.covs)
        ]
        return push_forward_linear(make_gaussian_mixture(product), ROTATION_2D)

    def log_density(x):
        single = x.ndim == 1
        x2 = np.atleast_2d(x)
        z = x2 @ ROTATION_2D  # rows of z are A^T x
        lf = np.asarray(base.log_density(z[:, :1])) + np.asarray(base.log_density(z[:, 1:]))
        return float(lf[0]) if single else lf

    def score(x):
        single = x.ndim == 1
        x2 = np.atleast_2d(x)
        z = x2 @ ROTATION_2D
        rho = np.column_stack(
            [np.asarray(base.score(z[:, :1])).ravel(), np.asarray(base.score(z[:, 1:])).ravel()]
        )
        out = rho @ ROTATION_2D.T
        return out[0] if single else out

    def sampler(count, seed_):
        z = np.asarray(base.sample(2 * count, seed_)).reshape(count, 2)
        return z @ ROTATION_2D.T

    return DensityModel(2, log_density, score, sampler)


def sample(d, count, seed):
    """Draw ``count`` points from any law exposing the sampling interface."""
    return d.sample(count, seed)


# --- JSON round-trip (17 significant digits, bit-exact) -------------------

def _fmt(x):
    return format(float(x), ".17g")


def mixture_to_json(mix):
    """Serialize to ``{dim, components: [{weight, mean, cov}]}`` with 17-digit decimals."""
    parts = []
    for w, mean, cov in mix.components:
        mean_txt = ", ".join(_fmt(v) for v in mean)
        cov_txt = ", ".join(
            "[" + ", ".join(_fmt(v) for v in row) + "]" for row in cov
        )
        parts.append(
            '{"weight": %s, "mean": [%s], "cov": [%s]}' % (_fmt(w), mean_txt, cov_txt)
        )
    return '{"dim": %d, "components": [%s]}' % (mix.dim, ", ".join(parts))


def mixture_from_json(text):
    """Parse a mixture specification written by :func:`mixture_to_json`."""
    obj = json.loads(text)
    components = [(c["weight"], c["mean"], c["cov"]) for c in obj["components"]]
    mix = make_gaussian_mixture(components)
    if mix.dim != int(obj["dim"]):
        raise DimensionMismatchError(
            f"declared dim {obj['dim']} != component dim {mix.dim}"
        )
    return mix


def law_fingerprint(mix):
    """Stable hex digest of the canonical mixture JSON."""
    return hashlib.sha256(mixture_to_json(mix).encode("ascii")).hexdigest()[:16]
