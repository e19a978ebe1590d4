"""Gaussian-mixture probability laws on R^n.

The mixture family is the workhorse law of the package: it has an exact
log-density and score, it is closed under linear maps and under isotropic
Gaussian smoothing, and it can be projected onto the sign-symmetric class
by averaging reflections.  Everything here is pure and safe to call from
many threads; sampling takes an explicit seed.

Densities, scores and samples of a mixture whose components share one
covariance come from one vectorised kernel: a
(components x dim) @ (dim x points) product on whitened coordinates
cached at construction, reduced over components with whole-row vector
operations, and taken over blocks of points small enough to stay in
cache and on the calling thread.  That covers every builtin law and
every law derived from one by :func:`push_forward_linear`,
:func:`convolve_isotropic` or :func:`symmetrize`.  Mixtures whose
covariances differ, even in the last bit, fall back to a loop over
components.

All log-densities and entropies are in nats.
"""

import hashlib
import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, lapack, solve_triangular

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

_EIG_FLOOR = 1e-12
_MERGE_DECIMALS = 12
_RANK_TOL = 1e-10
# Multiply-adds in one matrix product of the shared-covariance kernel, which
# works through its points in row blocks of at most this size.  A block's
# points x components terms then stay in cache, and OpenBLAS runs products
# this small on the calling thread: larger ones are split over BLAS threads,
# and their time then swings with whatever else holds the cores.
_BLOCK_MADDS = 1 << 18


class GaussianMixture:
    """Finite Gaussian mixture with exact log-density, score, and sampling.

    Stores stacked component arrays plus cached Cholesky factors ``L_k``
    and log normalizers.  Use :func:`make_gaussian_mixture` to build one
    from ``(weight, mean, cov)`` triples with full validation.

    When every component has the same covariance ``L L^T`` (checked bit
    for bit at construction; the module docstring says which laws qualify),
    the mixture also caches ``W = L^-1``, the weighted mean ``c``, the
    whitened centred means ``M = (mu - c) W^T`` and one constant per
    component, ``log w_k - |M_k|^2 / 2 - log norm``.  ``log_density``,
    ``score`` and ``responsibilities`` then share one kernel, stored
    components-major: for ``yt = W (x - c)^T``, one column per point, the
    component log-terms are ``M yt + const - |yt|^2 / 2``, one GEMM
    reduced over its K rows by a max-shifted log-sum-exp, so each step of
    the reduction is one vector operation over all points of a block.  The
    score is ``((M^T p) / sum_k p - yt)^T W`` for the shifted exponentials
    ``p`` of the same pass.  The kernel runs over row blocks of at most
    ``_BLOCK_MADDS`` multiply-adds per product, reusing one block-sized
    buffer, and ``sample`` adds ``z L^T`` to the drawn means in blocks of
    the same product size.
    Centring on ``c`` keeps the expansion of ``|y - M_k|^2`` accurate for
    laws far from the origin.  Mixtures whose covariances differ take a
    per-component loop instead.
    """

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=float)
        self.means = np.asarray(means, dtype=float)
        self.covs = np.asarray(covs, dtype=float)
        self.dim = self.means.shape[1]
        self.n_components = self.weights.shape[0]
        self._log_weights = np.log(self.weights)
        half_log_2pi = 0.5 * self.dim * np.log(2.0 * np.pi)
        if np.all(self.covs == self.covs[0]):
            chol = np.linalg.cholesky(self.covs[0])
            self._chol = np.broadcast_to(chol, self.covs.shape)
            log_norm = float(np.log(chol.diagonal()).sum()) + half_log_2pi
            self._log_norms = np.full(self.n_components, log_norm)
            whiten = lapack.dtrtri(chol, lower=1)[0]
            center = self.weights @ self.means
            white_means = (self.means - center) @ whiten.T
            consts = (
                self._log_weights
                - 0.5 * np.einsum("ij,ij->i", white_means, white_means)
                - log_norm
            )[:, None]
            self._shared = (center, whiten, white_means, consts)
            self._block_rows = max(
                1, _BLOCK_MADDS // (self.dim * max(self.dim, self.n_components))
            )
        else:
            self._chol = np.linalg.cholesky(self.covs)
            log_diag = np.log(np.diagonal(self._chol, axis1=1, axis2=2))
            self._log_norms = np.sum(log_diag, axis=1) + half_log_2pi
            self._shared = None

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

    def _shared_blocks(self, x):
        # Yields (rows, yt, p, top) over row blocks of x on the shared path,
        # components-major: yt = W (x[rows] - c)^T has one column per point,
        # and p[k, i] * exp(top[i]) equals exp(g[k, i]) for the component
        # log-terms g = M yt + const, with max_k p[k, i] = 1.  Reductions
        # over k then run as K - 1 elementwise passes over whole rows of p.
        # p is one buffer, overwritten block after block.  On both paths a
        # non-finite point gives NaN for its own point only.
        center, whiten, white_means, consts = self._shared
        step = self._block_rows
        buf = np.empty(self.n_components * min(step, x.shape[0]))
        for start in range(0, x.shape[0], step):
            rows = slice(start, start + step)
            yt = whiten @ (x[rows] - center).T
            p = buf[: self.n_components * yt.shape[1]].reshape(self.n_components, -1)
            np.matmul(white_means, yt, out=p)
            p += consts
            top = p.max(axis=0)
            p -= top
            np.exp(p, out=p)
            yield rows, yt, p, top

    def _loop_terms(self, x):
        # Per-component path: returns (p, top) with p[i, k] * exp(top[i])
        # equal to w_k N_k(x_i) and max_k p[i, k] = 1.
        p = np.empty((x.shape[0], self.n_components))
        for k in range(self.n_components):
            z = solve_triangular(
                self._chol[k], (x - self.means[k]).T, lower=True, check_finite=False
            )
            p[:, k] = -0.5 * np.einsum("ij,ij->j", z, z)
        p += self._log_weights - self._log_norms
        top = p.max(axis=1)
        p -= top[:, None]
        np.exp(p, out=p)
        return p, top

    def log_density(self, x):
        """Log-density in nats, via a max-shifted log-sum-exp over components."""
        x, single = self._as_batch(x)
        if self._shared is None:
            p, top = self._loop_terms(x)
            out = np.log(p.sum(axis=1)) + top
        else:
            out = np.empty(x.shape[0])
            for rows, yt, p, top in self._shared_blocks(x):
                log_scale = top - 0.5 * np.einsum("ij,ij->j", yt, yt)
                out[rows] = np.log(p.sum(axis=0)) + log_scale
        return float(out[0]) if single else out

    def responsibilities(self, x):
        """Posterior component weights ``P(component k | X = x)``, one row per point."""
        x, single = self._as_batch(x)
        if self._shared is None:
            resp, _ = self._loop_terms(x)
            resp /= resp.sum(axis=1, keepdims=True)
        else:
            resp = np.empty((x.shape[0], self.n_components))
            for rows, _, p, _ in self._shared_blocks(x):
                resp[rows] = (p / p.sum(axis=0)).T
        return resp[0] if single else resp

    def score(self, x):
        """Gradient of the log-density, from posterior component weights."""
        x, single = self._as_batch(x)
        if self._shared is None:
            resp, _ = self._loop_terms(x)
            resp /= resp.sum(axis=1, keepdims=True)
            out = np.zeros_like(x)
            for k in range(self.n_components):
                diff = (x - self.means[k]).T
                grad_k = -cho_solve((self._chol[k], True), diff, check_finite=False).T
                out += resp[:, k, None] * grad_k
        else:
            # -Sigma^-1 (x - sum_k r_k mu_k) = ((M^T p) / sum_k p - yt)^T W
            _, whiten, white_means, _ = self._shared
            out = np.empty_like(x)
            for rows, yt, p, _ in self._shared_blocks(x):
                out[rows] = ((white_means.T @ p) / p.sum(axis=0) - yt).T @ whiten
        return out[0] if single else out

    def sample(self, count, seed):
        """Draw ``count`` points; deterministic given ``(count, seed)``."""
        count = int(count)
        if count < 1:
            raise ValueError(f"count: must be >= 1 (got {count})")
        rng = np.random.default_rng(int(seed))
        comp = rng.choice(self.n_components, size=count, p=self.weights)
        z = rng.standard_normal((count, self.dim))
        if self._shared is not None:
            out = self.means[comp]
            chol_t = self._chol[0].T
            step = max(1, _BLOCK_MADDS // (self.dim * self.dim))
            for start in range(0, count, step):
                rows = slice(start, start + step)
                out[rows] += z[rows] @ chol_t
            return out
        out = np.empty((count, self.dim))
        for k in range(self.n_components):
            mask = comp == k
            if np.any(mask):
                out[mask] = self.means[k] + z[mask] @ self._chol[k].T
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
    eigenvalue above 1e-12.
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
    keep the output off the shared-covariance kernel.  Guarded to n <= 12
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
