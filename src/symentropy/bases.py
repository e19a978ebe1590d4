"""Exact small-matrix constructions: Gram-Schmidt, sign-vertex bases,
the basis family used by the n >= 3 equality analysis, and balanced
k x n projections.

Everything is deterministic; constructions representable in exact
arithmetic hold their invariants to 1e-12 in doubles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmallError,
    LinearlyDependentError,
    UnsupportedShapeError,
)

_ORTHO_TOL = 1e-12
_DEP_TOL = 1e-10


@dataclass(frozen=True)
class OrthonormalBasis:
    """Square matrix whose columns form an orthonormal basis of R^n."""

    matrix: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]

    def column(self, j):
        return self.matrix[:, j].copy()


@dataclass(frozen=True)
class BalancedProjection:
    """k x n matrix with orthonormal rows and constant column norms k/n."""

    matrix: np.ndarray

    def __post_init__(self):
        report = check_balanced(self.matrix, tol=_ORTHO_TOL)
        if not report.ok:
            raise UnsupportedShapeError(
                "matrix is not balanced: "
                f"row-gram deviation {report.row_gram_dev:.3e}, "
                f"column-norm deviation {report.col_norm_dev:.3e}"
            )

    @property
    def rows(self):
        return self.matrix.shape[0]

    @property
    def cols(self):
        return self.matrix.shape[1]


@dataclass(frozen=True)
class BalanceReport:
    ok: bool
    row_gram_dev: float
    col_norm_dev: float
    tol: float


@dataclass(frozen=True)
class ProofBasisFamily:
    """Sign-vertex vectors v1..vn plus the orthonormal bases built from them.

    Each basis ``A_i`` starts Gram-Schmidt at ``v_i`` (then v1, v2, ... with
    v_i removed), so the first column of ``A_i`` is ``v_i``, the last ``n-i``
    columns agree with ``A_1``, and ``R_i = A_1^T A_i`` is an i x i rotation
    padded by the identity.
    """

    n: int
    v: np.ndarray  # columns are the sign-vertex vectors
    bases: tuple
    rotations: tuple


def gram_schmidt(vectors):
    """Orthonormalize ``n`` vectors of R^n, preserving leading spans.

    Modified Gram-Schmidt with one reorthogonalization pass; the span of the
    first j outputs equals the span of the first j inputs for every j.
    """
    matrix = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    n, m = matrix.shape
    if n != m:
        raise LinearlyDependentError(m, f"need {n} vectors in R^{n}, got {m}")
    q = np.zeros((n, n))
    for j in range(n):
        u = matrix[:, j].copy()
        for _ in range(2):
            for i in range(j):
                u -= (q[:, i] @ u) * q[:, i]
        norm = float(np.linalg.norm(u))
        if norm <= _DEP_TOL * max(1.0, float(np.linalg.norm(matrix[:, j]))):
            raise LinearlyDependentError(j)
        q[:, j] = u / norm
    return OrthonormalBasis(q)


def _householder_ones_completion(n):
    # Reflector mapping e1 to the unit all-ones vector; symmetric orthogonal,
    # so its columns complete that vector to a basis.
    u = np.full(n, 1.0 / np.sqrt(n))
    v = u - np.eye(n)[:, 0]
    h = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    return h


def sign_vertex_basis(signs):
    """Orthonormal basis whose first column is ``signs / sqrt(n)``.

    Deterministic: the fixed Householder completion of the all-ones vertex,
    with row i sign-flipped wherever ``signs[i] == -1``.
    """
    s = np.asarray(signs, dtype=float)
    n = s.shape[0]
    if n < 2:
        raise DimensionTooSmallError(f"need n >= 2 (got {n})")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("signs: every entry must be +1 or -1")
    return OrthonormalBasis(s[:, None] * _householder_ones_completion(n))


def _sign_vertex_vectors(n):
    # v_i(j) = -1/sqrt(n) when i == j else +1/sqrt(n); for n=4 the first
    # vector switches to the all-ones vertex so that v1 . v2 = (n-4)/n != 0.
    v = (np.ones((n, n)) - 2.0 * np.eye(n)) / np.sqrt(n)
    if n == 4:
        v[:, 0] = 0.5
    return v


def proof_basis_family(n):
    """Build the n bases A_1..A_n from non-orthogonal sign-vertex vectors.

    Requires n >= 3: in two dimensions every pair of distinct sign vertices
    is orthogonal, so no valid choice of v1, v2 exists.
    """
    n = int(n)
    if n < 3:
        raise DimensionTooSmallError(f"need n >= 3 (got {n})")
    v = _sign_vertex_vectors(n)
    orders = [[0] + [j for j in range(n) if j != 0]]
    for i in range(1, n):
        orders.append([i] + [j for j in range(n) if j != i])
    bases = tuple(gram_schmidt([v[:, j] for j in order]) for order in orders)
    a1 = bases[0].matrix
    rotations = tuple(a1.T @ b.matrix for b in bases)
    return ProofBasisFamily(n=n, v=v, bases=bases, rotations=rotations)


def _sylvester_hadamard(n):
    if n & (n - 1) or n < 1:
        raise UnsupportedShapeError(
            f"n: hadamard rows need n a power of two (got {n})"
        )
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def balanced_projection(k, n, method="hadamard"):
    """Balanced k x n projection with orthonormal rows and column norms k/n.

    ``hadamard``: rows of the order-n Sylvester matrix scaled by 1/sqrt(n);
    exact entries +-1/sqrt(n).  Any ``n`` is accepted for k=1 (the all-ones
    row).  ``frequency_pairs``: k/2 cosine/sine row pairs at frequencies
    1..k/2, each pair contributing exactly 2/n to every column; needs k even
    and 2 <= k < n.
    """
    k, n = int(k), int(n)
    if method == "hadamard":
        if k == 1 and n >= 1:
            return BalancedProjection(np.full((1, n), 1.0 / np.sqrt(n)))
        if not (1 <= k <= n):
            raise UnsupportedShapeError(f"k: need 1 <= k <= n (got k={k}, n={n})")
        h = _sylvester_hadamard(n)
        return BalancedProjection(h[:k] / np.sqrt(n))
    if method == "frequency_pairs":
        if k % 2 or not (2 <= k < n):
            raise UnsupportedShapeError(
                f"k: frequency pairs need k even with 2 <= k < n (got k={k}, n={n})"
            )
        j = np.arange(n)
        rows = []
        for f in range(1, k // 2 + 1):
            angle = 2.0 * np.pi * f * j / n
            rows.append(np.sqrt(2.0 / n) * np.cos(angle))
            rows.append(np.sqrt(2.0 / n) * np.sin(angle))
        return BalancedProjection(np.asarray(rows))
    raise UnsupportedShapeError(
        f"method: expected 'hadamard' or 'frequency_pairs' (got {method!r})"
    )


def check_balanced(matrix, tol=1e-12):
    """Verify row orthonormality and the constant column-norm condition."""
    a = np.asarray(matrix, dtype=float)
    k, n = a.shape
    row_gram_dev = float(np.max(np.abs(a @ a.T - np.eye(k))))
    col_norm_dev = float(np.max(np.abs(np.sum(a * a, axis=0) - k / n)))
    ok = row_gram_dev <= tol and col_norm_dev <= tol
    return BalanceReport(ok=ok, row_gram_dev=row_gram_dev, col_norm_dev=col_norm_dev, tol=float(tol))

