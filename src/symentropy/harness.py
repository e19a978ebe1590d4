"""Theorem-level verification harness.

Each operation assembles estimator output into an :class:`InequalityReport`
with a statistical verdict: a margin larger than ``tol_sigma`` combined
standard errors counts as a strict inequality, a margin within the band
counts as equality, and a margin below the band counts as a violation.
Violations are expected only for laws that fail the symmetry check.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bases import check_balanced, proof_basis_family
from .errors import (
    DimensionTooSmallError,
    NotBalancedError,
    NotSymmetricError,
    NotUnitVectorError,
    UnsupportedDimensionError,
)
from .estimators import (
    EntropyEstimate,
    cross_term_mc,
    entropy_mc,
    fisher_mc,
    mixed_partial_independence,
    projection_entropy,
)
from .mixtures import (
    ROTATION_2D,
    check_symmetry,
    law_fingerprint,
    push_forward_linear,
    rotated_iid_construction,
)
from .streams import split_seed

HOLDS = "holds"
HOLDS_WITH_EQUALITY = "holds_with_equality"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

_SYMMETRY_PROBES = 16
_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class Budget:
    """Sampling budget shared by the verification operations."""

    samples: int = 200_000
    seed: int = 0
    tol_sigma: float = 3.0


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality: lhs estimate, rhs value, gap, and verdict.

    ``gap`` is always lhs - rhs.  ``direction`` is +1 when the statement
    asserts lhs >= rhs and -1 when it asserts lhs <= rhs; the verdict is
    computed from the margin in the asserted direction.
    """

    statement: str  # thm_main | corollary | thm_kdim | fisher_lemma
    lhs: object
    rhs: float
    gap: float
    sigma: float
    verdict: str
    law_fingerprint: str
    seed: int
    budget: int
    direction: int = 1
    notes: tuple = ()

    def to_json_dict(self):
        return asdict(self)


def _verdict(margin, sigma, tol_sigma):
    if not np.isfinite(sigma) or np.isnan(margin):
        return INCONCLUSIVE
    band = tol_sigma * sigma
    if margin > band:
        return HOLDS
    if margin >= -band:
        return HOLDS_WITH_EQUALITY
    return VIOLATED


def _inequality(statement, lhs, rhs, sigma, mix, budget, direction=1, notes=()):
    """Report ``gap = lhs - rhs`` with the verdict on ``direction * gap``."""
    gap = lhs.value - rhs
    return InequalityReport(
        statement=statement,
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        sigma=sigma,
        verdict=_verdict(direction * gap, sigma, budget.tol_sigma),
        law_fingerprint=law_fingerprint(mix),
        seed=budget.seed,
        budget=budget.samples,
        direction=direction,
        notes=notes,
    )


def _require_symmetric(mix, seed):
    report = check_symmetry(mix, probes=_SYMMETRY_PROBES, seed=seed, tol=_SYMMETRY_TOL)
    if not report.verdict:
        raise NotSymmetricError(
            f"law violates coordinate-sign symmetry by {report.max_violation:.3e}; "
            "use asymmetric_counterexample for laws outside the symmetric class"
        )


def _directional_bound(h_x, a):
    """h(X)/n + log(n^{n/2} prod_i |a_i|); -inf when ``a`` has a zero entry."""
    n = a.size
    if np.any(np.abs(a) < 1e-15):
        return float("-inf")
    return h_x / n + 0.5 * n * math.log(n) + float(np.sum(np.log(np.abs(a))))


def _ones_direction(n):
    return np.full(n, 1.0 / math.sqrt(n))


def verify_main(mix, budget=Budget()):
    """Check h(sum_i X_i / sqrt n) >= h(X) / n for a symmetric law."""
    _require_symmetric(mix, budget.seed)
    n = mix.dim
    lhs = projection_entropy(mix, _ones_direction(n))
    hx = entropy_mc(mix, budget.samples, budget.seed)
    sigma = math.hypot(lhs.stderr, hx.stderr / n)
    return _inequality("thm_main", lhs, hx.value / n, sigma, mix, budget)


def verify_directional(mix, a, budget=Budget()):
    """Check h(a . X) >= h(X)/n + log(n^{n/2} prod_i |a_i|).

    The product uses |a_i|: for a symmetric law, flipping coordinate signs
    of ``a`` leaves the law of a . X unchanged, so the bound extends to
    directions with negative entries.  Directions with a zero entry make
    the bound -inf and the report is flagged trivially true.
    """
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > 1e-10:
        raise NotUnitVectorError(f"direction: norm {norm} differs from 1 by > 1e-10")
    _require_symmetric(mix, budget.seed)
    n = mix.dim
    lhs = projection_entropy(mix, a)
    hx = entropy_mc(mix, budget.samples, budget.seed)
    rhs = _directional_bound(hx.value, a)
    notes = ("sign_convention=prod|a_i| (sign flips of a preserve the law of a.X)",)
    if rhs == float("-inf"):
        notes += ("trivial_true=zero coordinate in a",)
    sigma = math.hypot(lhs.stderr, hx.stderr / n)
    return _inequality("corollary", lhs, rhs, sigma, mix, budget, notes=notes)


def verify_kdim(mix, projection, budget=Budget()):
    """Check h(A X) >= (k/n) h(X) for a balanced projection A."""
    matrix = getattr(projection, "matrix", projection)
    matrix = np.asarray(matrix, dtype=float)
    report = check_balanced(matrix, tol=1e-10)
    if not report.ok:
        raise NotBalancedError(
            f"projection is not balanced: row-gram deviation {report.row_gram_dev:.3e}, "
            f"column-norm deviation {report.col_norm_dev:.3e}"
        )
    _require_symmetric(mix, budget.seed)
    k, n = matrix.shape
    lhs = entropy_mc(push_forward_linear(mix, matrix), budget.samples, budget.seed)
    hx = entropy_mc(mix, budget.samples, budget.seed)
    sigma = math.hypot(lhs.stderr, (k / n) * hx.stderr)
    notes = (f"projection_shape={k}x{n}",)
    return _inequality("thm_kdim", lhs, (k / n) * hx.value, sigma, mix, budget, notes=notes)


def verify_fisher_lemma(mix, budget=Budget()):
    """Check I(sum_i X_i / sqrt n) <= I(X) / n for a symmetric law."""
    _require_symmetric(mix, budget.seed)
    n = mix.dim
    y_mix = push_forward_linear(mix, _ones_direction(n)[None, :])
    lhs = fisher_mc(y_mix, budget.samples, budget.seed)
    fx = fisher_mc(mix, budget.samples, budget.seed)
    sigma = math.hypot(lhs.stderr, fx.stderr / n)
    return _inequality("fisher_lemma", lhs, fx.value / n, sigma, mix, budget, direction=-1)


@dataclass(frozen=True)
class EqualityDemoReport:
    """Equality of the 2-D rotated-i.i.d. construction, plus the
    independence and symmetry of its unrotated coordinates."""

    gap: float
    sigma: float
    verdict: str
    base_entropy: EntropyEstimate
    independence: object
    coordinate_symmetry: object
    law_fingerprint: str
    seed: int
    budget: int


def equality_demo_n2(base, budget=Budget()):
    """Demonstrate h((X1+X2)/sqrt 2) = h(X)/2 for X built from i.i.d. symmetric parts."""
    law = rotated_iid_construction(base)
    lhs = projection_entropy(law, _ones_direction(2))
    h2 = entropy_mc(law, budget.samples, budget.seed)
    gap = lhs.value - h2.value / 2.0
    sigma = math.hypot(lhs.stderr, h2.stderr / 2.0)
    z_law = push_forward_linear(law, ROTATION_2D.T)
    independence = mixed_partial_independence(
        z_law, 0, probes=32, seed=split_seed(budget.seed, 1)
    )
    coordinate_symmetry = check_symmetry(
        z_law, probes=_SYMMETRY_PROBES, seed=budget.seed, tol=_SYMMETRY_TOL
    )
    return EqualityDemoReport(
        gap=gap,
        sigma=sigma,
        verdict=_verdict(gap, sigma, budget.tol_sigma),
        base_entropy=lhs,
        independence=independence,
        coordinate_symmetry=coordinate_symmetry,
        law_fingerprint=law_fingerprint(law),
        seed=budget.seed,
        budget=budget.samples,
    )


@dataclass(frozen=True)
class BasisIndependenceEvidence:
    """Independence diagnostics for one rotated coordinate system."""

    basis_index: int
    mixed_partial: object
    max_cross_z: float


@dataclass(frozen=True)
class GaussianityProbeReport:
    """Equality gap plus independence evidence across the basis family.

    Gaussian laws show a near-zero gap and pass every independence check;
    non-Gaussian symmetric laws show a positive gap and fail at least one.
    Both facts are recorded as numerical evidence, not asserted as proof.
    """

    main: InequalityReport
    evidence: tuple
    independence_failures: tuple

    @property
    def main_gap(self):
        return self.main.gap


def gaussianity_probe(mix, budget=Budget(), probes=32):
    """Measure the equality gap and the basis-family independence relations."""
    if mix.dim < 3:
        raise DimensionTooSmallError(f"probe needs n >= 3 (got {mix.dim})")
    main = verify_main(mix, budget)
    family = proof_basis_family(mix.dim)
    cross_count = max(2000, budget.samples // 10)
    evidence = []
    failures = []
    for idx, basis in enumerate(family.bases):
        z_law = push_forward_linear(mix, basis.matrix.T)
        mp = mixed_partial_independence(
            z_law, 0, probes=probes, seed=split_seed(budget.seed, 100 + idx)
        )
        zs = []
        for j in range(1, mix.dim):
            ct = cross_term_mc(z_law, 0, j, cross_count, split_seed(budget.seed, 200 + idx))
            if ct.stderr > 0:
                zs.append(abs(ct.value) / ct.stderr)
        evidence.append(
            BasisIndependenceEvidence(
                basis_index=idx,
                mixed_partial=mp,
                max_cross_z=float(max(zs)) if zs else 0.0,
            )
        )
        if not mp.verdict:
            failures.append(idx)
    return GaussianityProbeReport(
        main=main, evidence=tuple(evidence), independence_failures=tuple(failures)
    )


@dataclass(frozen=True)
class DirectionScanRow:
    direction: tuple
    entropy: float
    stderr: float
    bound: float
    margin: float
    verdict: str


@dataclass(frozen=True)
class DirectionScanReport:
    rows: tuple
    joint_entropy: EntropyEstimate
    argmax_direction: tuple
    law_fingerprint: str
    seed: int
    budget: int

    def to_csv(self):
        n = len(self.rows[0].direction)
        header = ",".join(f"a{i + 1}" for i in range(n))
        lines = [f"{header},entropy,stderr,bound,margin"]
        for row in self.rows:
            coords = ",".join(repr(v) for v in row.direction)
            lines.append(
                f"{coords},{row.entropy!r},{row.stderr!r},{row.bound!r},{row.margin!r}"
            )
        return "\n".join(lines) + "\n"


def _scan_directions(n, resolution):
    if n == 2:
        angles = np.arange(resolution) * (0.5 * math.pi / resolution)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    # Fibonacci sphere folded into the positive orthant by symmetry
    i = np.arange(resolution)
    z = (i + 0.5) / resolution
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    points = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return np.abs(points)


def direction_scan(mix, resolution=90, budget=Budget()):
    """Tabulate h(a . X) with its lower-bound certificate over a direction grid.

    Restricted to the positive orthant: the symmetric law makes h(a . X)
    invariant to coordinate sign flips of a.  Reports the grid argmax; no
    claim is made that the maximum sits at the diagonal direction.
    """
    if mix.dim not in (2, 3):
        raise UnsupportedDimensionError(f"scan supports n in {{2, 3}} (got {mix.dim})")
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError(f"resolution: must be >= 1 (got {resolution})")
    _require_symmetric(mix, budget.seed)
    n = mix.dim
    hx = entropy_mc(mix, budget.samples, budget.seed)
    rows = []
    for a in _scan_directions(n, resolution):
        a = a / np.linalg.norm(a)
        est = projection_entropy(mix, a)
        bound = _directional_bound(hx.value, a)
        stderr = math.hypot(est.stderr, hx.stderr / n)
        margin = est.value - bound
        rows.append(
            DirectionScanRow(
                direction=tuple(float(v) for v in a),
                entropy=est.value,
                stderr=stderr,
                bound=bound,
                margin=margin,
                verdict=_verdict(margin, stderr, budget.tol_sigma),
            )
        )
    best = max(range(len(rows)), key=lambda r: rows[r].entropy)
    return DirectionScanReport(
        rows=tuple(rows),
        joint_entropy=hx,
        argmax_direction=rows[best].direction,
        law_fingerprint=law_fingerprint(mix),
        seed=budget.seed,
        budget=budget.samples,
    )


def asymmetric_counterexample(rho=-0.9):
    """Closed-form failure of the sum bound outside the symmetric class.

    For the centered bivariate normal with unit variances and correlation
    rho, h((X1+X2)/sqrt 2) = 0.5 log(2 pi e (1+rho)) while h(X)/2 =
    0.25 log((2 pi e)^2 (1-rho^2)); at rho = -0.9 the gap is negative, so
    dropping the symmetry requirement breaks the bound.  Analytic path: no
    Monte Carlo, sigma = 0.
    """
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho: must lie in (-1, 1) (got {rho})")
    from .fixtures import correlated_gaussian

    mix = correlated_gaussian(rho)
    var_sum = 1.0 + rho
    lhs_value = 0.5 * math.log(2.0 * math.pi * math.e * var_sum)
    hx = 0.5 * math.log((2.0 * math.pi * math.e) ** 2 * (1.0 - rho * rho))
    lhs = EntropyEstimate(lhs_value, 0.0, "quadrature_1d", 0)
    sym = check_symmetry(mix, probes=_SYMMETRY_PROBES, seed=0, tol=_SYMMETRY_TOL)
    notes = (
        "closed_form=true",
        f"symmetric={sym.verdict}",
        "expected=violated" if rho < 0 else "expected=holds_or_equality",
    )
    return _inequality("thm_main", lhs, hx / 2.0, 0.0, mix, Budget(samples=0), notes=notes)
