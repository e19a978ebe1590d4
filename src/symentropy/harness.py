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
    _each_marginal,
    entropy_decomposed,
    entropy_mc,
    entropy_quadrature_2d,
    fisher_mc,
    fisher_quadrature,
    floored_stderr,
    projection_entropy,
)
from .mixtures import (
    ROTATION_2D,
    check_independence,
    check_symmetry,
    coordinate_marginals,
    law_fingerprint,
    push_forward_linear,
    rotated_iid_construction,
)

HOLDS = "holds"
HOLDS_WITH_EQUALITY = "holds_with_equality"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


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


def _require_symmetric(mix):
    asymmetric = check_symmetry(mix).asymmetric_coordinates
    if asymmetric:
        raise NotSymmetricError(
            f"law changes under the sign flip of coordinate(s) {list(asymmetric)}; "
            "use asymmetric_counterexample for laws outside the symmetric class"
        )


def _directional_bounds(h_x, directions):
    """h(X)/n + log(n^{n/2} prod_i |a_i|) per row a of ``directions``, as floats.

    The bound is -inf for a row with an entry below 1e-15 in magnitude,
    whose logarithms are not taken.
    """
    n = directions.shape[1]
    magnitudes = np.abs(directions)
    zero = np.any(magnitudes < 1e-15, axis=1)
    logs = np.log(np.where(zero[:, None], 1.0, magnitudes))
    bounds = h_x / n + 0.5 * n * math.log(n) + np.sum(logs, axis=1)
    return np.where(zero, -np.inf, bounds).tolist()


def _ones_direction(n):
    return np.full(n, 1.0 / math.sqrt(n))


def verify_main(mix, budget=Budget()):
    """Check h(sum_i X_i / sqrt n) >= h(X) / n for a symmetric law."""
    _require_symmetric(mix)
    n = mix.dim
    [lhs] = projection_entropy(mix, _ones_direction(n)[None, :])
    hx = entropy_decomposed(mix, budget.samples, budget.seed)
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
    _require_symmetric(mix)
    n = mix.dim
    [lhs] = projection_entropy(mix, a[None, :])
    hx = entropy_decomposed(mix, budget.samples, budget.seed)
    [rhs] = _directional_bounds(hx.value, a[None, :])
    notes = ("sign_convention=prod|a_i| (sign flips of a preserve the law of a.X)",)
    if rhs == float("-inf"):
        notes += ("trivial_true=zero coordinate in a",)
    sigma = math.hypot(lhs.stderr, hx.stderr / n)
    return _inequality("corollary", lhs, rhs, sigma, mix, budget, notes=notes)


def verify_kdim(mix, projection, budget=Budget()):
    """Check h(A X) >= (k/n) h(X) for a balanced projection A.

    The lhs is quadrature for k <= 2 and Monte Carlo (``entropy_mc``) for
    k >= 3; the rhs is :func:`entropy_decomposed`.
    """
    matrix = getattr(projection, "matrix", projection)
    matrix = np.asarray(matrix, dtype=float)
    report = check_balanced(matrix, tol=1e-10)
    if not report.ok:
        raise NotBalancedError(
            f"projection is not balanced: row-gram deviation {report.row_gram_dev:.3e}, "
            f"column-norm deviation {report.col_norm_dev:.3e}"
        )
    _require_symmetric(mix)
    k, n = matrix.shape
    if k == 1:
        [lhs] = projection_entropy(mix, matrix)
    elif k == 2:
        lhs = entropy_quadrature_2d(push_forward_linear(mix, matrix))
    else:
        lhs = entropy_mc(push_forward_linear(mix, matrix), budget.samples, budget.seed)
    hx = entropy_decomposed(mix, budget.samples, budget.seed)
    sigma = math.hypot(lhs.stderr, (k / n) * hx.stderr)
    notes = (f"projection_shape={k}x{n}",)
    return _inequality("thm_kdim", lhs, (k / n) * hx.value, sigma, mix, budget, notes=notes)


def _fisher_information(mix, budget):
    """I(X) with its stderr and how it was computed.

    The trace of the Fisher information of a product law is the sum of its
    coordinates' (Stam 1959), so a law that :func:`coordinate_marginals`
    factors takes the sum of their 1-D quadratures.  Other 2-D laws take the
    2-D quadrature, and the rest ``fisher_mc``.  Equal marginals are
    integrated once.
    """
    marginals, product = coordinate_marginals(mix)
    if product:
        parts = _each_marginal(fisher_quadrature, marginals)
        value = math.fsum(p.value for p in parts)
        stderr = floored_stderr(math.hypot(*(p.stderr for p in parts)), value)
        return value, stderr, "marginal_quadrature_1d"
    if mix.dim == 2:
        fx = fisher_quadrature(mix)
    else:
        fx = fisher_mc(mix, budget.samples, budget.seed)
    return fx.value, fx.stderr, fx.method


def verify_fisher_lemma(mix, budget=Budget()):
    """Check I(sum_i X_i / sqrt n) <= I(X) / n for a symmetric law.

    I(Y) of the 1-D sum is quadrature; the note ``fisher_x`` says how I(X)
    was computed (see :func:`_fisher_information`).
    """
    _require_symmetric(mix)
    n = mix.dim
    y_mix = push_forward_linear(mix, _ones_direction(n)[None, :])
    lhs = fisher_quadrature(y_mix)
    fx, fx_stderr, fx_method = _fisher_information(mix, budget)
    sigma = math.hypot(lhs.stderr, fx_stderr / n)
    notes = (f"fisher_x={fx_method}",)
    return _inequality(
        "fisher_lemma", lhs, fx / n, sigma, mix, budget, direction=-1, notes=notes
    )


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
    # the line-law rule: the decomposed h2 below takes its marginal
    # quadratures by the same rule, so the gap of the equality case is zero
    # up to the rounding of the line law's arrays
    [lhs] = projection_entropy(law, _ones_direction(2)[None, :])
    h2 = entropy_decomposed(law, budget.samples, budget.seed, basis=ROTATION_2D)
    gap = lhs.value - h2.value / 2.0
    sigma = math.hypot(lhs.stderr, h2.stderr / 2.0)
    z_law = push_forward_linear(law, ROTATION_2D.T)
    return EqualityDemoReport(
        gap=gap,
        sigma=sigma,
        verdict=_verdict(gap, sigma, budget.tol_sigma),
        base_entropy=lhs,
        independence=check_independence(z_law, 0),
        coordinate_symmetry=check_symmetry(z_law),
        law_fingerprint=law_fingerprint(law),
        seed=budget.seed,
        budget=budget.samples,
    )


@dataclass(frozen=True)
class BasisIndependenceEvidence:
    """Whether the first rotated coordinate is independent of the rest."""

    basis_index: int
    independence: object


@dataclass(frozen=True)
class GaussianityProbeReport:
    """Equality gap plus independence verdicts across the basis family.

    Gaussian laws show a near-zero gap and pass every independence check;
    non-Gaussian symmetric laws show a positive gap and fail at least one.
    The gap is a numerical estimate; each independence verdict is exact,
    decided from the components of the rotated law.
    """

    main: InequalityReport
    evidence: tuple
    independence_failures: tuple

    @property
    def main_gap(self):
        return self.main.gap


def gaussianity_probe(mix, budget=Budget()):
    """Measure the equality gap and decide the basis-family independence relations.

    For each basis of :func:`proof_basis_family`, the rotated law's first
    coordinate Z_0 is checked for independence from the rest by
    :func:`check_independence`.  Where it is independent, the score
    component rho_0 depends on z_0 alone and has mean zero, so every cross
    term E[rho_0 rho_j] vanishes exactly and needs no estimate.
    """
    if mix.dim < 3:
        raise DimensionTooSmallError(f"probe needs n >= 3 (got {mix.dim})")
    main = verify_main(mix, budget)
    evidence = tuple(
        BasisIndependenceEvidence(
            basis_index=idx,
            independence=check_independence(push_forward_linear(mix, basis.matrix.T), 0),
        )
        for idx, basis in enumerate(proof_basis_family(mix.dim).bases)
    )
    failures = tuple(ev.basis_index for ev in evidence if not ev.independence.verdict)
    return GaussianityProbeReport(main=main, evidence=evidence, independence_failures=failures)


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
    invariant to coordinate sign flips of a.  Reports the grid argmax, the
    first row in grid order whose entropy is within its quadrature stderr
    of the largest; no claim is made that the maximum sits at the diagonal
    direction.
    """
    if mix.dim not in (2, 3):
        raise UnsupportedDimensionError(f"scan supports n in {{2, 3}} (got {mix.dim})")
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError(f"resolution: must be >= 1 (got {resolution})")
    _require_symmetric(mix)
    n = mix.dim
    hx = entropy_decomposed(mix, budget.samples, budget.seed)
    grid = np.array([a / np.linalg.norm(a) for a in _scan_directions(n, resolution)])
    estimates = projection_entropy(mix, grid)
    rows = []
    for a, est, bound in zip(grid, estimates, _directional_bounds(hx.value, grid)):
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
    # first in grid order among the rows within their own quadrature
    # stderr of the top entropy, so mirror rows of a symmetric law cannot
    # hand the argmax to rounding
    top = max(row.entropy for row in rows)
    best = next(
        r for r, row in enumerate(rows) if row.entropy >= top - estimates[r].stderr
    )
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
    sym = check_symmetry(mix)
    notes = (
        "closed_form=true",
        f"symmetric={sym.verdict}",
        "expected=violated" if rho < 0 else "expected=holds_or_equality",
    )
    return _inequality("thm_main", lhs, hx / 2.0, 0.0, mix, Budget(samples=0), notes=notes)
