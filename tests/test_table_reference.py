"""The table code of ``mixtures`` and ``fixtures`` against reference copies of
the per-component algorithms it replaced, and ``bases.gram_schmidt`` against
the column loop it replaced.

Each reference below is the earlier implementation, kept verbatim apart from
names: one pass per component, covariance group, coordinate or sign
reflection.  The library must agree with it bit for bit (arrays compared as
bytes, so ``-0.0`` and ``0.0`` differ), or raise the same error class with the
same message.  There are three exceptions.  ``symmetrize`` sums each merged
weight in another order, so its weights agree to a few ulp, and so does
``GaussianMixture.covariance``, which agrees to 2e-15 of its largest entry.
Householder QR and the modified Gram-Schmidt loop round differently, so their
Q factors agree to 1e-13 on well-conditioned inputs and by about cond * eps
beyond.
"""

import itertools
import math

import numpy as np
import pytest

import symentropy as se
from symentropy import estimators, heat_flow, mixtures
from symentropy.bases import _DEP_TOL
from symentropy.estimators import _point_symmetric
from symentropy.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyMixtureError,
    LinearlyDependentError,
    NotPositiveDefiniteError,
)
from symentropy.mixtures import MAX_DIM, _checked_mixture, _label_rows, _rounded


def reference_make_gaussian_mixture(components):
    if not components:
        raise EmptyMixtureError("mixture needs at least one component")
    weights = np.array([float(w) for w, _, _ in components])
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


def reference_bimodal_product(n, separation=2.0, var=1.0):
    n = int(n)
    if n > 10:
        raise ValueError(f"n: product fixture supports n <= 10 (got {n})")
    components = []
    for bits in range(1 << n):
        signs = np.array([1.0 if bits & (1 << j) else -1.0 for j in range(n)])
        components.append((0.5**n, separation * signs, var * np.eye(n)))
    return reference_make_gaussian_mixture(components)


def reference_coordinate_marginals(mix):
    variances = np.diagonal(mix.covs, axis1=1, axis2=2)
    keys = _rounded(np.stack([mix.means, variances], axis=2))
    marginals, labels = [], []
    for i in range(mix.dim):
        _, first, label = np.unique(keys[:, i], axis=0, return_index=True, return_inverse=True)
        label = label.reshape(-1)
        marginals.append(
            se.GaussianMixture(
                np.bincount(label, weights=mix.weights),
                mix.means[first, i][:, None],
                mix.covs[first, i, i][:, None, None],
            )
        )
        labels.append(label)
    if np.any(_rounded(mix.covs - mix.covs * np.eye(mix.dim))):
        return marginals, False
    combos, joint = np.unique(np.column_stack(labels), axis=0, return_inverse=True)
    if len(combos) != math.prod(m.n_components for m in marginals):
        return marginals, False
    joint_weights = np.bincount(joint.reshape(-1), weights=mix.weights)
    product_weights = np.prod([m.weights[combos[:, i]] for i, m in enumerate(marginals)], axis=0)
    return marginals, not np.any(_rounded(joint_weights - product_weights))


def reference_check_symmetry(mix):
    n = mix.dim
    table = _rounded(np.column_stack([mix.means, mix.covs.reshape(-1, n * n)]))
    keys, first, label = _label_rows(table)
    weights = _rounded(np.bincount(label, weights=mix.weights))
    table = table[first]
    covs = table[:, n:].reshape(-1, n, n)
    moved = (table[:, :n] != 0.0) | (covs - covs * np.eye(n)).any(axis=2)
    asymmetric = []
    for i in np.flatnonzero(moved.any(axis=0)):
        s = np.ones(n)
        s[i] = -1.0
        image = table[moved[:, i]] * np.concatenate([s, np.outer(s, s).ravel()]) + 0.0
        at = np.minimum(np.searchsorted(keys, image.view(keys.dtype).ravel()), len(keys) - 1)
        if not (
            np.array_equal(table[at], image)
            and np.array_equal(weights[at], weights[moved[:, i]])
        ):
            asymmetric.append(int(i))
    return se.SymmetryReport(not asymmetric, tuple(asymmetric))


def reference_mixture_to_json(mix):
    k, n = mix.means.shape
    row = ", ".join(["%.17g"] * n)
    template = '{"weight": %%.17g, "mean": [%s], "cov": [%s]}' % (
        row,
        ", ".join(["[" + row + "]"] * n),
    )
    table = np.column_stack([mix.weights, mix.means, mix.covs.reshape(k, -1)]).tolist()
    parts = ", ".join([template % tuple(values) for values in table])
    return '{"dim": %d, "components": [%s]}' % (mix.dim, parts)


def reference_line_laws(mix, directions):
    variances = np.einsum("kdi,di->dk", directions @ mix.covs, directions)
    return mix.weights / mix.weights.sum(), directions @ mix.means.T, variances


def reference_symmetrize(mix):
    # merges the 2^n reflections of every component in one dict
    n = mix.dim
    merged = {}
    covs = {}
    scale = 1.0 / (1 << n)
    for w, mu, cov in zip(mix.weights, mix.means, mix.covs):
        mu = np.where(_rounded(mu) == 0.0, 0.0, mu)
        for signs in itertools.product((1.0, -1.0), repeat=n):
            s = np.asarray(signs)
            mean_r = s * mu
            cov_r = cov * np.outer(s, s)
            cov_key = tuple(_rounded(cov_r).ravel().tolist())
            cov_r = covs.setdefault(cov_key, cov_r)
            key = tuple(_rounded(mean_r).tolist()) + cov_key
            if key in merged:
                merged[key][0] += w * scale
            else:
                merged[key] = [w * scale, mean_r, cov_r]
    items = sorted(merged.items(), key=lambda kv: kv[0])
    return se.make_gaussian_mixture([(w, m, c) for w, m, c in (v for _, v in items)])


def reference_push_forward_linear(mix, matrix):
    means = np.matmul(matrix, mix.means[:, :, None])[:, :, 0]
    return _checked_mixture(mix.weights, means, matrix @ mix.covs @ matrix.T)


def reference_kernel(mix):
    # factors and inverts each group's covariance in its own call
    order = np.argsort(mix._group_of, kind="stable")
    half_log_2pi = 0.5 * mix.dim * np.log(2.0 * np.pi)
    groups, start = [], 0
    for stop in np.cumsum(np.bincount(mix._group_of)).tolist():
        members = order[start:stop]
        chol = np.linalg.cholesky(mix.covs[members[0]])
        whiten = np.linalg.inv(chol)
        white_means = (mix.means[members] - mix._center) @ whiten.T
        consts = (
            np.log(mix.weights[members])
            - 0.5 * np.einsum("ij,ij->i", white_means, white_means)
            - (float(np.log(chol.diagonal()).sum()) + half_log_2pi)
        )
        terms = np.column_stack([white_means, consts])
        groups.append(mixtures._Group(slice(start, stop), chol, whiten, terms))
        start = stop
    return groups


def reference_covariance(mix):
    mean = mix.weights @ mix.means
    cov = np.zeros((mix.dim, mix.dim))
    for k in range(mix.n_components):
        d = mix.means[k] - mean
        cov += mix.weights[k] * (mix.covs[k] + np.outer(d, d))
    return cov


def reference_node_counts(mix, t, jac, budget):
    spread = np.zeros_like(t)
    group_weights = np.bincount(mix._group_of, weights=mix.weights)
    for cov, weight in zip(mix.covs[mix._heads], group_weights):
        spread += weight * (1.0 / (np.linalg.eigvalsh(cov)[:, None] + t) ** 2).sum(axis=0)
    share = jac * np.sqrt(spread)
    return np.maximum(heat_flow._MIN_NODE_COUNT, (budget * share / share.sum()).astype(int))


def reference_conditional_parts(mix, a):
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


# --- the laws ---------------------------------------------------------------

BUILTINS = [
    *(f"bimodal-product-n{n}" for n in range(1, 9)),
    "gaussian-iid-n1",
    "gaussian-iid-n3",
    "gaussian-iid-n64",
    "rotated-bimodal",
    "correlated-gaussian-rho0.5",
    "correlated-gaussian-rho-0.9",
]


def random_product(seed):
    """A product of 1-4 small 1-D mixtures, repeated factors and tied values
    included, with its components shuffled."""
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(rng.integers(1, 5)):
        if factors and rng.random() < 0.4:
            factors.append(factors[-1])
            continue
        k = rng.integers(1, 4)
        weights = rng.uniform(0.2, 1.0, k)
        factors.append(
            (
                weights / weights.sum(),
                rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], k),
                rng.choice([0.5, 1.0, 2.0], k),
            )
        )
    components = [
        (
            math.prod(f[0][c] for f, c in zip(factors, combo)),
            [f[1][c] for f, c in zip(factors, combo)],
            np.diag([f[2][c] for f, c in zip(factors, combo)]),
        )
        for combo in itertools.product(*(range(len(f[0])) for f in factors))
    ]
    order = rng.permutation(len(components))
    return se.make_gaussian_mixture([components[k] for k in order])


def random_mixture(seed):
    """1-3 components in dimension 1-3 with generic covariances."""
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 4)
    components = []
    for _ in range(rng.integers(1, 4)):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        cov = q @ np.diag(rng.uniform(0.2, 4.0, n)) @ q.T
        components.append((rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0, n), cov))
    return se.make_gaussian_mixture(components)


def _correlated_groups():
    rng = np.random.default_rng(8)
    covs = []
    for _ in range(3):
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        covs.append(q @ np.diag(rng.uniform(0.5, 2.0, 4)) @ q.T)
    return se.make_gaussian_mixture(
        [(rng.uniform(0.5, 1.5), rng.standard_normal(4), covs[g]) for g in (0, 1, 2, 0, 1)]
    )


SIGNED_ZERO_LAWS = {
    "signed-zero-means": se.make_gaussian_mixture(
        [(0.5, [-0.0, 1.0], np.eye(2)), (0.5, [0.0, -1.0], np.eye(2))]
    ),
    "signed-zero-covariances": se.make_gaussian_mixture(
        [
            (0.25, [0.0, 1.0], [[1.0, -0.0], [-0.0, 1.0]]),
            (0.25, [0.0, -1.0], np.eye(2)),
            (0.25, [-0.0, 1.0], np.eye(2)),
            (0.25, [-0.0, -1.0], [[1.0, -0.0], [-0.0, 1.0]]),
        ]
    ),
}

# not a product: (-2, 2) is missing, though its product weight 1e-13 and
# every other weight residue round to 0
NEGLIGIBLE_MISSING_COMBINATION = se.make_gaussian_mixture(
    [
        (0.5 - 1e-13, [-2.0, -2.0], np.eye(2)),
        (0.5 - 1e-13, [-2.0, -2.0], np.eye(2)),
        (1e-13, [2.0, -2.0], np.eye(2)),
        (1e-13, [2.0, 2.0], np.eye(2)),
    ]
)


def _generic_12d():
    # a diagonal and a generic covariance: 1 + 2^11 reflected covariances
    rng = np.random.default_rng(1)
    q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    return se.make_gaussian_mixture(
        [
            (0.3, rng.uniform(-2.0, 2.0, 12), np.eye(12)),
            (0.7, rng.uniform(-2.0, 2.0, 12), q @ np.diag(rng.uniform(0.5, 2.0, 12)) @ q.T),
        ]
    )


LAWS = {
    **{name: se.builtin_law(name) for name in BUILTINS},
    **{f"product-{seed}": random_product(seed) for seed in range(60)},
    **{f"symmetrized-{seed}": se.symmetrize(random_mixture(seed)) for seed in range(60)},
    **{f"raw-{seed}": random_mixture(seed) for seed in range(20)},
    "rotated-trimodal": se.rotated_iid_construction(se.trimodal_1d()),
    "correlated-groups": _correlated_groups(),
    "symmetrized-correlated-groups": se.symmetrize(_correlated_groups()),
    **SIGNED_ZERO_LAWS,
    "negligible-missing-combination": NEGLIGIBLE_MISSING_COMBINATION,
    "generic-12d": _generic_12d(),
}


def _same_arrays(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_coordinate_marginals_match_reference():
    for name, law in LAWS.items():
        marginals, blocks = se.coordinate_marginals(law)
        want, want_product = reference_coordinate_marginals(law)
        assert (blocks == tuple((i,) for i in range(law.dim))) == want_product, name
        assert len(marginals) == len(want), name
        for got, ref in zip(marginals, want):
            for field in ("weights", "means", "covs"):
                assert _same_arrays(getattr(got, field), getattr(ref, field)), (name, field)


def test_products_and_non_products_are_both_covered():
    flags = [reference_coordinate_marginals(law)[1] for law in LAWS.values()]
    assert 60 <= sum(flags) < len(flags)


def test_missing_combination_of_negligible_weight_breaks_product():
    assert se.coordinate_marginals(NEGLIGIBLE_MISSING_COMBINATION)[1] == ((0, 1),)


def test_symmetrized_laws_stay_one_block():
    # generic covariances: every cross-covariance is nonzero
    for seed in range(60):
        law = LAWS[f"symmetrized-{seed}"]
        assert se.coordinate_marginals(law)[1] == (tuple(range(law.dim)),), seed


@pytest.mark.parametrize("i", [0, 1])
def test_missing_combination_of_negligible_weight_breaks_independence(i):
    # the weight table's residue rounds to 0, but one atom pair is missing
    report = se.check_independence(NEGLIGIBLE_MISSING_COMBINATION, i)
    assert report.max_weight_residual == 0.0
    assert report.verdict is False


def test_equal_marginals_share_one_mixture():
    marginals, _ = se.coordinate_marginals(se.bimodal_product(8))
    assert all(m is marginals[0] for m in marginals)


def test_check_symmetry_matches_reference():
    for name, law in LAWS.items():
        assert se.check_symmetry(law) == reference_check_symmetry(law), name


@pytest.mark.parametrize(
    "mean_at, cov_at, asymmetric",
    [(None, None, ()), (300, None, (300,)), (None, (10, 20), (10, 20))],
    ids=["iid", "one-shifted-mean", "one-covariance-pair"],
)
def test_check_symmetry_matches_reference_at_n512(mean_at, cov_at, asymmetric):
    # only the flips that move a mean coordinate or a covariance entry are
    # matched; every other flip fixes every component
    mean, cov = np.zeros(512), np.eye(512)
    if mean_at is not None:
        mean[mean_at] = 0.5
    if cov_at is not None:
        cov[cov_at] = cov[cov_at[::-1]] = 0.3
    law = se.make_gaussian_mixture([(1.0, mean, cov)])
    report = se.check_symmetry(law)
    assert report == reference_check_symmetry(law)
    assert report.asymmetric_coordinates == asymmetric


def test_symmetric_and_asymmetric_laws_are_both_covered():
    verdicts = [reference_check_symmetry(law).verdict for law in LAWS.values()]
    assert 60 <= sum(verdicts) < len(verdicts)


def test_mixture_to_json_matches_reference():
    for name, law in LAWS.items():
        assert se.mixture_to_json(law) == reference_mixture_to_json(law), name


def test_json_keeps_the_sign_of_zero():
    text = se.mixture_to_json(SIGNED_ZERO_LAWS["signed-zero-covariances"])
    assert text.count("[[1, -0], [-0, 1]]") == 2 and text.count("[[1, 0], [0, 1]]") == 2
    assert text.count('"mean": [-0, ') == 2 and text.count('"mean": [0, ') == 2


@pytest.mark.parametrize("row", ["sum", "first-axis"])
def test_line_laws_merge_exactly(row):
    for name, law in LAWS.items():
        n = law.dim
        rows = np.full((1, n), 1.0 / math.sqrt(n)) if row == "sum" else np.eye(n)[:1]
        weights, means, variances = mixtures.line_laws(law, rows)
        ref_weights, ref_means, ref_variances = reference_line_laws(law, rows)
        columns = np.concatenate([means, variances]).T + 0.0
        # the merged columns are the distinct ones, in order of first appearance
        ref_columns = np.concatenate([ref_means, ref_variances]).T + 0.0
        _, first = np.unique(ref_columns, axis=0, return_index=True)
        assert _same_arrays(columns, ref_columns[np.sort(first)]), name
        # each carries the summed weight of its copies
        for column, w in zip(columns, weights):
            copies = (ref_columns == column).all(axis=1)
            assert w == pytest.approx(ref_weights[copies].sum(), rel=1e-15, abs=0.0), name
        if len(first) == law.n_components:
            assert _same_arrays(weights, ref_weights), name


@pytest.mark.parametrize("n, merged", [(1, 2), (3, 4), (8, 9)])
def test_sum_row_of_bimodal_product_merges_to_n_plus_one(n, merged):
    law = se.bimodal_product(n)
    weights, means, _ = mixtures.line_laws(law, np.full((1, n), 1.0 / math.sqrt(n)))
    assert means.shape == (1, merged)
    assert sorted(weights * 2**n) == sorted(math.comb(n, j) for j in range(n + 1))


def test_scan_rows_of_a_law_without_ties_are_unmerged():
    law = se.bimodal_product(3)
    grid = np.abs(np.random.default_rng(0).standard_normal((90, 3)))
    grid /= np.linalg.norm(grid, axis=1, keepdims=True)
    got, want = mixtures.line_laws(law, grid), reference_line_laws(law, grid)
    assert all(_same_arrays(a, b) for a, b in zip(got, want))


def test_symmetrize_matches_reference():
    for name, law in LAWS.items():
        if law.dim > mixtures._SYMMETRIZE_MAX_DIM:
            continue
        got, want = se.symmetrize(law), reference_symmetrize(law)
        for field in ("means", "covs", "_heads"):
            assert _same_arrays(getattr(got, field), getattr(want, field)), (name, field)
        ulps = np.abs(got.weights.view(np.int64) - want.weights.view(np.int64))
        assert ulps.max() <= 8, name
        assert _point_symmetric(got), name


def test_symmetrize_generic_12d_law():
    out = se.symmetrize(LAWS["generic-12d"])
    assert out.n_components == 2 * 2**12
    assert len(out._heads) == 1 + 2**11
    assert se.check_symmetry(out).verdict


def _fixed_rows(rows, n):
    # the first min(rows, n) rows of one fixed generic matrix, cut to n columns
    return np.random.default_rng(5).standard_normal((2, 64))[: min(rows, n), :n]


def test_push_forward_linear_matches_reference():
    for name, law in LAWS.items():
        matrix = _fixed_rows(2, law.dim)
        got = se.push_forward_linear(law, matrix)
        want = reference_push_forward_linear(law, matrix)
        for field in ("weights", "means", "covs", "_heads"):
            assert _same_arrays(getattr(got, field), getattr(want, field)), (name, field)


def test_kernel_matches_reference():
    for name, law in LAWS.items():
        want = reference_kernel(law)
        assert len(law._kernel) == len(want), name
        for got, ref in zip(law._kernel, want):
            assert got.span == ref.span, name
            for field in ("chol", "whiten", "terms"):
                assert _same_arrays(getattr(got, field), getattr(ref, field)), (name, field)


def test_covariance_matches_reference():
    # the sums run in another order, so they agree to rounding
    for name, law in LAWS.items():
        got, want = law.covariance(), reference_covariance(law)
        assert np.array_equal(got, got.T), name
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max(), name


def test_node_counts_match_reference():
    u, w = heat_flow._gl_unit_interval(48)
    t, jac = u / (1.0 - u), w / (1.0 - u) ** 2
    for name, law in LAWS.items():
        got = heat_flow._node_counts(law, t, jac, 48 * 20000)
        assert _same_arrays(got, reference_node_counts(law, t, jac, 48 * 20000)), name


@pytest.mark.parametrize("rows", [1, 2])
def test_conditional_parts_match_reference(rows):
    for name, law in LAWS.items():
        a = _fixed_rows(rows, law.dim)
        gains, factors = estimators._conditional_parts(law, a)
        want = reference_conditional_parts(law, a)
        assert len(gains) == len(factors) == len(want), name
        for gain, factor, (ref_gain, ref_factor) in zip(gains, factors, want):
            assert _same_arrays(gain, ref_gain) and _same_arrays(factor, ref_factor), name


PRODUCT_ARGS = [
    *((n, 2.0, 1.0) for n in range(11)),
    (3, 0.5, 2.5),
    (4, -1.5, 1e-6),
    (2, 0.0, 1.0),
    (11, 2.0, 1.0),
    (-1, 2.0, 1.0),
    (3, 2.0, 0.0),
    (3, 2.0, -1.0),
    (3, 2.0, 1e-13),
    (3, 2.0, math.nan),
    (3, 2.0, math.inf),
    (3, math.nan, 1.0),
    (3, math.inf, 1.0),
    (3, -math.inf, 1.0),
]


def _outcome(build, *args):
    try:
        law = build(*args)
    except Exception as exc:  # the error class and message are the outcome
        return type(exc), str(exc)
    return tuple(a.tobytes() for a in (law.weights, law.means, law.covs))


@pytest.mark.parametrize("args", PRODUCT_ARGS, ids=str)
def test_bimodal_product_matches_reference(args):
    assert _outcome(se.bimodal_product, *args) == _outcome(reference_bimodal_product, *args)


# past the eigenvalue floor, but without a Cholesky factor; scaled by 4, every
# step of the factorization scales exactly, so it fails the same way
NO_CHOLESKY = np.array(
    [
        [150039176.136264, -11600303.514384, -147416457.828324],
        [-11600303.514384, 896879.599054, 11397528.225194],
        [-147416457.828324, 11397528.225194, 144839586.824082],
    ]
)

MALFORMED = {
    "empty": [],
    "zero-length": [(1.0, [], [[1.0]])],
    "ragged-means": [(0.5, [0.0, 1.0], np.eye(2)), (0.5, [0.0], np.eye(2))],
    "cov-shape": [(0.5, [0.0, 1.0], np.eye(2)), (0.5, [0.0, 1.0], np.eye(3))],
    "matrix-mean": [(1.0, [[0.0, 1.0]], np.eye(2))],
    "too-large": [(1.0, np.zeros(MAX_DIM + 1), np.eye(MAX_DIM + 1))],
    "text-mean": [(1.0, ["a"], [[1.0]])],
    "scalars": [(0.5, -1.0, 1.0), (0.5, 1.0, 2.0)],
    "mixed-scalars": [(0.5, -1.0, [[1.0]]), (0.5, [1.0], 2.0)],
    "nan-weight": [(math.nan, [0.0], [[1.0]])],
    "not-pd": [(1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])],
    "two-without-cholesky": [
        (1.0, np.zeros(3), cov) for cov in (np.eye(3), 4.0 * NO_CHOLESKY, np.eye(3), NO_CHOLESKY)
    ],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_make_gaussian_mixture_matches_reference(name):
    components = MALFORMED[name]
    assert _outcome(se.make_gaussian_mixture, components) == _outcome(
        reference_make_gaussian_mixture, components
    )


def test_first_covariance_without_cholesky_factor_is_named():
    with pytest.raises(NotPositiveDefiniteError, match="^component 1: cov has no Cholesky factor$"):
        se.make_gaussian_mixture(MALFORMED["two-without-cholesky"])


# --- Gram-Schmidt -------------------------------------------------------------


def reference_gram_schmidt(vectors):
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
    return se.OrthonormalBasis(q)


def _columns(m):
    return [m[:, j] for j in range(m.shape[1])]


def _gram_schmidt_gap(vectors):
    return np.max(np.abs(se.gram_schmidt(vectors).matrix - reference_gram_schmidt(vectors).matrix))


def test_gram_schmidt_matches_reference_on_random_bases():
    for n in range(2, 65):
        m = np.random.default_rng(n).standard_normal((n, n))
        assert _gram_schmidt_gap(_columns(m)) <= 1e-13, n


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 64])
def test_gram_schmidt_matches_reference_on_the_proof_family(n):
    fam = se.proof_basis_family(n)
    for i, basis in enumerate(fam.bases):
        order = [i] + [j for j in range(n) if j != i]
        vectors = _columns(fam.v[:, order])
        assert np.array_equal(basis.matrix, se.gram_schmidt(vectors).matrix)
        assert _gram_schmidt_gap(vectors) <= 1e-13, i


def _dependent_inputs():
    rng = np.random.default_rng(5)
    cases = {
        "sum-of-two": _columns(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])),
        "zero-first": _columns(np.array([[0.0, 1.0], [0.0, 1.0]])),
        "repeated-last": _columns(np.array([[1.0, 2.0, 2.0], [3.0, 1.0, 1.0], [0.5, 4.0, 4.0]])),
        "too-few": [np.ones(3), np.arange(3.0)],
    }
    for n, j in [(4, 1), (6, 3), (8, 7), (16, 9)]:
        m = rng.standard_normal((n, n))
        m[:, j] = m[:, :j] @ rng.standard_normal(j)
        cases[f"n{n}-column{j}"] = _columns(m)
    return cases


DEPENDENT = _dependent_inputs()


@pytest.mark.parametrize("name", sorted(DEPENDENT))
def test_gram_schmidt_reports_the_reference_index(name):
    indices = []
    for build in (se.gram_schmidt, reference_gram_schmidt):
        with pytest.raises(LinearlyDependentError) as err:
            build(DEPENDENT[name])
        indices.append(err.value.index)
    assert indices[0] == indices[1]


@pytest.mark.parametrize("cond", [1e6, 1e8])
def test_ill_conditioned_gram_schmidt_keeps_spans_like_the_reference(cond):
    rng = np.random.default_rng(4)
    n = 6
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    m = u @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ v.T
    for build in (se.gram_schmidt, reference_gram_schmidt):
        q = build(_columns(m)).matrix
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12
        for j in range(1, n + 1):
            residual = m[:, :j] - q[:, :j] @ (q[:, :j].T @ m[:, :j])
            assert np.max(np.abs(residual)) <= 1e-12
