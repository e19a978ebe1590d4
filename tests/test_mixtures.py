import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import symentropy as se
from symentropy import estimators, mixtures
from symentropy.mixtures import ROTATION_2D, _rounded
from symentropy.streams import split_seed

HALF_LOG_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def gaussian_entropy(cov):
    cov = np.atleast_2d(cov)
    n = cov.shape[0]
    return 0.5 * math.log((2.0 * math.pi * math.e) ** n * np.linalg.det(cov))


@st.composite
def small_mixtures(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    components = []
    for _ in range(k):
        w = draw(st.floats(0.1, 5.0))
        mean = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(n)])
        diag = np.array([draw(st.floats(0.2, 4.0)) for _ in range(n)])
        # random rotation keeps the covariance generic but well conditioned
        raw = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(n)] for _ in range(n)])
        q = np.linalg.qr(raw + 3.0 * np.eye(n))[0]
        components.append((w, mean, q @ np.diag(diag) @ q.T))
    return se.make_gaussian_mixture(components)


class TestConstruction:
    def test_standard_normal_log_density_at_zero(self):
        m = se.make_gaussian_mixture([(1.0, 0, 1)])
        assert m.log_density(np.zeros(1)) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_weights_normalized(self):
        m = se.make_gaussian_mixture([(2.0, [0.0], [[1.0]]), (6.0, [1.0], [[1.0]])])
        assert np.allclose(m.weights, [0.25, 0.75])
        assert abs(m.weights.sum() - 1.0) < 1e-12

    def test_covariance_symmetrized(self):
        m = se.make_gaussian_mixture([(1.0, [0.0, 0.0], [[1.0, 0.3 + 1e-13], [0.3, 1.0]])])
        assert np.allclose(m.covs[0], m.covs[0].T)

    def test_empty_mixture(self):
        with pytest.raises(se.EmptyMixtureError):
            se.make_gaussian_mixture([])

    def test_dimension_mismatch(self):
        with pytest.raises(se.DimensionMismatchError):
            se.make_gaussian_mixture([(1.0, [0.0], [[1.0]]), (1.0, [0.0, 0.0], np.eye(2))])

    @pytest.mark.parametrize(
        "fault, error",
        [
            ((0.3, [np.nan, 0.0], np.eye(2)), se.InvalidComponentError),
            ((0.0, [0.0, 0.0], np.eye(2)), se.InvalidComponentError),
            ((0.3, [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]]), se.NotPositiveDefiniteError),
            ((0.3, [0.0, 0.0, 0.0], np.eye(3)), se.DimensionMismatchError),
        ],
        ids=["nan-mean", "zero-weight", "not-positive-definite", "shape-mismatch"],
    )
    def test_not_positive_definite_names_component(self, fault, error):
        # each rule is checked over all components at once; the error still
        # names the one component that breaks it
        good = (0.3, [1.0, -1.0], np.eye(2))
        with pytest.raises(error, match="component 2"):
            se.make_gaussian_mixture([good, good, fault])

    @pytest.mark.parametrize(
        "bad",
        [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1e-13]]],
        ids=["singular", "below-floor"],
    )
    def test_repeated_bad_covariance_names_its_first_component(self, bad):
        # components 3 and 7 share one bad covariance, checked once
        good = (0.1, [0.0, 0.0], np.eye(2))
        components = [good] * 10
        components[3] = components[7] = (0.1, [1.0, 0.0], bad)
        with pytest.raises(se.NotPositiveDefiniteError, match="component 3:"):
            se.make_gaussian_mixture(components)

    @pytest.mark.parametrize("at", [0, 2])
    def test_covariance_without_cholesky_factor_names_component(self, at):
        # eigvalsh puts its smallest eigenvalue at 6.9e-9, past the floor,
        # but beside one of 3e8 it does not resolve it, and the factor fails
        cov = [
            [150039176.136264, -11600303.514384, -147416457.828324],
            [-11600303.514384, 896879.599054, 11397528.225194],
            [-147416457.828324, 11397528.225194, 144839586.824082],
        ]
        assert np.linalg.eigvalsh(cov)[0] > 1e-12
        components = [(1.0, [0.0, 0.0, float(k)], np.eye(3)) for k in range(4)]
        components[at] = (1.0, [0.0, 0.0, 0.0], cov)
        with pytest.raises(se.NotPositiveDefiniteError, match=f"component {at}: .*Cholesky"):
            se.make_gaussian_mixture(components)

    def test_eigenvalues_once_per_distinct_covariance(self, monkeypatch):
        law = se.bimodal_product(8)
        blocks = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            blocks.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        built = se.make_gaussian_mixture(list(zip(law.weights, law.means, law.covs)))
        assert blocks == [1] and law.n_components == 256
        assert np.array_equal(built.covs, law.covs)

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            se.make_gaussian_mixture([(0.0, [0.0], [[1.0]])])

    def test_weight_sum_overflow(self):
        # each weight is finite but their sum is not: normalising would give zeros
        with pytest.raises(se.InvalidComponentError, match="component 1: weight .* overflow"):
            se.make_gaussian_mixture([(1e307, [1.0], [[1.0]]), (1.7e308, [-1.0], [[1.0]])])
        w = np.array([1e308, 5e307])
        law = se.make_gaussian_mixture([(w[0], [1.0], [[1.0]]), (w[1], [-1.0], [[1.0]])])
        assert np.array_equal(law.weights, w / w.sum())

    def test_valid_but_asymmetric_correlated_gaussian(self):
        # det 0.19 > 0: construction succeeds, symmetry check fails
        m = se.correlated_gaussian(-0.9)
        assert not se.check_symmetry(m).verdict
        # the cross term of log f flips sign between (1,1) and (1,-1)
        assert m.log_density(np.array([1.0, 1.0])) != pytest.approx(
            m.log_density(np.array([1.0, -1.0])), abs=1e-6
        )


class TestScoreAndDensity:
    def _finite_difference(self, law, x, h=1e-6):
        grad = np.empty_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            grad[i] = (law.log_density(x + e) - law.log_density(x - e)) / (2 * h)
        return grad

    def test_score_matches_finite_differences_on_fixtures(self):
        # mixture-backed laws carry analytic scores: 1e-8 relative agreement
        for law in [se.gaussian_iid(2), se.bimodal_product(2), se.rotated_bimodal()]:
            for x in law.sample(100, 3):
                fd = self._finite_difference(law, x)
                s = law.score(x)
                assert np.allclose(s, fd, atol=1e-8 * (1 + np.abs(s).max())), (law, x)

    @settings(max_examples=25, deadline=None)
    @given(small_mixtures())
    def test_score_is_gradient_of_log_density(self, law):
        for x in law.sample(5, 11):
            fd = self._finite_difference(law, x)
            assert np.allclose(law.score(x), fd, atol=1e-5 * (1 + np.abs(fd).max()))

    @settings(max_examples=15, deadline=None)
    @given(small_mixtures())
    def test_log_density_matches_normalised_oracle(self, law):
        # scipy's per-component densities are normalised, so agreement with
        # them also checks that the mixture density integrates to one
        x = law.sample(2000, 17)
        center = law.weights @ law.means
        x = np.concatenate([x, center + 3.0 * (x - center)])
        _assert_close(law.log_density(x), _oracle(law, x)[0], law)

    def test_batch_matches_single_point(self):
        law = se.bimodal_product(2)
        pts = law.sample(4, 1)
        batch = law.log_density(pts)
        for i, p in enumerate(pts):
            assert batch[i] == pytest.approx(law.log_density(p), abs=1e-14)


def _oracle(law, x):
    """Log-density, responsibilities and score, one scipy call per component."""
    log_terms = np.column_stack(
        [
            np.log(w) + multivariate_normal.logpdf(x, mean=mu, cov=cov)
            for w, mu, cov in zip(law.weights, law.means, law.covs)
        ]
    ).reshape(x.shape[0], law.n_components)
    log_f = logsumexp(log_terms, axis=1)
    resp = np.exp(log_terms - log_f[:, None])
    score = np.zeros_like(x)
    for k, (_, mu, cov) in enumerate(zip(law.weights, law.means, law.covs)):
        score -= resp[:, k, None] * np.linalg.solve(cov, (x - mu).T).T
    return log_f, resp, score


def _reference_sample(law, count, seed):
    """``sample``'s rule written out with the same random-number calls.

    A point is its component's mean plus ``z L^T`` for the Cholesky factor
    ``L`` of its component's covariance.  The first covariance's factor (in
    component order) goes over all points in one product and every other
    factor over its own points only, as in ``sample``, because numpy
    rounds a one-row product differently from a many-row one.
    """
    rng = np.random.default_rng(seed)
    comp = rng.choice(law.n_components, size=count, p=law.weights)
    z = rng.standard_normal((count, law.dim))
    distinct = []
    for cov in law.covs:
        if not any(np.array_equal(cov, c) for c in distinct):
            distinct.append(cov)
    out = law.means[comp] + z @ np.linalg.cholesky(distinct[0]).T
    for cov in distinct[1:]:
        mask = np.array([np.array_equal(c, cov) for c in law.covs])[comp]
        out[mask] = law.means[comp[mask]] + z[mask] @ np.linalg.cholesky(cov).T
    return out


def _shifted(law, offset):
    return se.make_gaussian_mixture(
        [(w, mu + offset, cov) for w, mu, cov in zip(law.weights, law.means, law.covs)]
    )


def _correlated_groups(n, groups, seed):
    """Non-diagonal law: one component per entry of ``groups``, which names its covariance."""
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(max(groups) + 1):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        covs.append(q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T)
    return se.make_gaussian_mixture(
        [(rng.uniform(0.5, 1.5), rng.standard_normal(n), covs[g]) for g in groups]
    )


KERNEL_LAWS = {
    **{f"bimodal-n{n}": se.bimodal_product(n) for n in range(1, 9)},
    "gaussian-iid-n3": se.gaussian_iid(3),
    "rotated-bimodal": se.rotated_bimodal(),
    "symmetrized-rotated-bimodal": se.symmetrize(se.rotated_bimodal()),
    "hadamard-push-forward": se.push_forward_linear(
        se.bimodal_product(4), se.balanced_projection(2, 4, "hadamard").matrix
    ),
    "smoothed-bimodal-n3": se.convolve_isotropic(se.bimodal_product(3), 0.7),
    "offset-1e3": _shifted(se.bimodal_product(2), 1e3),
    "trimodal-1d": se.trimodal_1d(),
    "mixed-covariances-2d": se.make_gaussian_mixture(
        [
            (0.3, [1.0, -0.5], [[2.0, 0.4], [0.4, 1.0]]),
            (0.7, [-1.0, 0.5], [[0.5, -0.1], [-0.1, 1.5]]),
        ]
    ),
    # 9 components in 4 covariance groups of 4, 2, 2 and 1
    "rotated-trimodal": se.rotated_iid_construction(se.trimodal_1d()),
    # 5 components in 3 groups of full 8x8 covariances
    "correlated-groups-n8": _correlated_groups(8, (0, 1, 2, 0, 1), seed=8),
}
# covariance groups of the laws with more than one
GROUP_COUNTS = {
    "trimodal-1d": 2,
    "mixed-covariances-2d": 2,
    "rotated-trimodal": 4,
    "correlated-groups-n8": 3,
}


def _assert_close(got, want, name):
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 1e-12, name


class TestKernel:
    @pytest.mark.parametrize("name", sorted(KERNEL_LAWS))
    def test_matches_per_component_oracle(self, name):
        law = KERNEL_LAWS[name]
        assert len(law._heads) == GROUP_COUNTS.get(name, 1)
        x = law.sample(500, 5)
        center = law.weights @ law.means
        # far points: the log-sum-exp is dominated by one tiny term
        x = np.concatenate([x, center + 3.0 * (x - center)])
        log_f, resp, score = _oracle(law, x)
        _assert_close(law.log_density(x), log_f, name)
        _assert_close(law.responsibilities(x), resp, name)
        _assert_close(law.score(x), score, name)
        # single points take the same kernel as batches
        _assert_close(law.log_density(x[0]), log_f[0], name)
        _assert_close(law.score(x[0]), score[0], name)

    @pytest.mark.parametrize("name", ["bimodal-n3", "gaussian-iid-n3", "trimodal-1d"])
    def test_matches_oracle_across_block_boundaries(self, name):
        law = KERNEL_LAWS[name]
        x = law.sample(2 * law._block_rows + 1, 6)
        log_f, resp, score = _oracle(law, x)
        _assert_close(law.log_density(x), log_f, name)
        got_resp = law.responsibilities(x)
        assert got_resp.shape == (x.shape[0], law.n_components)
        assert np.allclose(got_resp.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        _assert_close(got_resp, resp, name)
        _assert_close(law.score(x), score, name)

    def test_builtin_derived_laws_take_shared_path(self):
        bases = [
            se.gaussian_iid(1),
            se.gaussian_iid(4),
            se.bimodal_1d(),
            se.bimodal_product(3),
            se.bimodal_product(8),
            se.rotated_bimodal(),
            se.correlated_gaussian(0.5),
        ]
        for law in bases:
            derived = [
                law,
                se.convolve_isotropic(law, 0.3),
                se.push_forward_linear(law, np.ones((1, law.dim)) / math.sqrt(law.dim)),
                se.push_forward_linear(
                    law, np.linalg.qr(np.random.default_rng(law.dim).normal(size=(law.dim,) * 2))[0]
                ),
            ]
            if law.dim <= 4 and np.all(law.covs[0] == np.diag(np.diag(law.covs[0]))):
                derived.append(se.symmetrize(law))
            for d in derived:
                assert len(d._heads) == 1, (law, d)
        # A reflection flips the sign of an off-diagonal entry.  For a
        # correlation the reflected covariances genuinely differ and form two
        # groups; for rotated-bimodal they differ only by the rounding
        # residue of the 45-degree rotation (~1e-17), round to one merge key
        # and share one array.
        assert len(se.symmetrize(se.correlated_gaussian(0.5))._heads) == 2
        assert len(se.symmetrize(se.rotated_bimodal())._heads) == 1

    def test_signed_zero_covariances_share_a_group(self):
        law = se.make_gaussian_mixture(
            [(0.5, [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]), (0.5, [-1.0, 0.0], [[1.0, -0.0], [-0.0, 1.0]])]
        )
        assert len(law._heads) == 1

    @pytest.mark.parametrize("name", ["bimodal-n2", "mixed-covariances-2d"])
    def test_non_finite_point_spoils_only_its_row(self, name):
        law = KERNEL_LAWS[name]
        x = np.array([[np.nan, 0.0], [np.inf, 1.0], [0.5, -0.5]])
        with np.errstate(invalid="ignore"):
            log_f, score = law.log_density(x), law.score(x)
        assert np.all(np.isnan(log_f[:2])) and np.all(np.isnan(score[:2]))
        assert log_f[2] == pytest.approx(law.log_density(x[2]), abs=1e-14)
        assert np.allclose(score[2], law.score(x[2]), atol=1e-14)

    @pytest.mark.parametrize(
        "law",
        [
            se.bimodal_product(3),
            se.rotated_bimodal(),
            se.gaussian_iid(2),
            KERNEL_LAWS["trimodal-1d"],
            KERNEL_LAWS["mixed-covariances-2d"],
            KERNEL_LAWS["rotated-trimodal"],
        ],
    )
    def test_sample_bit_identical_to_loop_path(self, law):
        for count, seed in [(1, 0), (7, 1), (1000, 2), (70000, 3)]:
            assert np.array_equal(law.sample(count, seed), _reference_sample(law, count, seed))


class TestKernelOnFirstUse:
    LAWS = [
        se.bimodal_product(3),
        KERNEL_LAWS["mixed-covariances-2d"],
        se.symmetrize(se.correlated_gaussian(0.5)),
    ]
    USES = {
        "entropy_mc": lambda law: se.entropy_mc(law, 1000, 0).value,
        "fisher_mc": lambda law: se.fisher_mc(law, 1000, 0).value,
        "sample": lambda law: law.sample(100, 0),
        "responsibilities": lambda law: law.responsibilities(np.zeros(law.dim)),
    }

    @pytest.mark.parametrize("law", LAWS)
    def test_construction_and_tables_build_nothing(self, law, kernel_builds):
        fresh = se.make_gaussian_mixture(list(zip(law.weights, law.means, law.covs)))
        se.check_symmetry(fresh)
        se.coordinate_marginals(fresh)
        mixtures.line_laws(fresh, np.eye(fresh.dim))
        assert kernel_builds == []

    @pytest.mark.parametrize("use", sorted(USES))
    @pytest.mark.parametrize("law", LAWS)
    def test_each_use_builds_once_per_law(self, law, use, kernel_builds):
        fresh = mixtures.GaussianMixture(law.weights, law.means, law.covs)
        first = self.USES[use](fresh)
        for again in sorted(self.USES):
            self.USES[again](fresh)
        assert kernel_builds == [fresh]
        assert np.array_equal(self.USES[use](law), first)

    def test_racing_threads_build_identical_tables(self):
        law = KERNEL_LAWS["correlated-groups-n8"]
        x = law.sample(300, 1)
        want = law.log_density(x), law.score(x)
        fresh = [mixtures.GaussianMixture(law.weights, law.means, law.covs) for _ in range(8)]
        with ThreadPoolExecutor(4) as pool:
            for mix in fresh:
                got = list(pool.map(lambda _: (mix.log_density(x), mix.score(x)), range(4)))
                assert all(np.array_equal(g[0], want[0]) and np.array_equal(g[1], want[1]) for g in got)


class TestPushForward:
    def test_rotation_of_standard_normal(self):
        g2 = se.gaussian_iid(2)
        out = se.push_forward_linear(g2, np.array([[1.0, 1.0]]) / math.sqrt(2))
        assert out.dim == 1
        assert out.covs[0][0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_bimodal_product_projection_means(self):
        law = se.bimodal_product(2)
        out = se.push_forward_linear(law, np.array([[1.0, 1.0]]) / math.sqrt(2))
        means = np.sort(out.means.ravel())
        expected = np.sort([-4 / math.sqrt(2), 0.0, 0.0, 4 / math.sqrt(2)])
        assert np.allclose(means, expected, atol=1e-12)

    def test_hadamard_rows_of_standard_normal(self):
        g4 = se.gaussian_iid(4)
        rows = se.balanced_projection(2, 4, "hadamard").matrix
        out = se.push_forward_linear(g4, rows)
        assert np.allclose(out.covs[0], np.eye(2), atol=1e-14)

    def test_entropy_preserved_by_square_orthonormal_map(self):
        law = se.make_gaussian_mixture([(1.0, [0.1, -0.2, 0.3], np.diag([1.0, 2.0, 3.0]))])
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        pushed = se.push_forward_linear(law, q)
        assert gaussian_entropy(pushed.covs[0]) == pytest.approx(
            gaussian_entropy(law.covs[0]), abs=1e-10
        )

    def test_rank_deficient(self):
        g2 = se.gaussian_iid(2)
        with pytest.raises(se.RankDeficientError):
            se.push_forward_linear(g2, np.array([[1.0, 0.0], [1.0, 1e-12]]))


class TestCoordinateMarginals:
    @pytest.mark.parametrize(
        "name",
        [
            "bimodal-product-n1",
            "bimodal-product-n3",
            "bimodal-product-n8",
            "gaussian-iid-n1",
            "gaussian-iid-n3",
            "gaussian-iid-n64",
        ],
    )
    def test_builtin_products_factorise(self, name):
        law = se.builtin_law(name)
        marginals, blocks = se.coordinate_marginals(law)
        assert blocks == tuple((i,) for i in range(law.dim))
        assert len(marginals) == law.dim
        assert all(m.dim == 1 for m in marginals)

    def test_bimodal_marginals_merge_to_two_components(self):
        marginals, _ = se.coordinate_marginals(se.bimodal_product(8))
        base = se.bimodal_1d()
        for m in marginals:
            assert np.array_equal(m.weights, base.weights)
            assert np.array_equal(m.means, base.means)
            assert np.array_equal(m.covs, base.covs)

    def test_rotated_bimodal_factorises_in_its_rotation(self):
        z_law = se.push_forward_linear(se.rotated_bimodal(), ROTATION_2D.T)
        marginals, blocks = se.coordinate_marginals(z_law)
        assert blocks == ((0,), (1,))
        assert [m.n_components for m in marginals] == [2, 2]

    def test_rotated_bimodal_does_not_factorise_in_identity(self):
        assert se.coordinate_marginals(se.rotated_bimodal())[1] == ((0, 1),)

    def test_correlated_gaussian_does_not_factorise(self):
        assert se.coordinate_marginals(se.correlated_gaussian(0.5))[1] == ((0, 1),)

    def test_moved_weight_breaks_product(self):
        law = se.bimodal_product(3)
        components = list(zip(law.weights, law.means, law.covs))
        w, mean, cov = components[0]
        components[0] = (w + 1e-6, mean, cov)
        # no coordinate and no pair is independent of the rest any more
        law = se.make_gaussian_mixture(components)
        assert se.coordinate_marginals(law)[1] == ((0, 1, 2),)

    def test_missing_combination_breaks_product(self):
        # diagonal covariances, but only 2 of the 4 combinations of marginal means
        law = se.make_gaussian_mixture(
            [(0.5, [-2.0, -2.0], np.eye(2)), (0.5, [2.0, 2.0], np.eye(2))]
        )
        assert se.coordinate_marginals(law)[1] == ((0, 1),)

    def test_independent_rotated_pairs_split_into_pairs(self):
        law = _product(se.rotated_bimodal(), se.rotated_bimodal())
        assert se.coordinate_marginals(law)[1] == ((0, 1), (2, 3))

    def test_independent_coordinate_splits_off_before_its_pair(self):
        # rotated-bimodal on coordinates 0 and 1, an independent bimodal coordinate 2
        law = _product(se.rotated_bimodal(), se.bimodal_1d())
        assert se.coordinate_marginals(law)[1] == ((2,), (0, 1))

    def test_pairwise_independent_xor_law_stays_one_block(self):
        # every pair of coordinates is independent, but the three are not
        law = se.make_gaussian_mixture(
            [(0.25, [2 * s, 2 * t, 2 * s * t], np.eye(3)) for s in (-1, 1) for t in (-1, 1)]
        )
        assert not any(se.check_independence(law, i).verdict for i in range(3))
        assert se.coordinate_marginals(law)[1] == ((0, 1, 2),)

    def test_split_runs_only_up_to_twelve_dimensions(self):
        # a scale mixture: dependent coordinates, and at n = 512 no split is tried
        law = se.make_gaussian_mixture(
            [(0.5, np.zeros(512), np.eye(512)), (0.5, np.zeros(512), 4 * np.eye(512))]
        )
        assert se.coordinate_marginals(law)[1] == (tuple(range(512)),)

    def test_blocks_split_as_far_as_twelve_dimensions(self):
        # a pair of rotated coordinates beside independent ones, up to n = 12
        for n in (3, 12):
            law = _product(se.rotated_bimodal(), se.gaussian_iid(n - 2))
            expected = tuple((i,) for i in range(2, n)) + ((0, 1),)
            assert se.coordinate_marginals(law)[1] == expected

    def test_marginal_densities_match_projections(self):
        law = se.symmetrize(se.rotated_bimodal())
        marginals, _ = se.coordinate_marginals(law)
        x = np.linspace(-6.0, 6.0, 41)[:, None]
        for i, m in enumerate(marginals):
            projected = se.push_forward_linear(law, np.eye(2)[i : i + 1])
            assert m.n_components < projected.n_components
            assert np.allclose(m.log_density(x), projected.log_density(x), rtol=0, atol=1e-12)


class TestConvolve:
    def test_standard_normal_plus_unit_time(self):
        out = se.convolve_isotropic(se.gaussian_iid(1), 1.0)
        assert out.covs[0][0, 0] == pytest.approx(2.0)

    def test_zero_time_identity(self):
        law = se.bimodal_product(2)
        out = se.convolve_isotropic(law, 0.0)
        assert np.array_equal(out.weights, law.weights)
        assert np.array_equal(out.means, law.means)
        assert np.array_equal(out.covs, law.covs)

    def test_componentwise(self):
        out = se.convolve_isotropic(se.bimodal_1d(), 3.0)
        assert np.allclose(out.covs[:, 0, 0], 4.0)
        assert np.allclose(np.sort(out.means.ravel()), [-2.0, 2.0])

    @pytest.mark.parametrize("t", [-0.5, math.nan, math.inf])
    def test_negative_time(self, t):
        with pytest.raises(se.NegativeTimeError, match="finite and >= 0"):
            se.convolve_isotropic(se.gaussian_iid(1), t)

    @settings(max_examples=20, deadline=None)
    @given(small_mixtures(), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_semigroup(self, law, s, t):
        once = se.convolve_isotropic(se.convolve_isotropic(law, s), t)
        combined = se.convolve_isotropic(law, s + t)
        assert np.allclose(once.covs, combined.covs, atol=1e-12)
        assert np.allclose(once.means, combined.means)


class TestSymmetrize:
    def test_shifted_gaussian(self):
        out = se.symmetrize(se.make_gaussian_mixture([(1.0, [2.0], [[1.0]])]))
        assert out.n_components == 2
        assert np.allclose(out.weights, [0.5, 0.5])
        assert np.allclose(np.sort(out.means.ravel()), [-2.0, 2.0])

    @pytest.mark.parametrize(
        "law", [se.bimodal_1d(), se.bimodal_product(8)], ids=["bimodal-1d", "bimodal-product-n8"]
    )
    def test_symmetric_law_is_fixed_point(self, law):
        out = se.symmetrize(law)
        # the same components, in any order
        rows = [
            np.column_stack([m.weights, m.means, m.covs.reshape(m.n_components, -1)])
            for m in (law, out)
        ]
        assert np.array_equal(*(r[np.lexsort(r.T)] for r in rows))
        again = se.symmetrize(out)
        assert np.array_equal(out.weights, again.weights)
        assert np.array_equal(out.means, again.means)
        assert np.array_equal(out.covs, again.covs)

    def test_correlated_gaussian_two_components(self):
        out = se.symmetrize(se.correlated_gaussian(-0.9))
        assert out.n_components == 2
        assert np.allclose(out.weights, [0.5, 0.5])
        offdiags = np.sort([c[0, 1] for c in out.covs])
        assert np.allclose(offdiags, [-0.9, 0.9])
        assert se.check_symmetry(out).verdict

    def test_dimension_guard(self):
        with pytest.raises(se.DimensionTooLargeError):
            se.symmetrize(se.gaussian_iid(13))

    def test_mean_rounding_to_zero_becomes_zero(self):
        law = se.make_gaussian_mixture([(0.5, [1e-13], [[1.0]]), (0.5, [2.0], [[1.0]])])
        out = se.symmetrize(law)
        assert out.means.ravel().tolist() == [-2.0, 0.0, 2.0]
        assert out.weights.tolist() == [0.25, 0.5, 0.25]
        assert estimators._point_symmetric(out)

    @settings(max_examples=15, deadline=None)
    @given(small_mixtures())
    def test_output_is_symmetric(self, law):
        out = se.symmetrize(law)
        assert se.check_symmetry(out).asymmetric_coordinates == ()


def _merged_components(law):
    """{(rounded mean, rounded cov): rounded summed weight} of a mixture."""
    merged = {}
    for w, mean, cov in zip(law.weights, law.means, law.covs):
        key = tuple(_rounded(mean).tolist()) + tuple(_rounded(cov).ravel().tolist())
        merged[key] = merged.get(key, 0.0) + w
    return {key: float(_rounded(w)) for key, w in merged.items()}


# law and the coordinates whose sign flip changes it
SYMMETRY_CASES = {
    # symmetric near the origin; only a 1e-9-weight component at (60, 0) breaks it
    "hidden-component": (
        se.make_gaussian_mixture(
            [(1.0, [0.0, 0.0], np.eye(2)), (1e-9, [60.0, 0.0], np.eye(2))]
        ),
        (0,),
    ),
    "split-duplicates": (
        se.make_gaussian_mixture(
            [(0.3, [1.0], [[1.0]]), (0.2, [1.0], [[1.0]]), (0.5, [-1.0], [[1.0]])]
        ),
        (),
    ),
    "unequal-mirror-weights": (
        se.make_gaussian_mixture([(0.3, [1.0], [[1.0]]), (0.7, [-1.0], [[1.0]])]),
        (0,),
    ),
    # its off-diagonals carry -2.2e-17 residues, which round to -0.0
    "rotated-bimodal": (se.rotated_bimodal(), ()),
    "symmetrized-rotated-bimodal": (se.symmetrize(se.rotated_bimodal()), ()),
}


class TestCheckSymmetry:
    def test_standard_normal(self):
        report = se.check_symmetry(se.gaussian_iid(3))
        assert report.verdict and report.asymmetric_coordinates == ()

    def test_correlated_gaussian_fails(self):
        report = se.check_symmetry(se.correlated_gaussian(-0.9))
        assert not report.verdict and report.asymmetric_coordinates == (0, 1)

    def test_detects_asymmetry_in_one_coordinate(self):
        # symmetric in the first two coordinates, shifted in the third
        law = se.make_gaussian_mixture([(1.0, [0.0, 0.0, 0.5], np.eye(3))])
        report = se.check_symmetry(law)
        assert not report.verdict and report.asymmetric_coordinates == (2,)

    @pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
    def test_asymmetric_coordinates(self, name):
        law, asymmetric = SYMMETRY_CASES[name]
        report = se.check_symmetry(law)
        assert report.asymmetric_coordinates == asymmetric
        assert report.verdict == (asymmetric == ())

    def test_draws_no_sample_and_evaluates_no_density(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("check_symmetry must not sample or evaluate densities")

        monkeypatch.setattr(se.GaussianMixture, "log_density", forbidden)
        monkeypatch.setattr(se.GaussianMixture, "sample", forbidden)
        assert se.check_symmetry(se.gaussian_iid(12)).verdict
        assert se.check_symmetry(se.bimodal_product(3)).verdict
        assert not se.check_symmetry(se.correlated_gaussian(-0.9)).verdict

    @settings(max_examples=25, deadline=None)
    @given(small_mixtures(), st.booleans())
    def test_verdict_iff_symmetrize_keeps_the_components(self, law, presymmetrize):
        # without presymmetrizing, a drawn law is seldom symmetric
        if presymmetrize:
            law = se.symmetrize(law)
        out = se.symmetrize(law)
        assert se.check_symmetry(law).verdict == (
            _merged_components(out) == _merged_components(law)
        )


def _product(first, second):
    """The law of (X, Y) for independent mixtures X and Y."""
    n, m = first.dim, second.dim
    return se.make_gaussian_mixture(
        [
            (wa * wb, np.concatenate([ma, mb]),
             np.block([[ca, np.zeros((n, m))], [np.zeros((m, n)), cb]]))
            for wa, ma, ca in zip(first.weights, first.means, first.covs)
            for wb, mb, cb in zip(second.weights, second.means, second.covs)
        ]
    )


def _rotated_laws():
    """(case id, rotated law, probe seed): the laws whose independence the
    probe and the equality demo decide."""
    cases = []
    for name in ["gaussian-iid-n3", "gaussian-iid-n5", "bimodal-product-n3", "bimodal-product-n5"]:
        law = se.builtin_law(name)
        for idx, basis in enumerate(se.proof_basis_family(law.dim).bases):
            z_law = se.push_forward_linear(law, basis.matrix.T)
            cases.append((f"{name}-basis{idx}", z_law, split_seed(0, 100 + idx)))
    for name, base in [("bimodal", se.bimodal_1d()), ("trimodal", se.trimodal_1d()),
                       ("gaussian", se.gaussian_iid(1))]:
        law = se.rotated_iid_construction(base)
        cases.append((f"equality-{name}", se.push_forward_linear(law, ROTATION_2D.T), split_seed(0, 1)))
    return cases


ROTATED_LAWS = _rotated_laws()


class TestCheckIndependence:
    @pytest.mark.parametrize("case", ROTATED_LAWS, ids=[c[0] for c in ROTATED_LAWS])
    def test_agrees_with_mixed_partial_probe(self, case):
        _, law, seed = case
        probe = se.mixed_partial_independence(law, 0, probes=32, seed=seed)
        assert se.check_independence(law, 0).verdict == probe.verdict

    def test_bimodal_product_rotated_report(self):
        basis = se.proof_basis_family(3).bases[0]
        law = se.push_forward_linear(se.bimodal_product(3), basis.matrix.T)
        report = se.check_independence(law, 0)
        assert not report.verdict and report.coordinate == 0
        # rotations keep every component's covariance the identity
        assert report.max_cross_covariance == 0.0
        assert report.max_weight_residual > 0.05
        assert report.atoms == (4, 7)

    # Exact cases the finite-difference probe cannot resolve: their mixed
    # partials of log f stay far below its 1e-5 tolerance.
    def test_moved_weight_breaks_independence(self):
        law = se.bimodal_product(2)
        weights = law.weights + np.array([1e-9, 0.0, 0.0, 0.0])
        moved = se.make_gaussian_mixture(list(zip(weights, law.means, law.covs)))
        report = se.check_independence(moved, 0)
        assert not report.verdict
        assert report.max_cross_covariance == 0.0
        assert report.max_weight_residual == pytest.approx(1e-9 / 4, rel=1e-2)
        assert se.mixed_partial_independence(moved, 0).verdict

    def test_small_cross_covariance_breaks_independence(self):
        law = se.bimodal_product(2)
        cov = np.array([[1.0, 1e-6], [1e-6, 1.0]])
        covs = law.covs.copy()
        covs[0] = cov
        bent = se.make_gaussian_mixture(list(zip(law.weights, law.means, covs)))
        report = se.check_independence(bent, 0)
        assert not report.verdict
        assert report.max_cross_covariance == 1e-6
        assert se.mixed_partial_independence(bent, 0).verdict

    def test_independent_coordinate_beside_correlated_block(self):
        law = _product(se.bimodal_1d(), se.correlated_gaussian(0.5))
        assert se.check_independence(law, 0).verdict
        report = se.check_independence(law, 1)
        assert not report.verdict
        assert report.max_cross_covariance == 0.5

    def test_one_dimensional_law_is_trivially_independent(self):
        report = se.check_independence(se.bimodal_1d(), 0)
        assert report.verdict
        assert report.atoms == (2, 1)

    @pytest.mark.parametrize("i", [-1, 3])
    def test_index_out_of_range(self, i):
        with pytest.raises(se.IndexOutOfRangeError):
            se.check_independence(se.gaussian_iid(3), i)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_weight_table_blocks_change_nothing(self, monkeypatch, block):
        laws = [law for _, law, _ in ROTATED_LAWS]
        expected = [se.check_independence(law, 0) for law in laws]
        monkeypatch.setattr(mixtures, "_BLOCK_MADDS", block)
        assert [se.check_independence(law, 0) for law in laws] == expected

    def test_draws_no_sample_and_evaluates_no_density(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("check_independence must not sample or evaluate densities")

        monkeypatch.setattr(se.GaussianMixture, "log_density", forbidden)
        monkeypatch.setattr(se.GaussianMixture, "sample", forbidden)
        assert se.check_independence(se.bimodal_product(8), 3).verdict
        assert not se.check_independence(se.correlated_gaussian(-0.9), 1).verdict

    @settings(max_examples=25, deadline=None)
    @given(small_mixtures(n=1), small_mixtures(n=2))
    def test_product_with_symmetrized_block_is_independent(self, first, second):
        law = _product(first, se.symmetrize(second))
        assert se.check_independence(law, 0).verdict


class TestRotatedIid:
    def test_gaussian_base_gives_standard_normal(self):
        out = se.rotated_iid_construction(se.gaussian_iid(1))
        assert out.dim == 2
        assert out.n_components == 1
        assert np.allclose(out.covs[0], np.eye(2), atol=1e-14)

    def test_bimodal_base_gives_four_components(self):
        out = se.rotated_iid_construction(se.bimodal_1d())
        assert out.n_components == 4
        assert se.check_symmetry(out).verdict

    def test_product_form_of_density(self):
        base = se.bimodal_1d()
        law = se.rotated_iid_construction(base)
        rng = np.random.default_rng(2)
        for x in rng.normal(scale=2.0, size=(20, 2)):
            z1 = (x[0] + x[1]) / math.sqrt(2)
            z2 = (x[0] - x[1]) / math.sqrt(2)
            expected = base.log_density(np.array([z1])) + base.log_density(np.array([z2]))
            assert law.log_density(x) == pytest.approx(expected, abs=1e-10)

    def test_sum_projection_recovers_base_law(self):
        base = se.bimodal_1d()
        law = se.rotated_iid_construction(base)
        h_base = se.entropy_quadrature_1d(base)
        [h_proj] = se.projection_entropy(law, np.array([[1.0, 1.0]]) / math.sqrt(2))
        assert h_proj.value == pytest.approx(h_base.value, abs=1e-9)

    def test_rejects_multivariate_base(self):
        with pytest.raises(se.NotUnivariateError):
            se.rotated_iid_construction(se.gaussian_iid(2))

    def test_rejects_asymmetric_base(self):
        shifted = se.make_gaussian_mixture([(1.0, [1.5], [[1.0]])])
        with pytest.raises(se.NotSymmetricBaseError):
            se.rotated_iid_construction(shifted)

    def test_rotation_matrix_is_the_45_degree_one(self):
        expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2)
        assert np.allclose(ROTATION_2D, expected)


class TestSampling:
    def test_deterministic(self):
        law = se.bimodal_product(2)
        a = law.sample(1000, 7)
        b = law.sample(1000, 7)
        assert np.array_equal(a, b)

    def test_negative_seed_is_its_residue_mod_2_64(self):
        law = se.bimodal_product(2)
        assert np.array_equal(law.sample(5, -1), law.sample(5, 2**64 - 1))

    def test_mean_within_clt_bound(self):
        x = se.gaussian_iid(1).sample(100000, 7)
        assert abs(x.mean()) <= 3.0 / math.sqrt(100000)

    def test_component_frequencies(self):
        law = se.bimodal_1d()
        x = law.sample(100000, 7)
        frac = np.mean(x[:, 0] > 0)
        assert abs(frac - 0.5) <= 3.0 * 0.5 / math.sqrt(100000)


class TestJsonRoundTrip:
    def test_bit_exact(self):
        law = se.make_gaussian_mixture(
            [(1 / 3, [0.1, -0.2], [[1.7, 0.3], [0.3, 2.9]]), (2 / 3, [1e-7, 3.0], np.eye(2))]
        )
        text = se.mixture_to_json(law)
        back = se.mixture_from_json(text)
        assert np.array_equal(back.weights, law.weights)
        assert np.array_equal(back.means, law.means)
        assert np.array_equal(back.covs, law.covs)
        assert se.mixture_to_json(back) == text

    def test_fingerprint_stable_and_distinct(self):
        a = se.gaussian_iid(2)
        assert se.law_fingerprint(a) == se.law_fingerprint(se.gaussian_iid(2))
        assert se.law_fingerprint(a) != se.law_fingerprint(se.gaussian_iid(3))

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("gaussian-iid-n2", "c543e12800a80f47"),
            ("bimodal-product-n3", "2fed1b05c2277444"),
            ("bimodal-product-n8", "318c810a83a7466b"),
            ("rotated-bimodal", "58366abd75e3541d"),
        ],
    )
    def test_fingerprint_text_pinned(self, name, digest):
        # reports carry these digests, so the canonical text must not drift
        assert se.law_fingerprint(se.builtin_law(name)) == digest

    def test_declared_dimension_checked(self):
        text = '{"dim": 3, "components": [{"weight": 1, "mean": [0], "cov": [[1]]}]}'
        with pytest.raises(se.DimensionMismatchError):
            se.mixture_from_json(text)
