import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symentropy as se
from symentropy import estimators

HALF_LOG_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def gaussian_entropy(n, var):
    return n * (HALF_LOG_2PIE + 0.5 * math.log(var))


FIVE_1D_MIXTURES = [
    se.gaussian_iid(1),
    se.gaussian_iid(1, 0.25),
    se.bimodal_1d(),
    se.trimodal_1d(),
    se.make_gaussian_mixture([(0.4, [-1.0], [[0.5]]), (0.6, [1.0], [[2.0]])]),
]


class TestEntropyMc:
    def test_standard_normal(self):
        est = se.entropy_mc(se.gaussian_iid(1), 200000, 7)
        assert est.method == "mc_logdensity"
        assert abs(est.value - HALF_LOG_2PIE) <= 3 * est.stderr
        assert est.stderr < 0.005

    def test_additivity_n3(self):
        est = se.entropy_mc(se.gaussian_iid(3), 200000, 7)
        assert abs(est.value - 3 * HALF_LOG_2PIE) <= 3 * est.stderr

    def test_agrees_with_quadrature_on_bimodal(self):
        law = se.bimodal_1d()
        mc = se.entropy_mc(law, 200000, 11)
        quad = se.entropy_quadrature_1d(law)
        assert abs(mc.value - quad.value) <= 3 * math.hypot(mc.stderr, quad.stderr)

    def test_count_floor(self):
        with pytest.raises(ValueError, match="count"):
            se.entropy_mc(se.gaussian_iid(1), 50, 0)

    def test_deterministic(self):
        law = se.bimodal_1d()
        assert se.entropy_mc(law, 150000, 3) == se.entropy_mc(law, 150000, 3)


class TestEntropyQuadrature:
    def test_standard_normal_accuracy(self):
        est = se.entropy_quadrature_1d(se.gaussian_iid(1))
        assert est.value == pytest.approx(HALF_LOG_2PIE, abs=1e-9)
        assert est.method == "quadrature_1d"

    def test_narrow_gaussian_closed_form(self):
        est = se.entropy_quadrature_1d(se.gaussian_iid(1, 0.1))
        assert est.value == pytest.approx(HALF_LOG_2PIE + 0.5 * math.log(0.1), abs=1e-9)

    @pytest.mark.parametrize(
        "components",
        [
            [(1.0, [40.0], [[9.0]])],
            [(0.3, [-30.0], [[0.25]]), (0.7, [30.0], [[9.0]])],
        ],
    )
    def test_derived_radius_covers_offset_and_wide_components(self, components):
        # R = max |mean| + 8 max std must hold the mass of a component far
        # from the origin and of the widest one; the components barely
        # overlap, so H = sum w_k H_k - sum w_k log w_k
        law = se.make_gaussian_mixture(components)
        truth = sum(
            w * (HALF_LOG_2PIE + 0.5 * math.log(cov[0][0]) - math.log(w))
            for w, _, cov in components
        )
        est = se.entropy_quadrature_1d(law)
        assert est.value == pytest.approx(truth, abs=1e-9)
        assert est.stderr <= 1e-9

    def test_rejects_multivariate(self):
        with pytest.raises(ValueError, match="1-D"):
            se.entropy_quadrature_1d(se.gaussian_iid(2))

    def test_line_integrals_skip_the_mixture_kernel(self, monkeypatch):
        # every 1-D integral runs on the line-law arrays, never on the
        # mixture's own log-density or score
        base, law = se.bimodal_1d(), se.bimodal_product(3)
        expected = (
            se.entropy_quadrature_1d(base),
            se.fisher_quadrature(base),
            se.projection_entropy(law, _scan_grid(3)),
        )

        def refuse(self, x):
            raise AssertionError("mixture kernel called")

        monkeypatch.setattr(se.GaussianMixture, "log_density", refuse)
        monkeypatch.setattr(se.GaussianMixture, "score", refuse)
        assert (
            se.entropy_quadrature_1d(base),
            se.fisher_quadrature(base),
            se.projection_entropy(law, _scan_grid(3)),
        ) == expected


class TestQuadrature2dAndFisher:
    # closed forms; each rule is deterministic, so no draws
    def test_correlated_gaussian_entropy(self):
        est = se.entropy_quadrature_2d(se.correlated_gaussian(0.5))
        assert est.method == "quadrature_2d"
        truth = 0.5 * math.log((2 * math.pi * math.e) ** 2 * 0.75)
        assert abs(est.value - truth) <= 3 * est.stderr

    @pytest.mark.parametrize(
        "law, truth",
        [
            (se.correlated_gaussian(0.5), 8.0 / 3.0),  # tr Sigma^-1
            (se.gaussian_iid(2, 4.0), 0.5),
            (se.gaussian_iid(1), 1.0),
            (se.gaussian_iid(1, 0.25), 4.0),
        ],
    )
    def test_gaussian_fisher_is_trace_of_precision(self, law, truth):
        est = se.fisher_quadrature(law)
        assert est.method == f"quadrature_{law.dim}d"
        assert abs(est.value - truth) <= 3 * est.stderr

    def test_rotated_bimodal_is_twice_the_base(self):
        law, base = se.rotated_bimodal(), se.bimodal_1d()
        h = se.entropy_quadrature_2d(law)
        assert abs(h.value - 2 * se.entropy_quadrature_1d(base).value) <= 3 * h.stderr
        fisher = se.fisher_quadrature(law)
        assert abs(fisher.value - 2 * se.fisher_quadrature(base).value) <= 3 * fisher.stderr

    def test_agrees_with_monte_carlo_on_push_forwards(self):
        law = se.bimodal_product(3)
        pair = se.push_forward_linear(law, se.balanced_projection(2, 3, "frequency_pairs").matrix)
        total = se.push_forward_linear(law, np.ones((1, 3)) / math.sqrt(3))
        checks = [
            (se.entropy_quadrature_2d(pair), se.entropy_mc(pair, 200000, 5)),
            (se.fisher_quadrature(pair), se.fisher_mc(pair, 200000, 5)),
            (se.fisher_quadrature(total), se.fisher_mc(total, 200000, 5)),
        ]
        for quad, mc in checks:
            assert abs(quad.value - mc.value) <= 4 * math.hypot(quad.stderr, mc.stderr)

    def test_rejects_wrong_dimension(self):
        for law in (se.gaussian_iid(1), se.gaussian_iid(3)):
            with pytest.raises(ValueError, match="dim"):
                se.entropy_quadrature_2d(law)
        with pytest.raises(ValueError, match="dim"):
            se.fisher_quadrature(se.gaussian_iid(3))

    def test_grid_held_in_slabs(self, monkeypatch):
        # a law that never converges takes all 3 doublings, 1024^2 nodes,
        # and no slab of them exceeds CHUNK_SIZE
        from symentropy.streams import CHUNK_SIZE

        sizes = []
        law = se.make_gaussian_mixture(
            [(0.5, [s * 30.0, 0.0], 0.001 * np.eye(2)) for s in (-1.0, 1.0)]
        )
        log_density = type(law).log_density

        def spy(self, x):
            sizes.append(len(x))
            return log_density(self, x)

        monkeypatch.setattr(type(law), "log_density", spy)
        est = se.entropy_quadrature_2d(law)
        assert est.count == 1024**2
        assert max(sizes) == CHUNK_SIZE


class TestEntropyDecomposed:
    @pytest.mark.parametrize(
        "law",
        [se.bimodal_product(1), se.bimodal_product(3), se.gaussian_iid(3), se.gaussian_iid(64)],
    )
    def test_product_laws_are_sums_of_marginal_quadratures(self, law):
        est = se.entropy_decomposed(law, 1000, 0)
        marginals, _ = se.coordinate_marginals(law)
        assert est.method == "decomposed"
        assert est.count == 0
        assert est.value == math.fsum(se.entropy_quadrature_1d(m).value for m in marginals)

    def test_equal_marginals_are_integrated_once(self, monkeypatch):
        law = se.bimodal_product(8)
        marginals, _ = se.coordinate_marginals(law)
        expected = math.fsum(se.entropy_quadrature_1d(m).value for m in marginals)
        calls = []
        rule = estimators.entropy_quadrature_1d

        def spy(m):
            calls.append(m)
            return rule(m)

        monkeypatch.setattr(estimators, "entropy_quadrature_1d", spy)
        est = se.entropy_decomposed(law, 1000, 0)
        assert len(calls) == 1
        assert est.value == expected

    def test_distinct_marginals_are_each_integrated(self, monkeypatch):
        # the product of a bimodal law and N(0, 2)
        law = se.make_gaussian_mixture(
            [(0.5, [s, 0.0], np.diag([1.0, 2.0])) for s in (-1.0, 1.0)]
        )
        marginals, product = se.coordinate_marginals(law)
        assert product
        calls = []
        rule = estimators.entropy_quadrature_1d

        def spy(m):
            calls.append(m)
            return rule(m)

        monkeypatch.setattr(estimators, "entropy_quadrature_1d", spy)
        est = se.entropy_decomposed(law, 1000, 0)
        assert [m.n_components for m in calls] == [2, 1]
        assert est.value == math.fsum(rule(m).value for m in marginals)

    def test_gaussian_iid_closed_form(self):
        est = se.entropy_decomposed(se.gaussian_iid(3, 2.0), 1000, 0)
        assert abs(est.value - gaussian_entropy(3, 2.0)) <= 3 * est.stderr

    def test_bimodal_n8_joint_entropy_gate(self):
        # the benchmark's verify-n8 gate: 8 rhs within 3 sigma of 8 h(bimodal),
        # with h(X)'s stderr recovered from the report's combined sigma
        report = se.verify_main(se.bimodal_product(8), se.Budget(seed=0))
        estimate = 8 * report.rhs
        stderr = 8 * math.sqrt(max(report.sigma**2 - report.lhs.stderr**2, 0.0))
        truth = 8 * se.entropy_quadrature_1d(se.bimodal_1d()).value
        assert abs(estimate - truth) <= 3 * stderr

    def test_rotated_bimodal_exact_in_its_rotation(self):
        from symentropy.mixtures import ROTATION_2D

        est = se.entropy_decomposed(se.rotated_bimodal(), 1000, 0, basis=ROTATION_2D)
        assert est.count == 0
        base = se.entropy_quadrature_1d(se.bimodal_1d()).value
        assert est.value == pytest.approx(2 * base, abs=1e-10)

    def test_non_product_draws_for_total_correlation(self):
        est = se.entropy_decomposed(se.rotated_bimodal(), 20000, 3)
        assert est.count == 20000
        base = se.entropy_quadrature_1d(se.bimodal_1d()).value
        assert abs(est.value - 2 * base) <= 4 * est.stderr

    def test_total_correlation_coverage(self):
        # h of the unit-variance bivariate normal with correlation 0.5
        truth = 0.5 * math.log((2 * math.pi * math.e) ** 2 * 0.75)
        law = se.correlated_gaussian(0.5)
        z = []
        for seed in range(50):
            est = se.entropy_decomposed(law, 20000, seed)
            z.append((est.value - truth) / est.stderr)
        assert abs(np.mean(z)) < 0.5
        assert 0.7 < np.std(z, ddof=1) < 1.3

    def test_scaled_basis_takes_log_determinant(self):
        est = se.entropy_decomposed(se.gaussian_iid(2), 1000, 0, basis=2.0 * np.eye(2))
        assert est.value == pytest.approx(gaussian_entropy(2, 1.0), abs=1e-10)

    def test_rejects_non_square_basis(self):
        with pytest.raises(se.DimensionMismatchError):
            se.entropy_decomposed(se.gaussian_iid(2), 1000, 0, basis=np.eye(2)[:1])

    def test_count_validation(self):
        with pytest.raises(ValueError, match="count"):
            se.entropy_decomposed(se.gaussian_iid(2), 50, 0)


class TestRoundingFloor:
    def test_floor_scales_with_value(self):
        assert estimators.floored_stderr(0.0, 5.0) == 1e-12 * 6.0
        assert estimators.floored_stderr(0.25, 5.0) == 0.25


class TestEntropyKnn:
    def test_standard_normal_1d(self):
        x = se.gaussian_iid(1).sample(100000, 3)
        est = se.entropy_knn(x)
        assert est.method == "knn"
        assert abs(est.value - HALF_LOG_2PIE) <= 0.02

    def test_standard_normal_2d(self):
        x = se.gaussian_iid(2).sample(100000, 3)
        est = se.entropy_knn(x)
        assert abs(est.value - 2 * HALF_LOG_2PIE) <= 0.03

    def test_scaling_shift(self):
        x = se.gaussian_iid(1).sample(50000, 9)
        base = se.entropy_knn(x)
        scaled = se.entropy_knn(2.0 * x)
        assert scaled.value - base.value == pytest.approx(math.log(2.0), abs=1e-9)

    def test_duplicates_jittered(self):
        x = se.gaussian_iid(1).sample(2000, 5)
        doubled = np.vstack([x, x])
        est = se.entropy_knn(doubled)
        assert np.isfinite(est.value)

    def test_duplicates_found_by_the_neighbor_query(self, monkeypatch):
        x = se.gaussian_iid(2).sample(2000, 5)
        doubled = np.vstack([x, x[:10]])
        jittered = estimators._deduplicate(doubled)
        assert se.entropy_knn(doubled) == se.entropy_knn(jittered)

        def unexpected(_):
            raise AssertionError("no zero neighbor distance, so no duplicate check")

        monkeypatch.setattr(estimators, "_deduplicate", unexpected)
        se.entropy_knn(x)

    def test_too_few_samples(self):
        with pytest.raises(se.TooFewSamplesError):
            se.entropy_knn(np.zeros((8, 1)), k=4)

    def test_calibrated_within_3_stderr(self):
        x = se.gaussian_iid(3).sample(60000, 21)
        est = se.entropy_knn(x)
        assert abs(est.value - 3 * HALF_LOG_2PIE) <= 3 * est.stderr


def _scan_grid(n):
    # the unit rows direction_scan asks for at its default resolution
    from symentropy.harness import _scan_directions

    return np.array([a / np.linalg.norm(a) for a in _scan_directions(n, 90)])


def _two_group_law():
    # symmetrize of a random 2-D, 2-component law: several covariance groups
    rng = np.random.default_rng(5)
    components = []
    for _ in range(2):
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        cov = q @ np.diag(rng.uniform(0.3, 2.0, 2)) @ q.T
        components.append((rng.uniform(0.2, 1.0), rng.normal(size=2), cov))
    return se.symmetrize(se.make_gaussian_mixture(components))


class TestProjectionEntropy:
    def test_rotation_invariance(self):
        [est] = se.projection_entropy(se.gaussian_iid(3), np.ones((1, 3)) / math.sqrt(3))
        assert est.value == pytest.approx(HALF_LOG_2PIE, abs=1e-9)

    def test_rotated_bimodal_diagonal_recovers_base(self):
        law = se.rotated_bimodal()
        base = se.entropy_quadrature_1d(se.bimodal_1d())
        [est] = se.projection_entropy(law, np.array([[1.0, 1.0]]) / math.sqrt(2))
        assert est.value == pytest.approx(base.value, abs=1e-9)

    def test_correlated_gaussian_small_variance_direction(self):
        [est] = se.projection_entropy(
            se.correlated_gaussian(-0.9), np.array([[1.0, 1.0]]) / math.sqrt(2)
        )
        assert est.value == pytest.approx(HALF_LOG_2PIE + 0.5 * math.log(0.1), abs=1e-9)

    def test_rejects_non_unit_vector(self):
        with pytest.raises(se.NotUnitVectorError):
            se.projection_entropy(se.gaussian_iid(2), np.array([[1.0, 1.0]]))

    @pytest.mark.parametrize(
        "law", [se.bimodal_product(3), se.rotated_bimodal(), _two_group_law()],
        ids=["bimodal-product-n3", "rotated-bimodal", "two-group"],
    )
    def test_stacked_rows_match_one_law_rule(self, law):
        grid = _scan_grid(law.dim)
        estimates = se.projection_entropy(law, grid)
        assert len(estimates) == len(grid)
        # both sides run the same line-law rule, so this checks the arrays of
        # line_laws against the law that push_forward_linear builds
        for a, est in zip(grid, estimates):
            one = se.entropy_quadrature_1d(se.push_forward_linear(law, a[None, :]))
            assert abs(est.value - one.value) <= 1e-13 * (1.0 + abs(one.value))
            assert est.count == one.count
            assert est.method == "quadrature_1d"

    def test_two_group_law_has_several_covariance_groups(self):
        assert len(_two_group_law()._groups) >= 2

    def test_only_unconverged_rows_double(self):
        # narrow components at +-30 along the first axis need panel doublings;
        # the second axis sees one narrow Gaussian, which does not
        law = se.make_gaussian_mixture(
            [(0.5, [-30.0, 0.0], 1e-3 * np.eye(2)), (0.5, [30.0, 0.0], 1e-3 * np.eye(2))]
        )
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        estimates = se.projection_entropy(law, rows)
        counts = [
            se.entropy_quadrature_1d(se.push_forward_linear(law, a[None, :])).count
            for a in rows
        ]
        assert [est.count for est in estimates] == counts
        assert counts[0] > counts[1] == 512

    def test_non_unit_row_is_named(self):
        rows = np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 1.0]])
        with pytest.raises(se.NotUnitVectorError, match="row 2"):
            se.projection_entropy(se.gaussian_iid(2), rows)


def _full_rule(monkeypatch):
    # every law runs the unfolded rule over its whole range
    monkeypatch.setattr(
        estimators,
        "_point_symmetric",
        lambda fields, means: np.zeros(np.shape(means)[:-2], dtype=bool),
    )


def _line_folds(monkeypatch):
    # the fold flag of every _line_integrals call, in order
    folds = []
    line_integrals = estimators._line_integrals

    def spy(integrand, log_weights, means, variances, radii, panels, fold):
        folds.append(fold)
        return line_integrals(integrand, log_weights, means, variances, radii, panels, fold)

    monkeypatch.setattr(estimators, "_line_integrals", spy)
    return folds


def _sum_rules(n):
    law = se.bimodal_product(n)
    ones = np.ones((1, n)) / math.sqrt(n)
    return [*se.projection_entropy(law, ones), se.fisher_quadrature(se.push_forward_linear(law, ones))]


def _pair_rules(k, n, method):
    law = se.bimodal_product(n)
    pair = se.push_forward_linear(law, se.balanced_projection(k, n, method).matrix)
    return [se.entropy_quadrature_2d(pair), se.fisher_quadrature(pair)]


FOLDED_RULES = {
    "scan-bimodal-product-n3": lambda: se.projection_entropy(se.bimodal_product(3), _scan_grid(3)),
    "scan-rotated-bimodal": lambda: se.projection_entropy(se.rotated_bimodal(), _scan_grid(2)),
    "sum-bimodal-product-n1": lambda: _sum_rules(1),
    "sum-bimodal-product-n3": lambda: _sum_rules(3),
    "sum-bimodal-product-n8": lambda: _sum_rules(8),
    "kdim-hadamard-2x4": lambda: _pair_rules(2, 4, "hadamard"),
    "kdim-frequency-pairs-2x3": lambda: _pair_rules(2, 3, "frequency_pairs"),
}


class TestSymmetryFolding:
    @pytest.mark.parametrize("case", sorted(FOLDED_RULES))
    def test_folded_rule_agrees_with_full_rule(self, monkeypatch, case):
        decide = estimators._point_symmetric
        decisions = []

        def spy(fields, means):
            decisions.append(decide(fields, means))
            return decisions[-1]

        monkeypatch.setattr(estimators, "_point_symmetric", spy)
        folded = FOLDED_RULES[case]()
        assert decisions and all(np.all(d) for d in decisions)
        _full_rule(monkeypatch)
        full = FOLDED_RULES[case]()
        assert len(folded) == len(full)
        for a, b in zip(folded, full):
            assert abs(a.value - b.value) <= 1e-13 * (1.0 + abs(b.value))
            assert a.count == b.count

    @pytest.mark.parametrize(
        "components",
        [
            [(0.5, [1.0], [[1.0]]), (0.5, [-math.nextafter(1.0, 0.0)], [[1.0]])],
            [(0.3, [1.0], [[1.0]]), (0.7, [-1.0], [[1.0]])],
        ],
        ids=["means-one-ulp-apart", "unequal-weights"],
    )
    def test_laws_not_exactly_symmetric_run_the_full_rule(self, monkeypatch, components):
        law = se.make_gaussian_mixture(components)
        folds = _line_folds(monkeypatch)
        estimates = (se.entropy_quadrature_1d(law), se.fisher_quadrature(law))
        assert folds and not any(folds)
        _full_rule(monkeypatch)
        assert (se.entropy_quadrature_1d(law), se.fisher_quadrature(law)) == estimates

    # a mean within symmetrize's merge rounding of 0 is kept unreflected, so
    # the means here are 0 or at least 1e-3 away from it
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.05, 1.0),
                st.sampled_from([-1.0, 0.0, 1.0]),
                st.floats(1e-3, 5.0),
                st.floats(0.05, 4.0),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_symmetrized_laws_fold(self, components):
        law = se.symmetrize(
            se.make_gaussian_mixture([(w, [s * m], [[v]]) for w, s, m, v in components])
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            folds = _line_folds(monkeypatch)
            se.entropy_quadrature_1d(law)
        assert folds and all(folds)

    def test_point_symmetric_grid_evaluates_half_the_nodes(self, monkeypatch):
        law = se.bimodal_product(3)
        pair = se.push_forward_linear(law, se.balanced_projection(2, 3, "frequency_pairs").matrix)
        points = []
        log_density = type(pair).log_density

        def spy(self, x):
            points.append(len(x))
            return log_density(self, x)

        monkeypatch.setattr(type(pair), "log_density", spy)
        est = se.entropy_quadrature_2d(pair)
        # one doubling: half of the 64^2 + 128^2 + 256^2 nodes of the full grids
        assert sum(points) == 43008
        assert est.count == 256**2


class TestFisherMc:
    def test_isotropic_gaussian(self):
        est = se.fisher_mc(se.gaussian_iid(3), 200000, 1)
        assert abs(est.value - 3.0) <= 3 * est.stderr
        assert est.value >= 0.0

    def test_variance_four(self):
        est = se.fisher_mc(se.gaussian_iid(1, 4.0), 200000, 1)
        assert abs(est.value - 0.25) <= 3 * est.stderr

    def test_bimodal_matches_quadrature_oracle(self):
        law = se.bimodal_1d()
        est = se.fisher_mc(law, 200000, 2)
        # independent oracle: high-resolution quadrature of (f')^2 / f
        x = np.linspace(-12, 12, 200001)
        f = np.exp(law.log_density(x[:, None]))
        fp = np.gradient(f, x)
        oracle = np.trapezoid(fp**2 / np.maximum(f, 1e-300), x)
        assert abs(est.value - oracle) <= 3 * est.stderr

    def test_heat_flow_closed_form(self):
        for var, t in [(1.0, 1.0), (4.0, 2.0), (0.25, 0.5)]:
            law = se.convolve_isotropic(se.gaussian_iid(2, var), t)
            est = se.fisher_mc(law, 100000, 4)
            assert abs(est.value - 2.0 / (var + t)) <= 3 * est.stderr


class TestCrossTerm:
    def test_symmetric_product_vanishes(self):
        est = se.cross_term_mc(se.bimodal_product(3), 0, 1, 100000, 5)
        assert abs(est.value) <= 3 * est.stderr

    def test_correlated_gaussian_matches_precision_entry(self):
        est = se.cross_term_mc(se.correlated_gaussian(-0.9), 0, 1, 200000, 5)
        assert abs(est.value - 0.9 / 0.19) <= 3 * est.stderr

    def test_standard_normal_vanishes(self):
        est = se.cross_term_mc(se.gaussian_iid(3), 1, 2, 100000, 6)
        assert abs(est.value) <= 3 * est.stderr

    def test_index_validation(self):
        with pytest.raises(se.IndexOutOfRangeError):
            se.cross_term_mc(se.gaussian_iid(2), 0, 0, 1000, 0)
        with pytest.raises(se.IndexOutOfRangeError):
            se.cross_term_mc(se.gaussian_iid(2), 0, 2, 1000, 0)


class TestScoreProjection:
    def test_single_gaussian_analytic(self):
        law = se.make_gaussian_mixture([(1.0, [0.0, 0.0], [[2.0, 0.4], [0.4, 1.0]])])
        a = np.array([[3.0, 1.0]]) / math.sqrt(10)
        report = se.score_projection_residual(law, a, probes=12, count=1000, seed=0)
        assert report.max_residual <= 1e-10

    def test_bimodal_product_diagonal_direction(self):
        law = se.bimodal_product(2)
        a = np.array([[1.0, 1.0]]) / math.sqrt(2)
        report = se.score_projection_residual(law, a, probes=8, count=30000, seed=0)
        assert report.max_residual <= 3 * report.stderr

    def test_identity_projection_exact(self):
        law = se.bimodal_product(2)
        report = se.score_projection_residual(law, np.eye(2), probes=8, count=1000, seed=0)
        assert report.max_residual <= 1e-12

    def test_correlated_gaussian_analytic(self):
        law = se.correlated_gaussian(0.5)
        for a in (np.array([[1.0, 1.0]]) / math.sqrt(2), np.array([[0.6, -0.8]])):
            report = se.score_projection_residual(law, a, probes=16, count=1000, seed=3)
            assert report.max_residual <= 1e-12

    def test_conditional_gains_match_cholesky_solve(self):
        from scipy.linalg import cho_solve

        rng = np.random.default_rng(11)
        components = []
        for _ in range(3):
            b = rng.standard_normal((4, 4))
            components.append((1.0, rng.standard_normal(4), b @ b.T + 0.3 * np.eye(4)))
        law = se.make_gaussian_mixture(components)
        a = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        parts = estimators._conditional_parts(law, a)
        assert len(parts) == len(law._groups) == 3
        for cov, (gain, _) in zip(law.covs, parts):
            chol = np.linalg.cholesky(a @ cov @ a.T)
            want = cho_solve((chol, True), a @ cov).T
            assert np.max(np.abs(gain - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_rank_deficient(self):
        with pytest.raises(se.RankDeficientError):
            se.score_projection_residual(
                se.gaussian_iid(2), np.array([[1.0, 0.0], [1.0, 1e-13]]), probes=2, count=500, seed=0
            )


class TestMixedPartial:
    def test_product_law_passes(self):
        report = se.mixed_partial_independence(se.bimodal_product(2), 0)
        assert report.verdict
        assert report.max_abs <= report.tol_effective

    def test_correlated_gaussian_fails_with_known_value(self):
        report = se.mixed_partial_independence(se.correlated_gaussian(-0.9), 0)
        assert not report.verdict
        assert report.max_abs == pytest.approx(0.9 / 0.19, rel=1e-3)

    def test_rotated_bimodal_in_unrotated_coordinates(self):
        from symentropy.mixtures import ROTATION_2D

        law = se.push_forward_linear(se.rotated_bimodal(), ROTATION_2D.T)
        report = se.mixed_partial_independence(law, 0)
        assert report.verdict

    def test_index_validation(self):
        with pytest.raises(se.IndexOutOfRangeError):
            se.mixed_partial_independence(se.gaussian_iid(2), 5)


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("idx", range(len(FIVE_1D_MIXTURES)))
    def test_three_routes_agree(self, idx):
        law = FIVE_1D_MIXTURES[idx]
        mc = se.entropy_mc(law, 100000, 13)
        quad = se.entropy_quadrature_1d(law)
        knn = se.entropy_knn(law.sample(60000, 13))
        assert abs(mc.value - quad.value) <= 3 * math.hypot(mc.stderr, quad.stderr)
        assert abs(knn.value - quad.value) <= 3 * math.hypot(knn.stderr, quad.stderr)
        assert abs(knn.value - mc.value) <= 3 * math.hypot(knn.stderr, mc.stderr)


class TestOrthonormalInvariance:
    def test_entropy_invariant_under_rotation(self):
        law = se.bimodal_product(2)
        q = np.linalg.qr(np.random.default_rng(12).standard_normal((2, 2)))[0]
        rotated = se.push_forward_linear(law, q)
        a = se.entropy_mc(law, 100000, 3)
        b = se.entropy_mc(rotated, 100000, 4)
        assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


class TestGaussianCalibrationGrid:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mc_and_fisher_on_grid(self, n):
        for var in (0.25, 1.0, 4.0):
            law = se.gaussian_iid(n, var)
            h = se.entropy_mc(law, 50000, 31)
            assert abs(h.value - gaussian_entropy(n, var)) <= 3 * h.stderr
            fi = se.fisher_mc(law, 50000, 31)
            assert abs(fi.value - n / var) <= 3 * fi.stderr
