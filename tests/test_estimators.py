import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symentropy as se
from symentropy import estimators, streams
from symentropy.mixtures import ROTATION_2D
from symentropy.streams import CHUNK_SIZE, split_seed

HALF_LOG_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def gaussian_entropy(n, var):
    return n * (HALF_LOG_2PIE + 0.5 * math.log(var))


# the product of three bimodal coordinates in a rotated basis: not a product
ROTATED_BIMODAL_N3 = se.push_forward_linear(
    se.bimodal_product(3), se.proof_basis_family(3).bases[0].matrix.T
)
# two independent copies of rotated-bimodal, on coordinates (0, 1) and (2, 3)
BLOCK_LAW = se.push_forward_linear(se.bimodal_product(4), np.kron(np.eye(2), ROTATION_2D))
# a rotated i.i.d. pair whose narrow, distant components the 2-D grid cannot resolve
NARROW_ROTATED = se.rotated_iid_construction(
    se.make_gaussian_mixture([(0.5, [s], [[0.001]]) for s in (30.0, -30.0)])
)

# components correlated within (S01 != 0), which no builtin multi-component 2-D law has
CORRELATED_PAIR = se.make_gaussian_mixture(
    [(0.5, [s * 3.0, s * 1.0], [[4.0, 1.9], [1.9, 1.0]]) for s in (-1.0, 1.0)]
)

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
        # every 1-D and 2-D integral runs on the line-law arrays, never on
        # the mixture's own log-density or score
        base, law = se.bimodal_1d(), se.bimodal_product(3)
        pair = se.push_forward_linear(law, se.balanced_projection(2, 3, "frequency_pairs").matrix)

        def rules():
            return (
                se.entropy_quadrature_1d(base),
                se.fisher_quadrature(base),
                se.projection_entropy(law, _scan_grid(3)),
                *(
                    rule(p)
                    for p in (se.rotated_bimodal(), pair)
                    for rule in (se.entropy_quadrature_2d, se.fisher_quadrature)
                ),
            )

        expected = rules()

        def refuse(self, x):
            raise AssertionError("mixture kernel called")

        monkeypatch.setattr(se.GaussianMixture, "log_density", refuse)
        monkeypatch.setattr(se.GaussianMixture, "score", refuse)
        assert rules() == expected

    def test_far_narrow_components_fail_the_mass_certificate(self):
        # every panel resolution misses part of the narrow peaks at +-100,
        # so the rule's mass is off and its stderr is inf, whatever the
        # doubling difference says
        base = se.bimodal_1d(separation=100.0, var=1e-6)
        rotated = se.rotated_iid_construction(base)
        for est in (
            se.entropy_quadrature_1d(base),
            se.fisher_quadrature(base),
            se.entropy_quadrature_2d(rotated),
            se.fisher_quadrature(rotated),
        ):
            assert est.stderr == math.inf


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
            (se.entropy_quadrature_2d(CORRELATED_PAIR), se.entropy_mc(CORRELATED_PAIR, 200000, 5)),
            (se.fisher_quadrature(CORRELATED_PAIR), se.fisher_mc(CORRELATED_PAIR, 200000, 5)),
        ]
        for quad, mc in checks:
            assert abs(quad.value - mc.value) <= 4 * math.hypot(quad.stderr, mc.stderr)

    @pytest.mark.parametrize(
        "rule, reference",
        # the values of the tensor rule evaluated through the mixture kernel
        [(se.entropy_quadrature_2d, 3.0032073493299904), (se.fisher_quadrature, 11.0790423705359)],
    )
    def test_correlated_components_match_their_swap(self, rule, reference):
        swap = se.make_gaussian_mixture(
            [(0.5, [s * 1.0, s * 3.0], [[1.0, 1.9], [1.9, 4.0]]) for s in (-1.0, 1.0)]
        )
        est = rule(CORRELATED_PAIR)
        assert abs(est.value - rule(swap).value) <= 1e-12
        assert abs(est.value - reference) <= 1e-13

    def test_rejects_wrong_dimension(self):
        for law in (se.gaussian_iid(1), se.gaussian_iid(3)):
            with pytest.raises(ValueError, match="dim"):
                se.entropy_quadrature_2d(law)
        with pytest.raises(ValueError, match="dim"):
            se.fisher_quadrature(se.gaussian_iid(3))

    def test_grid_held_in_slabs(self, monkeypatch):
        # a law that never converges takes both step halvings, 1025^2 nodes,
        # and no slab of their node-components exceeds CHUNK_SIZE, nor wastes
        # half of it
        sizes = []
        law = se.make_gaussian_mixture(
            [(0.5, [s * 30.0, 0.0], 0.001 * np.eye(2)) for s in (-1.0, 1.0)]
        )
        integrand = estimators._line_neg_f_log_f

        def spy(t, *args):
            sizes.append(t.size)
            return integrand(t, *args)

        monkeypatch.setattr(estimators, "_line_neg_f_log_f", spy)
        est = se.entropy_quadrature_2d(law)
        assert est.count == 1025**2
        assert CHUNK_SIZE // 2 < max(sizes) <= CHUNK_SIZE


class TestEntropyDecomposed:
    @pytest.mark.parametrize(
        "law",
        [se.bimodal_product(1), se.bimodal_product(3), se.gaussian_iid(3), se.gaussian_iid(64)],
    )
    def test_product_laws_are_sums_of_marginal_quadratures(self, law):
        est = se.entropy_decomposed(law, 1000, 0)
        marginals, _ = se.coordinate_marginals(law)
        parts = [se.entropy_quadrature_1d(m) for m in marginals]
        assert est.value == math.fsum(p.value for p in parts)
        if law.dim == 1:  # one block, whose estimate is the line rule's own
            assert est == parts[0]
        else:
            assert (est.method, est.count) == ("decomposed", 0)

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
        marginals, blocks = se.coordinate_marginals(law)
        assert blocks == ((0,), (1,))
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
        z_law = se.push_forward_linear(se.rotated_bimodal(), ROTATION_2D.T)
        est = se.entropy_decomposed(z_law, 1000, 0)
        assert est.count == 0
        base = se.entropy_quadrature_1d(se.bimodal_1d()).value
        assert est.value == pytest.approx(2 * base, abs=1e-10)

    def test_non_product_draws_for_total_correlation(self):
        est = se.entropy_decomposed(ROTATED_BIMODAL_N3, 20000, 3)
        assert est.count == 20000
        base = se.entropy_quadrature_1d(se.bimodal_1d()).value
        assert abs(est.value - 3 * base) <= 4 * est.stderr

    def test_non_product_2d_law_is_integrated_whole(self):
        law = se.rotated_bimodal()
        assert se.entropy_decomposed(law, 1000, 0) == se.entropy_quadrature_2d(law)

    def test_unconverged_2d_grid_falls_back_to_draws(self):
        # 2 h(0.5 N(30, 0.001) + 0.5 N(-30, 0.001)), the narrow peaks well apart
        truth = 2 * (0.5 * math.log(2 * math.pi * math.e * 0.001) + math.log(2.0))
        est = se.entropy_decomposed(NARROW_ROTATED, 20000, 3)
        assert (est.method, est.count) == ("decomposed", 20000)
        assert abs(est.value - truth) <= 4 * est.stderr
        assert se.fisher_decomposed(NARROW_ROTATED, 2000, 3).method == "mc_score"

    def test_independent_pairs_are_two_2d_rules(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a law of 1-D and 2-D blocks draws nothing")

        monkeypatch.setattr(estimators, "_mc_estimate", forbidden)
        pair = se.rotated_bimodal()
        est = se.entropy_decomposed(BLOCK_LAW, 1000, 0)
        assert (est.method, est.count) == ("decomposed", 0)
        assert est.value == pytest.approx(2 * se.entropy_quadrature_2d(pair).value, abs=1e-12)
        assert est.stderr <= 1e-11
        fisher = se.fisher_decomposed(BLOCK_LAW, 1000, 0)
        assert fisher.value == pytest.approx(2 * se.fisher_quadrature(pair).value, abs=1e-12)

    def test_independent_coordinate_and_pair_sum_their_rules(self, monkeypatch):
        # rotated-bimodal on coordinates 0 and 1, bimodal on coordinate 2
        law = se.push_forward_linear(
            se.bimodal_product(3), np.block([[ROTATION_2D, np.zeros((2, 1))], [0.0, 0.0, 1.0]])
        )
        assert se.coordinate_marginals(law)[1] == ((2,), (0, 1))
        est = se.entropy_decomposed(law, 1000, 0)
        pair = se.entropy_quadrature_2d(se.rotated_bimodal()).value
        single = se.entropy_quadrature_1d(se.bimodal_1d()).value
        assert (est.method, est.count) == ("decomposed", 0)
        assert est.value == pytest.approx(pair + single, abs=1e-12)

    def test_dependent_block_beside_an_independent_coordinate_draws(self):
        # a bimodal coordinate 0 beside ROTATED_BIMODAL_N3 on coordinates 1-3;
        # only the 3-D block draws, and h(X) is 4 h(bimodal)
        rotation = se.proof_basis_family(3).bases[0].matrix.T
        law = se.push_forward_linear(
            se.bimodal_product(4), np.block([[1.0, np.zeros((1, 3))], [np.zeros((3, 1)), rotation]])
        )
        assert se.coordinate_marginals(law)[1] == ((0,), (1, 2, 3))
        est = se.entropy_decomposed(law, 20000, 3)
        assert (est.method, est.count) == ("decomposed", 20000)
        base = se.entropy_quadrature_1d(se.bimodal_1d()).value
        assert abs(est.value - 4 * base) <= 4 * est.stderr
        assert se.fisher_decomposed(law, 2000, 3).count == 2000

    def test_total_correlation_coverage(self):
        # h of the unit-variance trivariate normal with correlations 0.5, 0.25, 0.5
        cov = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        truth = 0.5 * math.log((2 * math.pi * math.e) ** 3 * np.linalg.det(cov))
        law = se.make_gaussian_mixture([(1.0, np.zeros(3), cov)])
        z = []
        for seed in range(50):
            est = se.entropy_decomposed(law, 20000, seed)
            z.append((est.value - truth) / est.stderr)
        assert abs(np.mean(z)) < 0.5
        assert 0.7 < np.std(z, ddof=1) < 1.3

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
        assert len(_two_group_law()._heads) >= 2

    def test_only_unconverged_rows_double(self):
        # narrow components at +-30 along the first axis need step halvings;
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
        assert counts[0] > counts[1] == 257

    def test_each_refinement_is_one_call(self, monkeypatch):
        # both rows in the first pass, then the unconverged row alone, one
        # _line_integrals call per halving of its step
        law = se.make_gaussian_mixture(
            [(0.5, [-30.0, 0.0], 1e-3 * np.eye(2)), (0.5, [30.0, 0.0], 1e-3 * np.eye(2))]
        )
        calls = _line_calls(monkeypatch)
        estimates = se.projection_entropy(law, np.eye(2))
        assert len(calls) > 1
        assert calls == [(True, 2 if r == 0 else 1, 2, 128 << r) for r in range(len(calls))]
        assert estimates[0].count == 2 * calls[-1][3] + 1

    def test_non_unit_row_is_named(self):
        rows = np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 1.0]])
        with pytest.raises(se.NotUnitVectorError, match="row 2"):
            se.projection_entropy(se.gaussian_iid(2), rows)

    def test_nan_row_is_not_a_unit_row(self):
        with pytest.raises(se.NotUnitVectorError, match="row 0: norm nan"):
            se.projection_entropy(se.gaussian_iid(3), np.array([[math.nan, 0.6, 0.8]]))


def _full_rule(monkeypatch):
    # every law runs the unfolded rule over its whole range
    monkeypatch.setattr(
        estimators,
        "_point_symmetric",
        lambda mix: False,
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


def _line_calls(monkeypatch):
    # (fold, rows, components, steps) of every _line_integrals call, in order
    calls = []
    line_integrals = estimators._line_integrals

    def spy(integrand, log_weights, means, variances, radii, steps, fold):
        calls.append((fold, *means.shape, steps))
        return line_integrals(integrand, log_weights, means, variances, radii, steps, fold)

    monkeypatch.setattr(estimators, "_line_integrals", spy)
    return calls


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

        def spy(mix):
            decisions.append(decide(mix))
            return decisions[-1]

        monkeypatch.setattr(estimators, "_point_symmetric", spy)
        folded = FOLDED_RULES[case]()
        assert decisions and all(decisions)
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

    def test_symmetric_row_of_a_law_that_is_not_runs_the_full_rule(self, monkeypatch):
        # X_0 is symmetric and X_1 is not: the line law of e_0 . X is
        # point-symmetric, but the fold is decided on the law, which is not
        law = se.make_gaussian_mixture(
            [(0.5, [-1.0, 2.0], np.eye(2)), (0.5, [1.0, 2.0], np.eye(2))]
        )
        line = se.make_gaussian_mixture([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])
        assert not estimators._point_symmetric(law)
        calls = _line_calls(monkeypatch)
        [full] = se.projection_entropy(law, [[1.0, 0.0]])
        assert calls == [(False, 1, 2, 128)]
        calls.clear()
        folded = se.entropy_quadrature_1d(line)
        assert calls == [(True, 1, 2, 128)]
        assert abs(full.value - folded.value) <= 1e-13 * (1.0 + abs(folded.value))
        assert full.count == folded.count

    @pytest.mark.parametrize("rule", [se.entropy_quadrature_1d, se.fisher_quadrature])
    def test_own_row_merges_a_duplicated_component(self, monkeypatch, rule):
        split = se.make_gaussian_mixture(
            [(0.25, [1.0], [[1.0]]), (0.25, [-1.0], [[1.0]])] * 2
        )
        whole = se.make_gaussian_mixture([(0.5, [1.0], [[1.0]]), (0.5, [-1.0], [[1.0]])])
        calls = _line_calls(monkeypatch)
        assert rule(split) == rule(whole)
        assert calls == [(True, 1, 2, 128)] * 2

    @pytest.mark.parametrize("n, merged", [(3, 4), (8, 11)])
    def test_fisher_lemma_sum_row_is_merged(self, monkeypatch, n, merged):
        # the pushed sum law's own row, merged where its components are
        # bit-equal: 2^n components become a few
        ones = np.ones((1, n)) / math.sqrt(n)
        pushed = se.push_forward_linear(se.bimodal_product(n), ones)
        calls = _line_calls(monkeypatch)
        se.fisher_quadrature(pushed)
        assert calls == [(True, 1, merged, 128)]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.05, 1.0),
                st.sampled_from([-1.0, 0.0, 1.0]),
                st.floats(0.0, 5.0),
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
        line_integrals = estimators._line_integrals

        def spy(integrand, log_weights, means, variances, radii, steps, fold):
            # outer rows x inner nodes
            points.append(len(means) * (2 * steps + 1))
            return line_integrals(integrand, log_weights, means, variances, radii, steps, fold)

        monkeypatch.setattr(estimators, "_line_integrals", spy)
        est = se.entropy_quadrature_2d(pair)
        # no refinement: the 129 outer nodes on [0, R] of the 257^2 full grid
        assert points == [129 * 257]
        assert est.count == 257**2


def _evaluated_nodes(monkeypatch):
    # nodes at which either integrand is evaluated, summed over every call
    nodes = []
    for name in ("_line_neg_f_log_f", "_line_f_score_squared"):
        integrand = getattr(estimators, name)

        def spy(t, *args, integrand=integrand):
            nodes.append(t.shape[0] * t.shape[2])  # rows x components x nodes
            return integrand(t, *args)

        monkeypatch.setattr(estimators, name, spy)
    return nodes


class TestNestedTrapezoid:
    def test_one_pass_evaluates_each_node_once(self, monkeypatch):
        # the value, the mass and the value at twice the step come from one
        # pass: 129 folded nodes for a 1-D row, 129 x 257 for the kdim pair
        law = se.bimodal_product(3)
        pair = se.push_forward_linear(law, se.balanced_projection(2, 3, "frequency_pairs").matrix)
        nodes = _evaluated_nodes(monkeypatch)
        assert se.entropy_quadrature_1d(se.bimodal_1d()).count == 257
        assert sum(nodes) == 129
        nodes.clear()
        assert se.entropy_quadrature_2d(pair).count == 257**2
        assert sum(nodes) == 129 * 257

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("steps", [2, 128])
    def test_even_nodes_are_the_rule_at_twice_the_step(self, fold, steps):
        unit, pattern = estimators._trapezoid(steps, fold)
        coarse_unit, coarse_pattern = estimators._trapezoid(steps // 2, fold)
        assert np.array_equal(unit[::2], coarse_unit)
        assert np.array_equal(pattern[::2], coarse_pattern)
        # both integrate the standard normal density over [-8, 8] to 1
        radius = 8.0
        density = np.exp(-0.5 * (radius * unit) ** 2) / math.sqrt(2.0 * math.pi)
        fine, coarse = estimators._nested_sums(radius / steps, density, pattern)
        if steps == 128:
            assert fine == pytest.approx(1.0, abs=1e-14)
            assert coarse == pytest.approx(1.0, abs=1e-14)
        assert coarse == estimators._nested_sums(2 * radius / steps, density[::2], coarse_pattern)[0]

    def test_hadamard_pair_reaches_its_floor(self):
        # the 2x4 Hadamard push-forward of bimodal-product-n4 certifies at the
        # rounding floor (5.4e-12) from its first pass
        law = se.bimodal_product(4)
        pair = se.push_forward_linear(law, se.balanced_projection(2, 4, "hadamard").matrix)
        est = se.entropy_quadrature_2d(pair)
        assert est.stderr == estimators.floored_stderr(0.0, est.value)
        assert est.stderr < 5.5e-12

    def test_fisher_lemma_sigma_at_its_floor(self):
        # guards the start of 128 steps: at 96 the Fisher rule's difference
        # passes the convergence test but not the floor, and sigma rises 34x
        report = se.verify_fisher_lemma(se.bimodal_product(3), se.Budget())
        assert report.lhs.stderr == estimators.floored_stderr(0.0, report.lhs.value)
        assert report.sigma < 1.7e-12


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


class _NonFiniteLaw:
    """A 2-D law whose log-density is NaN and whose score is inf everywhere."""

    dim = 2

    def sample(self, count, seed):
        return np.zeros((count, self.dim))

    def log_density(self, x):
        return np.full(len(x), np.nan)

    def score(self, x):
        return np.full(np.shape(x), np.inf)


MC_ESTIMATES = {
    "entropy_mc": lambda law, count: se.entropy_mc(law, count, 0),
    "fisher_mc": lambda law, count: se.fisher_mc(law, count, 0),
    "cross_term_mc": lambda law, count: se.cross_term_mc(law, 0, 1, count, 0),
}


class TestMcMean:
    @staticmethod
    def normals(m, s):
        return np.random.default_rng(s).standard_normal(m)

    @pytest.mark.parametrize("count", [100, CHUNK_SIZE, 3 * CHUNK_SIZE + 17])
    def test_matches_all_chunks_merged_at_once(self, count):
        # every chunk's moments first, then one left fold over them in order
        full, rest = divmod(count, CHUNK_SIZE)
        sizes = [CHUNK_SIZE] * full + [rest] * (rest > 0)
        parts = [streams._moments(self.normals(m, split_seed(7, i))) for i, m in enumerate(sizes)]
        total = parts[0]
        for part in parts[1:]:
            total = streams._merge(total, part)
        n, mean, m2 = total
        assert streams.mc_mean(self.normals, count, 7) == (mean, math.sqrt(m2 / (n - 1) / n), n)

    def test_memory_does_not_grow_with_count(self):
        class FirstChunk(Exception):
            pass

        def stat(m, s):
            raise FirstChunk

        tracemalloc.start()
        try:
            with pytest.raises(FirstChunk):
                streams.mc_mean(stat, 10**11, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestMonteCarloSkeleton:
    @pytest.mark.parametrize(
        "name, error, message",
        [
            ("entropy_mc", se.NonFiniteLogDensityError, "log-density non-finite at a sample point"),
            ("fisher_mc", se.NonFiniteScoreError, "score non-finite at a sample point"),
            ("cross_term_mc", se.NonFiniteScoreError, "score non-finite at a sample point"),
        ],
    )
    def test_non_finite_statistic_raises(self, name, error, message):
        with pytest.raises(error) as caught:
            MC_ESTIMATES[name](_NonFiniteLaw(), 1000)
        assert str(caught.value) == message

    @pytest.mark.parametrize("name", sorted(MC_ESTIMATES))
    def test_count_below_100_rejected(self, name):
        with pytest.raises(ValueError, match="count"):
            MC_ESTIMATES[name](se.gaussian_iid(2), 99)

    def test_total_correlation_non_finite_raises(self, monkeypatch):
        log_density = se.GaussianMixture.log_density

        def nan_in_3d(self, x):
            if np.shape(x)[-1] == 3:
                return np.full(len(x), np.nan)
            return log_density(self, x)

        monkeypatch.setattr(se.GaussianMixture, "log_density", nan_in_3d)
        with pytest.raises(
            se.NonFiniteLogDensityError, match="log-density non-finite at a sample point"
        ):
            se.entropy_decomposed(ROTATED_BIMODAL_N3, 1000, 0)


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
        assert len(parts) == len(law._heads) == 3
        for cov, (gain, _) in zip(law.covs, parts):
            chol = np.linalg.cholesky(a @ cov @ a.T)
            want = cho_solve((chol, True), a @ cov).T
            assert np.max(np.abs(gain - want)) <= 1e-12 * np.max(np.abs(want))

    def test_negative_seed(self):
        law = se.correlated_gaussian(0.5)
        a = np.array([[0.6, -0.8]])
        report = se.score_projection_residual(law, a, probes=4, count=1000, seed=-1)
        assert report.max_residual <= 1e-12

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
        law = se.push_forward_linear(se.rotated_bimodal(), ROTATION_2D.T)
        report = se.mixed_partial_independence(law, 0)
        assert report.verdict

    def test_index_validation(self):
        with pytest.raises(se.IndexOutOfRangeError):
            se.mixed_partial_independence(se.gaussian_iid(2), 5)

    def test_negative_seed(self):
        assert se.mixed_partial_independence(se.bimodal_product(2), 0, seed=-1).verdict


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
