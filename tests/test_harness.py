import math

import numpy as np
import pytest

import symentropy as se
from symentropy import estimators, harness
from symentropy.harness import HOLDS, HOLDS_WITH_EQUALITY, VIOLATED

BUDGET = se.Budget(samples=100000, seed=0)

# closed-form gap of the correlated-Gaussian counterexample at rho = -0.9:
# 0.5*log(1+rho) - 0.25*log(1-rho^2); the 2*pi*e factors cancel
COUNTEREXAMPLE_GAP = 0.5 * math.log(0.1) - 0.25 * math.log(0.19)


class TestVerifyMain:
    def test_gaussian_equality(self):
        report = se.verify_main(se.gaussian_iid(3), BUDGET)
        assert report.statement == "thm_main"
        assert report.verdict == HOLDS_WITH_EQUALITY
        assert abs(report.gap) <= 3 * report.sigma

    def test_bimodal_product_strict(self):
        report = se.verify_main(se.bimodal_product(3), BUDGET)
        assert report.verdict == HOLDS
        assert report.gap > 3 * report.sigma

    def test_rotated_bimodal_equality(self):
        report = se.verify_main(se.rotated_bimodal(), BUDGET)
        assert report.verdict == HOLDS_WITH_EQUALITY

    def test_rejects_asymmetric_law(self):
        with pytest.raises(se.NotSymmetricError, match="counterexample"):
            se.verify_main(se.correlated_gaussian(-0.9), BUDGET)

    def test_report_embeds_reproducibility_fields(self):
        report = se.verify_main(se.gaussian_iid(2), BUDGET)
        assert report.seed == BUDGET.seed
        assert report.budget == BUDGET.samples
        assert report.law_fingerprint == se.law_fingerprint(se.gaussian_iid(2))


class TestVerifyDirectional:
    def test_diagonal_direction_reduces_to_main(self):
        law = se.bimodal_product(3)
        main = se.verify_main(law, BUDGET)
        diag = se.verify_directional(law, np.ones(3) / math.sqrt(3), BUDGET)
        assert diag.gap == pytest.approx(main.gap, abs=1e-12)

    def test_closed_form_margin_at_pi_over_6(self):
        theta = math.pi / 6
        a = np.array([math.cos(theta), math.sin(theta)])
        report = se.verify_directional(se.gaussian_iid(2), a, BUDGET)
        # gap should hover near -log(sin(2 theta)) = 0.1438
        assert report.verdict == HOLDS
        assert report.gap == pytest.approx(-math.log(math.sin(2 * theta)), abs=5 * report.sigma + 1e-3)

    def test_zero_coordinate_is_trivially_true(self):
        report = se.verify_directional(se.gaussian_iid(3), np.array([1.0, 0.0, 0.0]), BUDGET)
        assert report.verdict == HOLDS
        assert report.rhs == float("-inf")
        assert any("trivial_true" in note for note in report.notes)

    def test_sign_convention_logged(self):
        report = se.verify_directional(
            se.gaussian_iid(2), np.array([1.0, -1.0]) / math.sqrt(2), BUDGET
        )
        assert any("sign_convention" in note for note in report.notes)
        assert report.verdict in (HOLDS, HOLDS_WITH_EQUALITY)

    def test_rejects_non_unit(self):
        with pytest.raises(se.NotUnitVectorError):
            se.verify_directional(se.gaussian_iid(2), np.array([1.0, 1.0]), BUDGET)


class TestVerifyKdim:
    def test_gaussian_hadamard_equality(self):
        report = se.verify_kdim(
            se.gaussian_iid(4), se.balanced_projection(2, 4, "hadamard"), BUDGET
        )
        assert report.statement == "thm_kdim"
        assert report.verdict == HOLDS_WITH_EQUALITY

    @pytest.mark.parametrize("n, method", [(3, "frequency_pairs"), (4, "hadamard"), (5, "frequency_pairs")])
    def test_gaussian_two_row_equality_is_exact(self, n, method):
        report = se.verify_kdim(se.gaussian_iid(n), se.balanced_projection(2, n, method), BUDGET)
        assert report.lhs.method == "quadrature_2d"
        assert report.verdict == HOLDS_WITH_EQUALITY
        assert abs(report.gap) <= 3 * report.sigma < 1e-10

    def test_bimodal_product_strict(self):
        report = se.verify_kdim(
            se.bimodal_product(4), se.balanced_projection(2, 4, "hadamard"), BUDGET
        )
        assert report.verdict == HOLDS
        assert report.gap > 0

    def test_single_row_matches_main(self):
        law = se.bimodal_product(3)
        main = se.verify_main(law, BUDGET)
        kdim = se.verify_kdim(law, se.balanced_projection(1, 3, "hadamard"), BUDGET)
        # same inequality, and both take h(a . X) from the 1-D quadrature
        assert kdim.lhs.method == main.lhs.method == "quadrature_1d"
        assert abs(kdim.gap - main.gap) <= 1e-10
        assert kdim.verdict == HOLDS

    def test_rejects_unbalanced(self):
        with pytest.raises(se.NotBalancedError):
            se.verify_kdim(se.gaussian_iid(4), np.eye(4)[:2], BUDGET)

    def test_rejects_asymmetric(self):
        with pytest.raises(se.NotSymmetricError):
            se.verify_kdim(
                se.correlated_gaussian(-0.9),
                se.balanced_projection(1, 2, "hadamard"),
                BUDGET,
            )


class TestVerifyFisherLemma:
    def test_gaussian_equality(self):
        report = se.verify_fisher_lemma(se.gaussian_iid(3), BUDGET)
        assert report.statement == "fisher_lemma"
        assert report.direction == -1
        assert report.verdict == HOLDS_WITH_EQUALITY

    @pytest.mark.parametrize("law", [se.gaussian_iid(1), se.gaussian_iid(3), se.gaussian_iid(2, 4.0)])
    def test_gaussian_equality_is_exact(self, law):
        report = se.verify_fisher_lemma(law, BUDGET)
        assert report.verdict == HOLDS_WITH_EQUALITY
        assert abs(report.gap) <= 3 * report.sigma < 1e-10

    def test_variance_four_equality(self):
        report = se.verify_fisher_lemma(se.gaussian_iid(2, 4.0), BUDGET)
        assert report.verdict == HOLDS_WITH_EQUALITY
        assert report.lhs.value == pytest.approx(0.25, abs=3 * report.sigma)

    def test_bimodal_product_strict(self):
        report = se.verify_fisher_lemma(se.bimodal_product(3), BUDGET)
        assert report.verdict == HOLDS
        assert report.gap < -3 * report.sigma  # I(Y) strictly below I(X)/n

    def test_equal_marginals_share_one_quadrature(self, monkeypatch):
        law = se.bimodal_product(3)
        rule = harness.fisher_quadrature
        calls = []

        def spy(m):
            calls.append(m.dim)
            return rule(m)

        monkeypatch.setattr(harness, "fisher_quadrature", spy)
        report = se.verify_fisher_lemma(law, BUDGET)
        # I(Y), and the one marginal that all three coordinates share
        assert calls == [1, 1]
        [marginal, *_] = se.coordinate_marginals(law)[0]
        assert report.rhs == math.fsum([rule(marginal).value] * 3) / 3

    @pytest.mark.parametrize(
        "law, method",
        [
            (se.bimodal_product(3), "marginal_quadrature_1d"),
            (se.gaussian_iid(1), "marginal_quadrature_1d"),
            (se.rotated_bimodal(), "quadrature_2d"),
        ],
    )
    def test_notes_say_how_fisher_x_was_computed(self, law, method):
        report = se.verify_fisher_lemma(law, BUDGET)
        assert report.lhs.method == "quadrature_1d"
        assert report.notes == (f"fisher_x={method}",)

    def test_non_product_3d_law_falls_back_to_monte_carlo(self, monkeypatch):
        # a symmetric scale mixture: its coordinates are dependent
        law = se.make_gaussian_mixture([(0.5, np.zeros(3), np.eye(3)), (0.5, np.zeros(3), 4 * np.eye(3))])
        assert not se.coordinate_marginals(law)[1]
        calls = []
        fisher_mc = harness.fisher_mc

        def spy(d, count, seed):
            calls.append(d)
            return fisher_mc(d, count, seed)

        monkeypatch.setattr(harness, "fisher_mc", spy)
        report = se.verify_fisher_lemma(law, BUDGET)
        assert calls == [law]
        assert report.notes == ("fisher_x=mc_score",)
        assert report.verdict == HOLDS


class TestDeterministicStatements:
    # kdim with k <= 2 and the Fisher lemma on product and 2-D laws draw nothing
    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew samples")

        monkeypatch.setattr(se.GaussianMixture, "sample", forbidden)
        monkeypatch.setattr(estimators, "mc_mean", forbidden)

    @staticmethod
    def _same_but_seed(make):
        a, b = (make(se.Budget(seed=seed)).to_json_dict() for seed in (0, 7))
        assert (a.pop("seed"), b.pop("seed")) == (0, 7)
        assert a == b

    @pytest.mark.parametrize("name", ["bimodal-product-n3", "gaussian-iid-n3"])
    @pytest.mark.parametrize("k, method", [(1, "hadamard"), (2, "frequency_pairs")])
    def test_kdim(self, name, k, method):
        law = se.builtin_law(name)
        projection = se.balanced_projection(k, 3, method)
        self._same_but_seed(lambda budget: se.verify_kdim(law, projection, budget))

    @pytest.mark.parametrize("name", ["bimodal-product-n3", "gaussian-iid-n3", "rotated-bimodal"])
    def test_fisher_lemma(self, name):
        law = se.builtin_law(name)
        self._same_but_seed(lambda budget: se.verify_fisher_lemma(law, budget))


class TestEqualityDemo:
    def test_gaussian_base(self):
        report = se.equality_demo_n2(se.gaussian_iid(1), BUDGET)
        assert report.verdict == HOLDS_WITH_EQUALITY

    def test_bimodal_base(self):
        report = se.equality_demo_n2(se.bimodal_1d(), BUDGET)
        assert report.verdict == HOLDS_WITH_EQUALITY
        assert abs(report.gap) <= 3 * report.sigma
        assert report.independence.verdict
        assert report.coordinate_symmetry.verdict

    def test_trimodal_base(self):
        report = se.equality_demo_n2(se.trimodal_1d(), BUDGET)
        assert report.verdict == HOLDS_WITH_EQUALITY

    @pytest.mark.parametrize("seed", [4, 188, 269])
    def test_bimodal_base_exact_at_unlucky_seeds(self, seed):
        # these seeds' draws put plain Monte Carlo h(X) beyond 3 sigma
        report = se.equality_demo_n2(se.bimodal_1d(), se.Budget(seed=seed))
        assert report.verdict == HOLDS_WITH_EQUALITY
        assert report.gap == 0.0

    def test_rejects_asymmetric_base(self):
        shifted = se.make_gaussian_mixture([(1.0, [1.0], [[1.0]])])
        with pytest.raises(se.NotSymmetricBaseError):
            se.equality_demo_n2(shifted, BUDGET)


class TestGaussianityProbe:
    def test_gaussian_passes_everything(self):
        report = se.gaussianity_probe(se.gaussian_iid(3), BUDGET)
        assert report.independence_failures == ()
        assert report.main.verdict == HOLDS_WITH_EQUALITY
        assert abs(report.main_gap) <= 3 * report.main.sigma

    def test_scaled_gaussian_passes(self):
        report = se.gaussianity_probe(se.gaussian_iid(4, 2.0), BUDGET)
        assert report.independence_failures == ()

    def test_bimodal_product_fails_independence(self):
        report = se.gaussianity_probe(se.bimodal_product(3), BUDGET)
        assert report.main_gap > 3 * report.main.sigma
        assert len(report.independence_failures) >= 1

    def test_dimension_guard(self):
        with pytest.raises(se.DimensionTooSmallError):
            se.gaussianity_probe(se.rotated_bimodal(), BUDGET)


class TestDirectionScan:
    def test_gaussian_entropy_constant(self):
        report = se.direction_scan(se.gaussian_iid(2), resolution=16, budget=BUDGET)
        values = [row.entropy for row in report.rows]
        assert np.allclose(values, 0.5 * math.log(2 * math.pi * math.e), atol=1e-9)

    def test_rotated_bimodal_includes_diagonal(self):
        report = se.direction_scan(se.rotated_bimodal(), resolution=90, budget=BUDGET)
        assert len(report.rows) == 90
        diag = min(
            report.rows,
            key=lambda r: abs(r.direction[0] - 1 / math.sqrt(2)) + abs(r.direction[1] - 1 / math.sqrt(2)),
        )
        base = se.entropy_quadrature_1d(se.bimodal_1d())
        assert diag.direction[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert diag.entropy == pytest.approx(base.value, abs=1e-9)

    def test_all_margins_certified(self):
        for law in [se.rotated_bimodal(), se.bimodal_product(3)]:
            report = se.direction_scan(law, resolution=25, budget=BUDGET)
            for row in report.rows:
                assert row.margin >= -3 * row.stderr

    def test_argmax_reported(self):
        report = se.direction_scan(se.bimodal_product(2), resolution=10, budget=BUDGET)
        best = max(report.rows, key=lambda r: r.entropy)
        assert report.argmax_direction == best.direction

    def test_argmax_tie_reports_first_row(self, monkeypatch):
        # the later row is one ulp larger, far inside its quadrature stderr
        values = [1.0, float(np.nextafter(1.0, 2.0)), 0.5]
        monkeypatch.setattr(
            harness,
            "projection_entropy",
            lambda mix, directions: [
                se.EntropyEstimate(v, 1e-12, "quadrature_1d", 512) for v in values
            ],
        )
        report = se.direction_scan(se.gaussian_iid(2), resolution=3, budget=BUDGET)
        assert report.rows[1].entropy > report.rows[0].entropy
        assert report.argmax_direction == report.rows[0].direction

    def test_joint_entropy_exact_on_product_law(self):
        report = se.direction_scan(se.bimodal_product(3), resolution=5, budget=BUDGET)
        assert report.joint_entropy.method == "decomposed"
        assert report.joint_entropy.count == 0

    def test_csv_shape(self):
        report = se.direction_scan(se.gaussian_iid(3), resolution=7, budget=BUDGET)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "a1,a2,a3,entropy,stderr,bound,margin"
        assert len(lines) == 8

    def test_dimension_guard(self):
        with pytest.raises(se.UnsupportedDimensionError):
            se.direction_scan(se.gaussian_iid(4), resolution=4, budget=BUDGET)


class TestAsymmetricCounterexample:
    def test_reference_gap(self):
        report = se.asymmetric_counterexample()
        assert report.verdict == VIOLATED
        assert report.sigma == 0.0
        assert report.gap == pytest.approx(COUNTEREXAMPLE_GAP, abs=1e-12)

    def test_zero_correlation_is_equality(self):
        report = se.asymmetric_counterexample(rho=0.0)
        assert report.verdict == HOLDS_WITH_EQUALITY
        assert report.gap == pytest.approx(0.0, abs=1e-12)

    def test_positive_correlation_holds_despite_asymmetry(self):
        report = se.asymmetric_counterexample(rho=0.9)
        assert report.verdict == HOLDS
        assert report.gap == pytest.approx(-COUNTEREXAMPLE_GAP, abs=1e-12)

    def test_law_is_flagged_asymmetric(self):
        report = se.asymmetric_counterexample()
        assert any("symmetric=False" in note for note in report.notes)

    def test_rho_validation(self):
        with pytest.raises(ValueError, match="rho"):
            se.asymmetric_counterexample(rho=1.0)


class TestVerdictRule:
    def test_inconclusive_on_nonfinite_sigma(self):
        from symentropy.harness import _verdict

        assert _verdict(0.0, float("inf"), 3.0) == "inconclusive"
        assert _verdict(1.0, 0.1, 3.0) == HOLDS
        assert _verdict(0.2, 0.1, 3.0) == HOLDS_WITH_EQUALITY
        assert _verdict(-0.2, 0.1, 3.0) == HOLDS_WITH_EQUALITY
        assert _verdict(-0.5, 0.1, 3.0) == VIOLATED

    def test_infinite_margin_holds_nan_margin_inconclusive(self):
        from symentropy.harness import _verdict

        assert _verdict(float("inf"), 0.1, 3.0) == HOLDS
        assert _verdict(float("nan"), 0.1, 3.0) == "inconclusive"


class TestReportSerialization:
    def test_json_dict_schema(self):
        report = se.verify_main(se.gaussian_iid(2), se.Budget(samples=5000, seed=1))
        payload = report.to_json_dict()
        for key in ("statement", "lhs", "rhs", "gap", "sigma", "verdict", "law_fingerprint", "seed", "budget"):
            assert key in payload
        assert set(payload["lhs"]) == {"value", "stderr", "method", "count"}
