import math

import numpy as np
import pytest

import symentropy as se
from symentropy import heat_flow
from symentropy.estimators import floored_stderr
from symentropy.streams import CHUNK_SIZE, split_seed

HALF_LOG_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def path_fisher(law, t):
    # I(X_t) along X_t = X + sqrt(t) Z, by quadrature of the smoothed law
    return se.fisher_quadrature(se.convolve_isotropic(law, t))


class TestFisherPath:
    def test_isotropic_gaussian_values(self):
        for t in (0.0, 1.0):
            est = path_fisher(se.gaussian_iid(2), t)
            assert abs(est.value - 2.0 / (1.0 + t)) <= 3 * est.stderr + 1e-12

    def test_time_zero_variance_four(self):
        est = path_fisher(se.gaussian_iid(1, 4.0), 0.0)
        assert abs(est.value - 0.25) <= 3 * est.stderr + 1e-12

    def test_large_time_gaussian_dominance(self):
        # far along the flow the information approaches n / (t + mean eigenvalue)
        law = se.bimodal_1d()
        t = 1e6
        lam = float(law.covariance()[0, 0])
        est = path_fisher(law, t)
        assert abs(est.value - 1.0 / (t + lam)) <= 3 * est.stderr + 1e-9

    def test_monotone_decrease_for_gaussian(self):
        values = [path_fisher(se.gaussian_iid(2), t).value for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_trend_within_noise_for_mixture(self):
        path = [path_fisher(se.bimodal_product(2), t) for t in (0.0, 0.5, 1.0, 2.0)]
        for a, b in zip(path, path[1:]):
            assert b.value <= a.value + 3 * math.hypot(a.stderr, b.stderr)


def correlated_3d():
    # one dependent block of three coordinates: every de Bruijn node draws
    cov = [[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]]
    return se.symmetrize(se.make_gaussian_mixture([(1.0, [1.0, 0.5, 0.25], cov)]))


class TestNodeFlow:
    """The nodes of one ``_debruijn_sum``: exact where the structure rule converges,
    otherwise drawn by the closed-form split of the budget."""

    def test_no_chunk_stream_is_drawn_twice(self, stream_audit):
        # the nodes' shares of 16 * 600_000 draws span several chunks each
        stream_audit.draw = False
        heat_flow._debruijn_sum(correlated_3d(), 16, 600_000, 7)
        assert max(call[1] for call in stream_audit.calls) > CHUNK_SIZE
        streams = stream_audit.streams()
        assert len(streams) == len(set(streams))

    def test_node_draws_follow_the_closed_form_split(self, stream_audit):
        law = correlated_3d()
        heat_flow._debruijn_sum(law, 16, 2000, 3)
        calls = stream_audit.calls
        assert [call[0] for call in calls] == ["mc_score"] * 16
        assert [call[2] for call in calls] == [split_seed(3, 100_000 + j) for j in range(16)]
        # the spread of |score|^2 of each Gaussian component of X_t, component by component
        u, w = heat_flow._gl_unit_interval(16)
        t = u / (1.0 - u)
        eig = np.array([np.linalg.eigvalsh(cov) for cov in law.covs])
        spread = np.sqrt(np.einsum("k,kij->j", law.weights, 1.0 / (eig[:, :, None] + t) ** 2))
        share = w / (1.0 - u) ** 2 * spread
        expected = np.maximum(100, np.floor(16 * 2000 * share / share.sum()))
        counts = np.array([call[1] for call in calls])
        assert np.all(np.abs(counts - expected) <= 1)
        assert len(set(counts)) > 1


class TestDeBruijnEntropy:
    def test_standard_normal(self):
        est = se.entropy_via_debruijn(se.gaussian_iid(1), nodes=32, count=10000, seed=0)
        assert est.method == "debruijn"
        assert abs(est.value - HALF_LOG_2PIE) <= 3 * est.stderr

    def test_variance_four_closed_form(self):
        est = se.entropy_via_debruijn(se.gaussian_iid(1, 4.0), nodes=32, count=10000, seed=0)
        truth = HALF_LOG_2PIE + 0.5 * math.log(4.0)
        assert abs(est.value - truth) <= 3 * est.stderr
        assert abs(est.value - truth) <= 0.02

    @pytest.mark.parametrize(
        "cov",
        [np.eye(2), 4.0 * np.eye(2), np.diag([1.0, 2.0, 3.0])],
        ids=["identity", "scaled", "diagonal"],
    )
    def test_gaussian_battery(self, cov):
        n = cov.shape[0]
        law = se.make_gaussian_mixture([(1.0, np.zeros(n), cov)])
        truth = 0.5 * math.log((2 * math.pi * math.e) ** n * np.linalg.det(cov))
        est = se.entropy_via_debruijn(law, nodes=32, count=10000, seed=1)
        assert abs(est.value - truth) <= 3 * est.stderr

    def test_matches_quadrature_on_bimodal(self):
        law = se.bimodal_1d()
        est = se.entropy_via_debruijn(law, nodes=32, count=20000, seed=0)
        quad = se.entropy_quadrature_1d(law)
        assert abs(est.value - quad.value) <= 3 * math.hypot(est.stderr, quad.stderr)

    def test_node_doubling_within_reported_stderr(self):
        law = se.bimodal_1d()
        at64 = se.entropy_via_debruijn(law, nodes=64, count=10000, seed=5)
        at32 = se.entropy_via_debruijn(law, nodes=32, count=10000, seed=5)
        assert abs(at64.value - at32.value) < at64.stderr

    def test_half_resolution_sum_is_at_half_the_nodes(self):
        law = se.bimodal_1d()
        est = se.entropy_via_debruijn(law, nodes=16, count=400, seed=2)
        value, stderr, _ = heat_flow._debruijn_sum(law, 16, 400, 2)
        half, _, _ = heat_flow._debruijn_sum(law, 8, 400, 2)
        assert est.value == value
        assert est.stderr == floored_stderr(math.hypot(stderr, abs(value - half)), value)

    @pytest.mark.parametrize("nodes, calls", [(16, 24), (24, 36), (48, 72)])
    def test_count_is_every_draw(self, stream_audit, nodes, calls):
        # a call per drawing node, in the sum and in the half-resolution sum;
        # the split truncates, so the total is not a multiple of count
        stream_audit.draw = False
        est = se.entropy_via_debruijn(correlated_3d(), nodes=nodes, count=20000, seed=0)
        assert [call[0] for call in stream_audit.calls] == ["mc_score"] * calls
        assert est.count == sum(call[1] for call in stream_audit.calls)

    @pytest.mark.parametrize(
        "name", ["bimodal-product-n1", "rotated-bimodal", "gaussian-iid-n3", "bimodal-product-n3"]
    )
    def test_exact_nodes_draw_nothing(self, stream_audit, name):
        # every node's structure rule converges: the estimate is a quadrature
        # of quadratures, the same at any seed
        law = se.builtin_law(name)
        est = se.entropy_via_debruijn(law, nodes=16, count=2000, seed=0)
        assert stream_audit.calls == []
        assert est.count == 0
        assert se.entropy_via_debruijn(law, nodes=16, count=2000, seed=7) == est

    @pytest.mark.parametrize(
        "law",
        [se.bimodal_1d(100.0, 1e-6), se.bimodal_product(3, 100.0, 1e-6)],
        ids=["n1", "n3"],
    )
    def test_far_narrow_law_has_no_finite_stderr(self, law):
        # the least smoothed of the 48 nodes fails its mass certificate; the
        # sum's finite part is far from the truths, -4.80 and -14.39
        est = se.entropy_via_debruijn(law, count=2000, seed=0)
        assert est.stderr == math.inf

    def test_node_floor(self):
        with pytest.raises(ValueError, match="nodes"):
            se.entropy_via_debruijn(se.gaussian_iid(1), nodes=8, count=1000, seed=0)

    def test_count_floor(self):
        with pytest.raises(ValueError, match="count"):
            se.entropy_via_debruijn(se.gaussian_iid(1), nodes=16, count=99, seed=0)

    def test_deterministic(self):
        law = se.bimodal_1d()
        a = se.entropy_via_debruijn(law, nodes=16, count=2000, seed=9)
        b = se.entropy_via_debruijn(law, nodes=16, count=2000, seed=9)
        assert a == b
