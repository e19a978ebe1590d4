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


class TestNodeFlow:
    """The draws of one ``_debruijn_sum`` pass: pilots, then an allocated main pass."""

    def correlated_3d(self):
        cov = [[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]]
        return se.symmetrize(se.make_gaussian_mixture([(1.0, [1.0, 0.5, 0.25], cov)]))

    def test_no_chunk_stream_is_drawn_twice(self, stream_audit):
        # pilots of 600_000 // 8 draws would span two chunks, and node j's
        # chunk c would be node c's chunk j
        stream_audit.draw = False
        heat_flow._debruijn_sum(se.bimodal_1d(), 16, 600_000, 7)
        assert [call[1] for call in stream_audit.calls[:16]] == [CHUNK_SIZE] * 16
        streams = stream_audit.streams()
        assert len(streams) == len(set(streams))

    def test_main_pass_follows_the_pilot_stderrs(self, stream_audit):
        heat_flow._debruijn_sum(self.correlated_3d(), 16, 2000, 3)
        pilots, main = stream_audit.calls[:16], stream_audit.calls[16:]
        assert [call[1] for call in pilots] == [250] * 16
        assert [call[2] for call in pilots] == [split_seed(3, j) for j in range(16)]
        assert [call[2] for call in main] == [split_seed(3, 100_000 + j) for j in range(16)]
        u, w = heat_flow._gl_unit_interval(16)
        weight = w / (1.0 - u) ** 2 * np.array([call[3].stderr for call in pilots])
        share = 16 * (2000 - 250) * weight / weight.sum()
        counts = np.array([call[1] for call in main])
        assert np.all(np.abs(counts - np.maximum(100, share)) <= 1)
        assert len(set(counts)) > 1

    def test_small_budget_is_all_pilot(self, stream_audit):
        heat_flow._debruijn_sum(self.correlated_3d(), 16, 400, 3)
        assert [call[1:3] for call in stream_audit.calls] == [
            (400, split_seed(3, j)) for j in range(16)
        ]


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

    def test_sixteen_nodes_draw_one_sum(self, stream_audit):
        # the half-resolution rule at 16 nodes is the same sum, so it is
        # not drawn again and adds nothing to the stderr
        law = se.bimodal_1d()
        est = se.entropy_via_debruijn(law, nodes=16, count=400, seed=2)
        assert len(stream_audit.calls) == 16
        value, stderr, draws = heat_flow._debruijn_sum(law, 16, 400, 2)
        assert (est.value, est.stderr) == (value, floored_stderr(stderr, value))
        assert est.count == draws == 16 * 400

    @pytest.mark.parametrize("nodes, calls", [(16, 32), (24, 80), (48, 144)])
    def test_count_is_every_draw(self, stream_audit, nodes, calls):
        # a pilot and a main call per node, in the sum and, above 16 nodes, in
        # the half-resolution sum; the allocation truncates, so the total is
        # not a multiple of count
        stream_audit.draw = False
        est = se.entropy_via_debruijn(se.bimodal_1d(), nodes=nodes, count=20000, seed=0)
        assert [call[0] for call in stream_audit.calls] == ["mc_score"] * calls
        assert est.count == sum(call[1] for call in stream_audit.calls)

    def test_node_floor(self):
        with pytest.raises(ValueError, match="nodes"):
            se.entropy_via_debruijn(se.gaussian_iid(1), nodes=8, count=1000, seed=0)

    def test_deterministic(self):
        law = se.bimodal_1d()
        a = se.entropy_via_debruijn(law, nodes=16, count=2000, seed=9)
        b = se.entropy_via_debruijn(law, nodes=16, count=2000, seed=9)
        assert a == b
