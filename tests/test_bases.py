import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symentropy as se


class TestGramSchmidt:
    def test_standard_basis_unchanged(self):
        basis = se.gram_schmidt([np.eye(3)[:, j] for j in range(3)])
        assert np.allclose(basis.matrix, np.eye(3), atol=1e-15)

    def test_two_dimensional_by_hand(self):
        basis = se.gram_schmidt([np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, 0.0])])
        expected = np.column_stack(
            [np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)]
        )
        assert np.allclose(basis.matrix, expected, atol=1e-14)

    def test_sign_vertex_columns(self):
        n = 3
        m = (np.ones((n, n)) - 2.0 * np.eye(n)) / math.sqrt(n)
        basis = se.gram_schmidt([m[:, j] for j in range(n)])
        assert np.allclose(basis.matrix[:, 0], m[:, 0], atol=1e-14)
        gram = basis.matrix.T @ basis.matrix
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12

    def test_leading_spans_preserved(self):
        rng = np.random.default_rng(8)
        vectors = [rng.standard_normal(4) for _ in range(4)]
        basis = se.gram_schmidt(vectors)
        for j in range(1, 5):
            v = np.column_stack(vectors[:j])
            q = basis.matrix[:, :j]
            residual = v - q @ (q.T @ v)
            assert np.max(np.abs(residual)) <= 1e-10

    def test_ill_conditioned_stays_orthonormal(self):
        # condition number 1e6 via an explicit SVD construction
        rng = np.random.default_rng(4)
        u = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        v = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        s = np.geomspace(1.0, 1e-6, 5)
        m = u @ np.diag(s) @ v.T
        basis = se.gram_schmidt([m[:, j] for j in range(5)])
        gram = basis.matrix.T @ basis.matrix
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-12

    def test_reports_first_offending_index(self):
        vectors = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0])]
        with pytest.raises(se.LinearlyDependentError) as err:
            se.gram_schmidt(vectors)
        assert err.value.index == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**31 - 1))
    def test_random_bases_orthonormal(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        basis = se.gram_schmidt([m[:, j] for j in range(n)])
        assert np.max(np.abs(basis.matrix.T @ basis.matrix - np.eye(n))) <= 1e-12


class TestProofBasisFamily:
    def test_rejects_n2(self):
        with pytest.raises(se.DimensionTooSmallError):
            se.proof_basis_family(2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_family_invariants(self, n):
        fam = se.proof_basis_family(n)
        # vertices live on the sign cube and the first two are not orthogonal
        assert np.allclose(np.abs(fam.v), 1.0 / math.sqrt(n), atol=1e-14)
        dot = fam.v[:, 0] @ fam.v[:, 1]
        expected = 0.5 if n == 4 else (n - 4) / n
        assert dot == pytest.approx(expected, abs=1e-12)
        assert abs(dot) > 1e-9
        # the vertices span R^n
        assert np.linalg.svd(fam.v, compute_uv=False)[-1] > 0.1
        a1 = fam.bases[0].matrix
        for i, basis in enumerate(fam.bases):
            a = basis.matrix
            assert np.max(np.abs(a.T @ a - np.eye(n))) <= 1e-12
            assert np.allclose(a[:, 0], fam.v[:, i], atol=1e-12)
            if i + 1 < n:
                assert np.max(np.abs(a[:, i + 1:] - a1[:, i + 1:])) <= 1e-12
            r = a1.T @ a
            assert np.allclose(a1 @ r, a, atol=1e-12)
            tail = n - (i + 1)
            if tail > 0:
                assert np.max(np.abs(r[i + 1:, i + 1:] - np.eye(tail))) <= 1e-12
                assert np.max(np.abs(r[: i + 1, i + 1:])) <= 1e-12
                assert np.max(np.abs(r[i + 1:, : i + 1])) <= 1e-12

    def test_n3_second_rotation_block_structure(self):
        fam = se.proof_basis_family(3)
        r2 = fam.bases[0].matrix.T @ fam.bases[1].matrix
        # 2x2 rotation block plus a 1x1 identity
        assert r2[2, 2] == pytest.approx(1.0, abs=1e-12)
        block = r2[:2, :2]
        assert np.max(np.abs(block.T @ block - np.eye(2))) <= 1e-12


class TestBalancedProjection:
    def test_single_row_any_n(self):
        bp = se.balanced_projection(1, 3, "hadamard")
        assert np.allclose(bp.matrix, np.ones((1, 3)) / math.sqrt(3))
        assert np.allclose((bp.matrix**2).sum(axis=0), 1.0 / 3.0)

    def test_hadamard_2_of_4(self):
        bp = se.balanced_projection(2, 4, "hadamard")
        assert np.allclose(np.abs(bp.matrix), 0.5)
        assert np.allclose((bp.matrix**2).sum(axis=0), 0.5)

    def test_frequency_pair_2_of_5(self):
        bp = se.balanced_projection(2, 5, "frequency_pairs")
        assert np.allclose((bp.matrix**2).sum(axis=0), 0.4, atol=1e-14)
        assert np.max(np.abs(bp.matrix @ bp.matrix.T - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize(
        "k,n,method",
        [(1, 3, "hadamard"), (2, 4, "hadamard"), (4, 8, "hadamard"), (2, 5, "frequency_pairs"), (4, 7, "frequency_pairs")],
    )
    def test_projection_times_transpose_is_identity(self, k, n, method):
        bp = se.balanced_projection(k, n, method)
        assert np.max(np.abs(bp.matrix @ bp.matrix.T - np.eye(k))) <= 1e-12
        assert se.check_balanced(bp.matrix).ok

    def test_unsupported_shapes(self):
        with pytest.raises(se.UnsupportedShapeError):
            se.balanced_projection(2, 3, "hadamard")  # not a power of two
        with pytest.raises(se.UnsupportedShapeError):
            se.balanced_projection(3, 8, "frequency_pairs")  # odd k
        with pytest.raises(se.UnsupportedShapeError):
            se.balanced_projection(4, 4, "frequency_pairs")  # k must stay below n
        with pytest.raises(se.UnsupportedShapeError):
            se.balanced_projection(2, 4, "fourier")


class TestCheckBalanced:
    def test_accepts_builder_output(self):
        assert se.check_balanced(se.balanced_projection(2, 4, "hadamard").matrix).ok

    def test_rejects_coordinate_rows(self):
        report = se.check_balanced(np.eye(4)[:2])
        assert not report.ok
        assert report.col_norm_dev == pytest.approx(0.5)

    def test_rejects_single_coordinate_row(self):
        assert not se.check_balanced(np.array([[1.0, 0.0, 0.0]])).ok

