from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dbmmd.errors import DimensionError, NumericError, ParameterError
from dbmmd.linalg import (
    centering_matrix,
    gen_eig_smallest,
    kernel_matrix,
    kernel_range,
    median_pairwise_distance,
    pairwise_sq_dists,
)

from dense_reference import dense_median_pairwise_distance, dense_pairwise_sq_dists


def loop_sq_dists(x):
    n = x.shape[1]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = float(np.sum((x[:, i] - x[:, j]) ** 2))
    return out


def charpoly_eigenvalues(a, b):
    """Roots of det(A - t B) via polynomial interpolation. Oracle only."""
    n = a.shape[0]
    ts = np.linspace(-3.0, 3.0, 2 * n + 1)
    vals = [np.linalg.det(a - t * b) for t in ts]
    coeffs = np.polyfit(ts, vals, n)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


class TestPairwiseSqDists:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 6))
        assert_allclose(pairwise_sq_dists(x), loop_sq_dists(x), atol=1e-12)

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(3)
        d = pairwise_sq_dists(rng.normal(size=(4, 9)))
        assert np.all(np.diag(d) == 0.0)
        assert np.array_equal(d, d.T)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_any_input(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=rng.uniform(0.1, 50.0), size=(3, 7))
        d = pairwise_sq_dists(x)
        assert d.min() >= 0.0
        assert_allclose(d, d.T, atol=0)

    @pytest.mark.parametrize("n", [5, 64, 300])
    def test_bit_equal_to_out_of_place_expression(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(8, n))
        d = pairwise_sq_dists(x)
        expect = dense_pairwise_sq_dists(x)
        assert d.tobytes() == expect.tobytes()

    def test_rejects_non_finite(self):
        x = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ParameterError):
            pairwise_sq_dists(x)

    def test_rejects_1d(self):
        with pytest.raises(DimensionError):
            pairwise_sq_dists(np.ones(4))


class TestMedianPairwiseDistance:
    def test_ignores_zero_distances(self):
        x = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 4.0]])
        # distances: {0, 5, 5} -> median of nonzero = 5
        assert median_pairwise_distance(x) == 5.0

    def test_all_coincident_is_zero(self):
        assert median_pairwise_distance(np.ones((2, 4))) == 0.0

    def test_odd_and_even_pair_counts(self):
        # 3 pairs {1, 3, 2}: the middle one
        assert median_pairwise_distance(np.array([[0.0, 1.0, 3.0]])) == 2.0
        # 6 pairs {1, 3, 7, 2, 6, 4}: the mean of the middle two
        assert median_pairwise_distance(np.array([[0.0, 1.0, 3.0, 7.0]])) == 3.5
        # 6 pairs, one coincident: {1, 3, 1, 3, 2} leaves an odd count
        assert median_pairwise_distance(np.array([[0.0, 0.0, 1.0, 3.0]])) == 2.0
        # 10 pairs, two coincident: {1, 1, 1, 1, 4, 4, 5, 5} leaves an even count
        assert median_pairwise_distance(np.array([[0.0, 0.0, 1.0, 1.0, 5.0]])) == 2.5

    def test_all_coincident_precomputed_is_zero(self):
        assert median_pairwise_distance(sq_dists=np.zeros((5, 5))) == 0.0
        assert median_pairwise_distance(sq_dists=np.zeros((1, 1))) == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_precomputed_matches_recomputed_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 20 + seed  # both parities of n and of the pair count
        if seed % 2:
            x = rng.integers(0, 3, size=(2, n)).astype(float)  # ties and coincident pairs
        else:
            x = rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-3, 3)
        d2 = pairwise_sq_dists(x)
        expect = dense_median_pairwise_distance(d2)
        assert median_pairwise_distance(x) == expect
        assert median_pairwise_distance(sq_dists=d2) == expect
        assert np.array_equal(d2, pairwise_sq_dists(x))

    def test_needs_exactly_one_input(self):
        with pytest.raises(ParameterError):
            median_pairwise_distance()
        with pytest.raises(ParameterError):
            median_pairwise_distance(np.ones((2, 3)), sq_dists=np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            median_pairwise_distance(sq_dists=np.zeros((3, 4)))


class TestKernelMatrix:
    def test_linear_identity(self):
        assert_allclose(kernel_matrix(np.eye(2), "linear"), np.eye(2), atol=0)

    def test_linear_is_exact_gram(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 8))
        assert_allclose(kernel_matrix(x, "linear"), x.T @ x, atol=1e-14)

    def test_rbf_coincident_columns(self):
        x = np.ones((3, 4))
        k = kernel_matrix(x, "rbf", sigma=2.0)
        assert_allclose(k, np.ones((4, 4)), atol=0)

    def test_rbf_median_heuristic_matches_formula(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 12))
        sigma = median_pairwise_distance(x)
        k = kernel_matrix(x, "rbf", sigma=sigma)
        n = x.shape[1]
        oracle = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                d2 = float(np.sum((x[:, i] - x[:, j]) ** 2))
                oracle[i, j] = np.exp(-d2 / (2.0 * sigma**2))
        assert_allclose(k, oracle, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_rbf_is_psd(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 8))
        k = kernel_matrix(x, "rbf", sigma=1.3)
        assert np.linalg.eigvalsh(k).min() >= -1e-9

    def test_poly_matches_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5))
        assert_allclose(kernel_matrix(x, "poly", degree=3), (x.T @ x + 1.0) ** 3, atol=1e-10)

    def test_bad_parameters(self):
        x = np.eye(2)
        with pytest.raises(ParameterError):
            kernel_matrix(x, "rbf", sigma=0.0)
        with pytest.raises(ParameterError):
            kernel_matrix(x, "rbf", sigma=None)
        with pytest.raises(ParameterError):
            kernel_matrix(x, "poly", degree=0)
        with pytest.raises(ParameterError):
            kernel_matrix(x, "sigmoid")


class TestKernelRange:
    def test_linear_kernel_rank_is_feature_dim(self):
        x = np.random.default_rng(70).normal(size=(2, 40))
        kmat = kernel_matrix(x, "linear")
        basis, s_r = kernel_range(kmat)
        assert basis.shape == (40, 2) and s_r.shape == (2, 40)
        assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        # U_r S_r rebuilds K, and a = U_r c embeds as c^T S_r
        assert_allclose(basis @ s_r, kmat, atol=1e-12 * np.abs(kmat).max())
        c = np.array([[0.3], [-1.2]])
        assert_allclose((basis @ c).T @ kmat, c.T @ s_r, atol=1e-12 * np.abs(kmat).max())

    def test_full_rank_kernel_keeps_every_direction(self):
        x = np.random.default_rng(71).normal(size=(3, 12))
        basis, s_r = kernel_range(kernel_matrix(x, "rbf", sigma=1.0))
        assert s_r.shape == (12, 12)

    def test_zero_kernel_has_empty_range(self):
        basis, s_r = kernel_range(np.zeros((5, 5)))
        assert basis.shape == (5, 0) and s_r.shape == (0, 5)

    def test_rejects_bad_operands(self):
        with pytest.raises(DimensionError):
            kernel_range(np.zeros((3, 4)))
        with pytest.raises(ParameterError):
            kernel_range(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ParameterError):
            kernel_range(np.full((2, 2), np.nan))


class TestCenteringMatrix:
    def test_n1(self):
        assert_allclose(centering_matrix(1), np.array([[0.0]]), atol=0)

    def test_n2(self):
        assert_allclose(centering_matrix(2), np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=0)

    def test_idempotent_and_kills_ones(self):
        h = centering_matrix(4)
        assert_allclose(h @ h, h, atol=1e-14)
        assert_allclose(h @ np.ones(4), np.zeros(4), atol=1e-14)

    def test_eigenvalues_zero_and_ones(self):
        vals = np.sort(np.linalg.eigvalsh(centering_matrix(6)))
        assert_allclose(vals, [0.0] + [1.0] * 5, atol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            centering_matrix(0)


class TestGenEigSmallest:
    def test_diagonal_pencil(self):
        pairs = gen_eig_smallest(np.diag([3.0, 1.0, 2.0]), np.eye(3), k=1, ridge=0.0)
        assert len(pairs) == 1
        assert_allclose(pairs[0].value, 1.0, atol=1e-12)
        assert_allclose(np.abs(pairs[0].vector), [0.0, 1.0, 0.0], atol=1e-12)
        assert pairs[0].vector[1] > 0  # sign convention

    def test_identity_pencil_all_ones(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        spd = m @ m.T + 5.0 * np.eye(5)
        pairs = gen_eig_smallest(spd, spd, k=5, ridge=0.0)
        assert_allclose([p.value for p in pairs], np.ones(5), atol=1e-9)

    def test_charpoly_oracle_4x4(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            a = 0.5 * (a + a.T)
            c = rng.normal(size=(4, 4))
            b = c @ c.T + 4.0 * np.eye(4)
            pairs = gen_eig_smallest(a, b, k=4, ridge=0.0)
            got = np.array([p.value for p in pairs])
            expect = charpoly_eigenvalues(a, b)
            assert_allclose(got, expect, atol=1e-6)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_residuals_and_b_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        c = rng.normal(size=(n, n))
        b = c @ c.T + 1e-3 * np.eye(n)
        k = int(rng.integers(1, n + 1))
        ridge = 1e-9 * np.trace(b) / n
        pairs = gen_eig_smallest(a, b, k)
        b_reg = b + ridge * np.eye(n)
        tol = 1e-8 * (np.linalg.norm(a) + np.linalg.norm(b))
        v = np.column_stack([p.vector for p in pairs])
        for p in pairs:
            res = np.linalg.norm(a @ p.vector - p.value * (b_reg @ p.vector))
            assert res <= max(tol, 1e-8 * abs(p.value) * np.linalg.norm(b) + tol)
        gram = v.T @ b_reg @ v
        assert_allclose(gram, np.eye(k), atol=1e-8)

    def test_sorted_ascending(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 6))
        a = 0.5 * (a + a.T)
        pairs = gen_eig_smallest(a, np.eye(6), k=6, ridge=0.0)
        vals = [p.value for p in pairs]
        assert vals == sorted(vals)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(5, 5))
        a = 0.5 * (a + a.T)
        first = gen_eig_smallest(a, np.eye(5), k=3, ridge=0.0)
        second = gen_eig_smallest(a.copy(), np.eye(5), k=3, ridge=0.0)
        for p, q in zip(first, second):
            assert np.array_equal(p.vector, q.vector)
            assert p.vector[int(np.argmax(np.abs(p.vector)))] > 0

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            gen_eig_smallest(np.eye(3), np.eye(3), k=4)
        with pytest.raises(ParameterError):
            gen_eig_smallest(np.eye(3), np.eye(3), k=0)

    def test_indefinite_b_fails(self):
        with pytest.raises(NumericError):
            gen_eig_smallest(np.eye(3), -np.eye(3), k=1, ridge=0.0)

    def test_asymmetric_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ParameterError):
            gen_eig_smallest(a, np.eye(2), k=1)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gen_eig_smallest(np.eye(3), np.eye(2), k=1)
