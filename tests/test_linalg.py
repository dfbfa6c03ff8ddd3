from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import blas

from dbmmd import linalg
from dbmmd.errors import DimensionError, NumericError, ParameterError
from dbmmd.linalg import (
    centering_matrix,
    gen_eig_smallest,
    kernel_matrix,
    kernel_range,
    median_pairwise_distance,
    pairwise_sq_dists,
    sign_flips,
)

from dense_reference import (dense_centering_matrix, dense_median_pairwise_distance,
                             dense_pairwise_sq_dists)


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

    @pytest.mark.parametrize("n", [5, 64, 257, 300, 600])
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
        assert median_pairwise_distance(pairwise_sq_dists(x)) == 5.0

    def test_all_coincident_is_zero(self):
        assert median_pairwise_distance(pairwise_sq_dists(np.ones((2, 4)))) == 0.0

    def test_odd_and_even_pair_counts(self):
        # 3 pairs {1, 3, 2}: the middle one
        assert median_pairwise_distance(pairwise_sq_dists([[0.0, 1.0, 3.0]])) == 2.0
        # 6 pairs {1, 3, 7, 2, 6, 4}: the mean of the middle two
        assert median_pairwise_distance(pairwise_sq_dists([[0.0, 1.0, 3.0, 7.0]])) == 3.5
        # 6 pairs, one coincident: {1, 3, 1, 3, 2} leaves an odd count
        assert median_pairwise_distance(pairwise_sq_dists([[0.0, 0.0, 1.0, 3.0]])) == 2.0
        # 10 pairs, two coincident: {1, 1, 1, 1, 4, 4, 5, 5} leaves an even count
        assert median_pairwise_distance(pairwise_sq_dists([[0.0, 0.0, 1.0, 1.0, 5.0]])) == 2.5

    def test_all_coincident_precomputed_is_zero(self):
        assert median_pairwise_distance(np.zeros((5, 5))) == 0.0
        assert median_pairwise_distance(np.zeros((1, 1))) == 0.0

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
        assert median_pairwise_distance(d2) == expect
        assert np.array_equal(d2, pairwise_sq_dists(x))

    def test_rejects_non_square_distances(self):
        with pytest.raises(DimensionError):
            median_pairwise_distance(np.zeros((3, 4)))

    @pytest.mark.parametrize("x", [
        [[0.0, 2.0]],  # n = 2, one pair
        [[1.0, 1.0, 1.0, 1.0, 1.0]],  # all points coincident: 0.0
        [[0.0, 0.0, 0.0, 3.0, 3.0]],  # one positive value among zeros
        [[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]],  # square corners: two values
        [[0.0, 1.0, 0.5], [0.0, 0.0, 0.75 ** 0.5]],  # equilateral: all distances equal
    ])
    def test_blocked_selection_on_small_cases(self, x):
        d2 = pairwise_sq_dists(np.array(x))
        assert median_pairwise_distance(d2) == dense_median_pairwise_distance(d2)

    def test_one_positive_pair(self):
        d2 = np.zeros((5, 5))
        d2[1, 3] = d2[3, 1] = 4.0
        assert median_pairwise_distance(d2) == dense_median_pairwise_distance(d2) == 2.0

    def test_all_distances_equal(self):
        # a regular simplex: every positive entry is the same squared distance
        d2 = np.full((40, 40), 2.0)
        np.fill_diagonal(d2, 0.0)
        assert median_pairwise_distance(d2) == dense_median_pairwise_distance(d2)
        assert median_pairwise_distance(d2) == np.sqrt(2.0)

    # B is the first double of a median bucket, its predecessor the last of the one before
    B = (np.array([1.0]).view(np.int64) + (1 << linalg._BUCKET_SHIFT)).view(float)[0]

    @pytest.mark.parametrize("values, p", [
        ((np.nextafter(B, 0.0), B, np.nextafter(B, 2.0)), (0.3, 0.4, 0.3)),  # run over both ranks
        ((np.nextafter(B, 0.0), B), (0.5, 0.5)),  # the ranks split across a bucket edge
        ((1.0, 1.0 + 2.0 ** -40, 4.0), (0.45, 0.1, 0.45)),  # a run of 1.0 ends at the ranks
    ])
    @pytest.mark.parametrize("n", [301, 302, 1030])
    def test_ties_straddling_the_middle_ranks(self, n, values, p):
        rng = np.random.default_rng(n)
        upper = rng.choice(values, size=n * (n - 1) // 2, p=p)
        d2 = np.zeros((n, n))
        d2[np.triu_indices(n, k=1)] = upper
        d2 += d2.T
        assert median_pairwise_distance(d2) == dense_median_pairwise_distance(d2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 96, 97, 511, 512, 1023])
    def test_odd_even_and_block_remainders(self, n):
        # pair counts of both parities, and n that is not a multiple of the
        # row block of the passes; the two middle values land in different
        # buckets when the spread is wide
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, n)) * np.exp(rng.uniform(-4.0, 4.0, size=n))
        d2 = pairwise_sq_dists(x)
        assert median_pairwise_distance(d2) == dense_median_pairwise_distance(d2)

    def test_middle_ranks_in_different_buckets(self):
        # 6 pairs {1, 1, 4, 4, 4, 9}: the middle two are 4 and 4; zero two
        # of the 4s and they become 1 and 4, in buckets two octaves apart
        d2 = np.array([[0.0, 1.0, 1.0, 4.0], [1.0, 0.0, 4.0, 4.0],
                       [1.0, 4.0, 0.0, 9.0], [4.0, 4.0, 9.0, 0.0]])
        assert median_pairwise_distance(d2) == dense_median_pairwise_distance(d2) == 2.0
        d2[1, 2:] = d2[2:, 1] = 0.0
        assert median_pairwise_distance(d2) == dense_median_pairwise_distance(d2) == 1.5


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
        sigma = median_pairwise_distance(pairwise_sq_dists(x))
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

    @pytest.mark.parametrize("n", [1, 5, 37, 300])
    def test_rbf_precomputed_distances_byte_equal(self, n):
        x = np.random.default_rng(n).normal(size=(3, n))
        d2 = pairwise_sq_dists(x)
        expect = np.exp(d2 / (-2.0 * 0.9 * 0.9))
        k = kernel_matrix(x, "rbf", sigma=0.9, sq_dists=d2)
        assert k.tobytes() == kernel_matrix(x, "rbf", sigma=0.9).tobytes()
        assert k.tobytes() == expect.tobytes()
        # the distances are consumed: K is computed in their array
        assert k is d2

    def test_rbf_read_only_distances_raise(self):
        x = np.random.default_rng(4).normal(size=(2, 6))
        d2 = pairwise_sq_dists(x)
        d2.flags.writeable = False
        with pytest.raises(ValueError):
            kernel_matrix(x, "rbf", sigma=1.0, sq_dists=d2)

    def test_precomputed_distances_argument_checks(self):
        x = np.random.default_rng(3).normal(size=(2, 4))
        d2 = pairwise_sq_dists(x)
        for kind in ("linear", "poly"):
            with pytest.raises(ParameterError, match="only by the rbf kernel"):
                kernel_matrix(x, kind, sq_dists=d2)
        with pytest.raises(DimensionError):
            kernel_matrix(x, "rbf", sigma=1.0, sq_dists=d2[:3, :3])
        with pytest.raises(DimensionError):
            kernel_matrix(x, "rbf", sigma=1.0, sq_dists=d2[:, :3])
        with pytest.raises(ParameterError, match="sigma > 0"):
            kernel_matrix(x, "rbf", sigma=0.0, sq_dists=d2)


class TestKernelRange:
    def test_linear_kernel_rank_is_feature_dim(self):
        x = np.random.default_rng(70).normal(size=(2, 40))
        kmat = kernel_matrix(x, "linear")
        basis, w_r = kernel_range(kmat)
        s_r = w_r[:, None] * basis.T
        assert basis.shape == (40, 2) and s_r.shape == (2, 40)
        assert_allclose(w_r, np.linalg.eigvalsh(kmat)[-2:], rtol=1e-12)
        assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        # U_r S_r rebuilds K, and a = U_r c embeds as c^T S_r
        assert_allclose(basis @ s_r, kmat, atol=1e-12 * np.abs(kmat).max())
        c = np.array([[0.3], [-1.2]])
        assert_allclose((basis @ c).T @ kmat, c.T @ s_r, atol=1e-12 * np.abs(kmat).max())

    def test_full_rank_kernel_keeps_every_direction(self):
        x = np.random.default_rng(71).normal(size=(3, 12))
        basis, w_r = kernel_range(kernel_matrix(x, "rbf", sigma=1.0))
        assert basis.shape == (12, 12) and w_r.shape == (12,)

    def test_zero_kernel_has_empty_range(self):
        basis, w_r = kernel_range(np.zeros((5, 5)))
        assert basis.shape == (5, 0) and w_r.shape == (0,)

    def test_rejects_bad_operands(self):
        with pytest.raises(DimensionError):
            kernel_range(np.zeros((3, 4)))
        with pytest.raises(ParameterError):
            kernel_range(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ParameterError):
            kernel_range(np.full((2, 2), np.nan))

    def test_one_symmetrized_copy_and_the_basis(self):
        # the symmetrized copy of K is factored in place: besides it the call
        # holds only the eigenvectors, LAPACK workspace and n^2-byte masks
        n = 600
        kmat = kernel_matrix(np.random.default_rng(72).normal(size=(3, n)), "rbf", sigma=1.0)
        tracemalloc.start()
        try:
            basis, _ = kernel_range(kmat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.shape[0] == n
        assert peak < 2.5 * 8 * n * n


class TestCenteringMatrix:
    """``centering_matrix(s)`` is s H; H's own properties are checked on the oracle."""

    def test_n1(self):
        assert_allclose(dense_centering_matrix(1), np.array([[0.0]]), atol=0)
        assert_allclose(centering_matrix(np.array([[3.0], [-2.0]])), np.zeros((2, 1)), atol=0)

    def test_n2(self):
        assert_allclose(dense_centering_matrix(2), np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=0)
        assert_allclose(centering_matrix(np.array([[1.0, 3.0]])), [[-1.0, 1.0]], atol=0)

    def test_idempotent_and_kills_ones(self):
        h = dense_centering_matrix(4)
        assert_allclose(h @ h, h, atol=1e-14)
        assert_allclose(h @ np.ones(4), np.zeros(4), atol=1e-14)
        # rows of s H sum to zero, and centering twice changes nothing
        sh = centering_matrix(np.random.default_rng(8).normal(size=(3, 4)))
        assert_allclose(sh.sum(axis=1), np.zeros(3), atol=1e-14)
        assert_allclose(centering_matrix(sh), sh, atol=1e-15)

    def test_eigenvalues_zero_and_ones(self):
        vals = np.sort(np.linalg.eigvalsh(dense_centering_matrix(6)))
        assert_allclose(vals, [0.0] + [1.0] * 5, atol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            centering_matrix(np.zeros((3, 0)))
        with pytest.raises(ParameterError):
            centering_matrix(np.zeros(4))

    @pytest.mark.parametrize("l, n", [(1, 1), (2, 7), (64, 300), (300, 300)])
    def test_scatter_matches_s_h_st(self, l, n):
        rng = np.random.default_rng(l + n)
        s = rng.normal(loc=3.0, size=(l, n))
        got = centering_matrix(s) @ s.T
        want = s @ dense_centering_matrix(n) @ s.T
        assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))
        assert_allclose(centering_matrix(s), s @ dense_centering_matrix(n), rtol=0, atol=1e-13)


class TestGenEigSmallest:
    def test_diagonal_pencil(self):
        w, v = gen_eig_smallest(np.diag([3.0, 1.0, 2.0]), np.eye(3), k=1, ridge=0.0)
        assert w.shape == (1,) and v.shape == (3, 1)
        assert_allclose(w[0], 1.0, atol=1e-12)
        assert_allclose(np.abs(v[:, 0]), [0.0, 1.0, 0.0], atol=1e-12)
        assert v[1, 0] > 0  # sign convention

    def test_identity_pencil_all_ones(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        spd = m @ m.T + 5.0 * np.eye(5)
        w, _ = gen_eig_smallest(spd, spd, k=5, ridge=0.0)
        assert_allclose(w, np.ones(5), atol=1e-9)

    def test_charpoly_oracle_4x4(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            a = 0.5 * (a + a.T)
            c = rng.normal(size=(4, 4))
            b = c @ c.T + 4.0 * np.eye(4)
            got, _ = gen_eig_smallest(a, b, k=4, ridge=0.0)
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
        w, v = gen_eig_smallest(a, b, k)
        b_reg = b + ridge * np.eye(n)
        tol = 1e-8 * (np.linalg.norm(a) + np.linalg.norm(b))
        for value, vector in zip(w, v.T):
            res = np.linalg.norm(a @ vector - value * (b_reg @ vector))
            assert res <= max(tol, 1e-8 * abs(value) * np.linalg.norm(b) + tol)
        gram = v.T @ b_reg @ v
        assert_allclose(gram, np.eye(k), atol=1e-8)

    def test_sorted_ascending(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 6))
        a = 0.5 * (a + a.T)
        w, _ = gen_eig_smallest(a, np.eye(6), k=6, ridge=0.0)
        vals = list(w)
        assert vals == sorted(vals)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(5, 5))
        a = 0.5 * (a + a.T)
        _, first = gen_eig_smallest(a, np.eye(5), k=3, ridge=0.0)
        _, second = gen_eig_smallest(a.copy(), np.eye(5), k=3, ridge=0.0)
        assert np.array_equal(first, second)
        for vector in first.T:
            assert vector[int(np.argmax(np.abs(vector)))] > 0

    def test_vectors_are_c_ordered_columns(self):
        # eigh returns a Fortran-ordered block; downstream products read
        # the C-ordered layout the per-column stack used to give
        rng = np.random.default_rng(37)
        a = rng.normal(size=(7, 7))
        _, v = gen_eig_smallest(a + a.T, np.eye(7), k=3)
        assert v.shape == (7, 3)
        assert v.flags.c_contiguous

    def test_sign_flips_pin_the_largest_magnitude_entry(self):
        v = np.array([[1.0, -3.0, 2.0, -2.0],
                      [-2.0, 1.0, -2.0, 2.0]])
        # ties in magnitude go to the first entry
        assert np.array_equal(sign_flips(v), [-1.0, -1.0, 1.0, -1.0])
        assert np.array_equal(sign_flips(v * sign_flips(v)), np.ones(4))

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            gen_eig_smallest(np.eye(3), np.eye(3), k=4)
        with pytest.raises(ParameterError):
            gen_eig_smallest(np.eye(3), np.eye(3), k=0)

    def test_indefinite_b_fails(self):
        with pytest.raises(NumericError):
            gen_eig_smallest(np.eye(3), -np.eye(3), k=1, ridge=0.0)

    def test_degenerate_scatter_with_default_ridge_is_a_numeric_error(self):
        # the centered scatter of coincident points is zero up to round-off,
        # so the default ridge 1e-9 * trace / n is not positive
        for b in (np.zeros((3, 3)), np.diag([-1e-17, 0.0, 0.0])):
            with pytest.raises(NumericError, match="degenerate.*trace"):
                gen_eig_smallest(np.eye(3), b, k=1)

    def test_explicit_negative_ridge_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="ridge must be nonnegative"):
            gen_eig_smallest(np.eye(3), np.eye(3), k=1, ridge=-1e-26)

    def test_asymmetric_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ParameterError):
            gen_eig_smallest(a, np.eye(2), k=1)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gen_eig_smallest(np.eye(3), np.eye(2), k=1)


def layout(x: np.ndarray, order: str) -> np.ndarray:
    """x in C or F order, or for "N" a strided view of it.

    The view is neither C- nor F-contiguous unless x has fewer than two
    rows or columns.
    """
    if order != "N":
        return np.asarray(x, order=order)
    wide = np.zeros((x.shape[0], 2 * x.shape[1] + 1))
    wide[:, 1::2] = x
    view = wide[:, 1::2]
    assert min(x.shape) < 2 or not (view.flags.c_contiguous or view.flags.f_contiguous)
    return view


class TestMatmul:
    @pytest.mark.parametrize("m, k, n", [(5, 4, 3), (1, 7, 1), (17, 9, 13), (8, 0, 6),
                                         (0, 4, 3), (6, 3, 0), (40, 0, 3)])
    @pytest.mark.parametrize("order_a", ["C", "F", "N"])
    @pytest.mark.parametrize("order_b", ["C", "F", "N"])
    def test_equals_numpy_product(self, m, k, n, order_a, order_b):
        # (8, 0, 6) and (40, 0, 3) are the products of an empty kernel range
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a0 = rng.normal(size=(m, k))
        b0 = rng.normal(size=(k, n))
        a, b = layout(a0, order_a), layout(b0, order_b)
        out = linalg.matmul(a, b)
        assert out.shape == (m, n) and out.dtype == np.float64
        assert out.flags.c_contiguous
        # both products are within k eps |a| |b| of the exact one
        assert (np.abs(out - a0 @ b0) <= 1e-13 * (np.abs(a0) @ np.abs(b0))).all()

    @pytest.mark.parametrize("k", [0, 3])
    def test_dgemm_overwrites_an_uninitialized_output(self, k):
        # matmul hands dgemm an np.empty buffer: with beta = 0 whatever it
        # holds, NaN included, must be overwritten, also for an empty inner
        # dimension
        a, b = np.ones((4, k)), np.ones((k, 5))
        c = np.full((5, 4), np.nan, order="F")
        out = blas.dgemm(1.0, b.T, a.T, c=c, overwrite_c=True)
        assert np.shares_memory(out, c)
        assert np.array_equal(out.T, a @ b)

    def test_transposed_views_are_not_copied(self):
        # a C- or F-ordered operand reaches dgemm as is: besides the (n, n)
        # result the call allocates nothing of size n^2
        n = 400
        rng = np.random.default_rng(5)
        x = rng.normal(size=(n, n))
        for a, b in [(x, x), (x.T, x), (x, x.T), (x.T, x.T)]:
            tracemalloc.start()
            try:
                out = linalg.matmul(a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.flags.c_contiguous
            assert peak < 8 * n * n + 4096
            del out

    def test_rejects_non_matrices_and_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            linalg.matmul(np.ones(3), np.ones((3, 2)))
        with pytest.raises(DimensionError):
            linalg.matmul(np.ones((2, 3)), np.ones((2, 3)))
