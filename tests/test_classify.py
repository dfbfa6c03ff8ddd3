from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dbmmd.classify import accuracy, hard_labels, nn_classify, one_hot, propagate_labels
from dbmmd.errors import DimensionError, ParameterError
from dbmmd.graphs import build_affinity, build_laplacian

from dense_reference import dense_propagate_labels


class TestNnClassify:
    def test_exact_match(self):
        train = np.array([[0.0, 10.0], [0.0, 0.0]])
        labels = np.array([0, 1])
        query = np.array([[9.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(nn_classify(train, labels, query), [1, 0])

    def test_tie_goes_to_lowest_index(self):
        train = np.array([[-1.0, 1.0]])
        labels = np.array([5, 3])
        query = np.array([[0.0]])  # equidistant
        assert np.array_equal(nn_classify(train, labels, query), [5])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        train = rng.normal(size=(3, 8))
        labels = rng.integers(0, 4, 8)
        query = rng.normal(size=(3, 6))
        got = nn_classify(train, labels, query)
        for j in range(6):
            dists = [float(np.sum((train[:, i] - query[:, j]) ** 2)) for i in range(8)]
            assert got[j] == labels[int(np.argmin(dists))]

    def test_orthogonal_transform_invariance(self):
        # distances are rotation invariant, so predictions must be too
        rng = np.random.default_rng(55)
        train = rng.normal(size=(4, 10))
        labels = rng.integers(0, 3, 10)
        query = rng.normal(size=(4, 7))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert np.array_equal(
            nn_classify(train, labels, query),
            nn_classify(q @ train, labels, q @ query),
        )

    def test_errors(self):
        with pytest.raises(DimensionError):
            nn_classify(np.zeros((2, 3)), np.zeros(3, dtype=int), np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            nn_classify(np.zeros((2, 3)), np.zeros(2, dtype=int), np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            nn_classify(np.zeros(3), np.zeros(3, dtype=int), np.zeros((1, 2)))


class TestOneHot:
    def test_rows(self):
        assert_allclose(
            one_hot(np.array([1, 0, 2]), 3),
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            atol=0,
        )

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            one_hot(np.array([0, 3]), 3)


# propagate_labels consumes its Laplacian, so each test passes a copy.
PATH_LAPLACIAN = np.array(
    [
        [1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0],
    ]
)


class TestPropagateLabels:
    def test_zero_laplacian_returns_y0(self):
        y0 = one_hot(np.array([0, 1, 1]), 2)
        f = propagate_labels(np.zeros((3, 3)), y0, mu=0.5)
        assert_allclose(f, y0, atol=1e-14)

    def test_huge_mu_clamps_to_y0(self):
        y0 = one_hot(np.array([0, 1, 0]), 2)
        f = propagate_labels(PATH_LAPLACIAN.copy(), y0, mu=1e9)
        assert_allclose(f, y0, atol=1e-6)

    def test_path_graph_hand_solved(self):
        # 3-node path, endpoints labeled with different classes, mu = 1:
        # (I + L) F_raw = Y0 solves to rows (5, 1)/8, (2, 2)/8, (1, 5)/8,
        # which renormalize to (5/6, 1/6), (1/2, 1/2), (1/6, 5/6)
        y0 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        f = propagate_labels(PATH_LAPLACIAN.copy(), y0, mu=1.0)
        expect = np.array(
            [
                [5.0 / 6.0, 1.0 / 6.0],
                [0.5, 0.5],
                [1.0 / 6.0, 5.0 / 6.0],
            ]
        )
        assert_allclose(f, expect, atol=1e-10)
        # the midpoint tie resolves to the lowest class index
        assert np.array_equal(hard_labels(f), [0, 0, 1])

    def test_single_endpoint_spreads_everywhere(self):
        y0 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        f = propagate_labels(PATH_LAPLACIAN.copy(), y0, mu=1.0)
        # every vertex has positive class-0 mass and none of class 1,
        # so renormalization makes all rows exactly (1, 0)
        assert_allclose(f, np.array([[1.0, 0.0]] * 3), atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rows_stay_on_simplex(self, seed):
        # (mu I + L)^-1 of a Laplacian is entrywise nonnegative, so rows
        # with any mass renormalize onto the probability simplex
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, size=(6, 6))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        lap = np.diag(w.sum(axis=1)) - w
        y0 = one_hot(rng.integers(0, 3, 6), 3)
        f = propagate_labels(lap, y0, mu=float(rng.uniform(0.05, 5.0)))
        assert f.min() >= -1e-12
        assert_allclose(f.sum(axis=1), np.ones(6), atol=1e-10)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_dense_solve_and_laplacian_untouched(self, seed, order):
        # the oracle solves an untouched copy; the Laplacian passed in is consumed
        rng = np.random.default_rng(seed)
        n = 40 + 70 * seed
        aff = build_affinity(rng.normal(size=(3, n)), neighborhood_p=5)
        lap = np.array(build_laplacian(aff), order=order)
        before = lap.copy()
        labeled = np.arange(n // 2)
        y0 = np.zeros((n, 3))
        y0[labeled] = one_hot(rng.integers(0, 3, labeled.size), 3)
        mu = float(rng.uniform(0.05, 5.0))
        expect = dense_propagate_labels(before, y0, mu)
        f = propagate_labels(lap, y0, mu)
        assert f.tobytes() == expect.tobytes()
        # mu I + L is formed in the caller's array, which LAPACK may factor too
        assert not np.array_equal(lap, before)

    def test_read_only_laplacian_raises(self):
        lap = PATH_LAPLACIAN.copy()
        lap.flags.writeable = False
        with pytest.raises(ValueError):
            propagate_labels(lap, np.eye(3)[:, :2], mu=1.0)
        assert np.array_equal(lap, PATH_LAPLACIAN)

    def test_signed_zeros_solve_as_dense_system(self):
        # mu I + L turns every -0.0 of L into 0.0; solved with the -0.0 kept,
        # this system gives -0.0 where the dense one gives 0.0
        lap = np.array([[0.5, -0.0], [-0.0, 0.0]])
        y0 = np.array([[-0.0, 1.0], [-1.0, 0.0]])
        expect = dense_propagate_labels(lap.copy(), y0, 1.0)
        f = propagate_labels(lap, y0, mu=1.0)
        assert f.tobytes() == expect.tobytes()

    def test_errors(self):
        y0 = np.zeros((3, 2))
        with pytest.raises(ParameterError):
            propagate_labels(PATH_LAPLACIAN.copy(), y0, mu=0.0)
        with pytest.raises(DimensionError):
            propagate_labels(PATH_LAPLACIAN.copy(), np.zeros((2, 2)), mu=1.0)
        with pytest.raises(DimensionError):
            propagate_labels(np.zeros((2, 3)), y0, mu=1.0)


class TestHardLabels:
    def test_tie_to_lowest(self):
        scores = np.array([[0.5, 0.5], [0.2, 0.8]])
        assert np.array_equal(hard_labels(scores), [0, 1])

    def test_needs_2d(self):
        with pytest.raises(DimensionError):
            hard_labels(np.zeros(3))


class TestAccuracy:
    def test_values(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0
        assert accuracy(np.array([0, 1, 2, 0]), np.array([0, 1, 1, 0])) == 0.75

    def test_self_is_one(self):
        p = np.array([3, 1, 4, 1, 5])
        assert accuracy(p, p) == 1.0

    def test_errors(self):
        with pytest.raises(ParameterError):
            accuracy(np.array([], dtype=int), np.array([], dtype=int))
        with pytest.raises(DimensionError):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))
