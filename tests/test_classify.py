from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dbmmd.classify import accuracy, hard_labels, nn_classify, one_hot, propagate_labels
from dbmmd.errors import DimensionError, NumericError, ParameterError
from dbmmd.graphs import EdgeGraph, build_affinity, build_laplacian
from dbmmd import linalg

from dense_reference import (dense_build_affinity, dense_build_laplacian, dense_pairwise_sq_dists,
                             dense_propagate_labels, edge_graph, propagation_tolerance)


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

    @pytest.mark.parametrize("m, q, grid", [(40, 3000, False), (700, 500, False), (300, 400, True)])
    def test_labels_of_the_out_of_place_expression(self, m, q, grid):
        # the query blocks give the distances of the out-of-place expression,
        # bit for bit, so the same argmin, ties included: grid points tie
        # and coincide
        rng = np.random.default_rng(m + q)
        if grid:
            train, query = rng.integers(0, 4, size=(2, m)), rng.integers(0, 4, size=(2, q))
            train, query = train.astype(float), query.astype(float)
        else:
            train, query = rng.normal(size=(5, m)), rng.normal(size=(5, q))
        labels = np.arange(m)
        d2 = dense_pairwise_sq_dists(query, train)
        assert np.array_equal(nn_classify(train, labels, query), np.argmin(d2, axis=1))

    @pytest.mark.parametrize("d", [2, 5, 16, 64])
    def test_points_within_rounding_distance_tie_to_the_lowest_index(self, d):
        # three training columns a relative 1e-15 from the query are within
        # the rounding error of their distances to it, which rounding noise
        # would otherwise order: they are exactly 0 apart on any BLAS, and
        # the lowest index among them wins wherever they sit among the rest
        rng = np.random.default_rng(d)
        for _ in range(50):
            query = rng.normal(size=(d, 1)) * 10.0 ** rng.uniform(-3, 3)
            near = query * (1.0 + 1e-15 * rng.normal(size=(d, 3)))
            far = query + np.abs(query).max() * rng.normal(size=(d, 5))
            order = rng.permutation(8)
            train = np.hstack([near, far])[:, order]
            first = int(np.flatnonzero(order < 3)[0])
            assert nn_classify(train, np.arange(8), query)[0] == first

    def test_no_train_by_query_array(self):
        # each block of query columns takes its own m x (block) product, so
        # no m x q array is made: the one product held whole peaked at
        # 1.11 x 8 m q traced bytes.
        m = q = 1200
        rng = np.random.default_rng(12)
        train, query = rng.normal(size=(64, m)), rng.normal(size=(64, q))
        labels = rng.integers(0, 3, m)
        tracemalloc.start()
        try:
            nn_classify(train, labels, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * m * q, peak / (8 * m * q)

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_exact_ties_across_query_blocks_go_to_the_lowest_index(self, offset):
        # integer and half-integer coordinates make every distance exact on
        # any BLAS and in any block shape, so ties are exact: each query
        # coincides with (offset 0) or is equidistant from (offset 0.5)
        # training points spread over the whole index range, and queries on
        # both sides of each query-block boundary must take the first
        m, q = 1500, 200
        rng = np.random.default_rng(31)
        train = rng.integers(0, 3, size=(2, m)).astype(float)
        query = rng.integers(0, 3, size=(2, q)) + offset
        assert len(linalg._row_blocks(q, m)) > 2
        exact = ((train[:, :, None] - query[:, None, :]) ** 2).sum(axis=0)
        nearest = exact == exact.min(axis=0)
        assert np.all(nearest.sum(axis=0) > 1)
        assert np.array_equal(nn_classify(train, np.arange(m), query), nearest.argmax(axis=0))

    def test_errors(self):
        with pytest.raises(DimensionError):
            nn_classify(np.zeros((2, 3)), np.zeros(3, dtype=int), np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            nn_classify(np.zeros((2, 3)), np.zeros(2, dtype=int), np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            nn_classify(np.zeros(3), np.zeros(3, dtype=int), np.zeros((1, 2)))

    def test_overflowing_features_are_an_error_not_a_nan_argmin(self):
        huge = np.array([[0.0, 1e200, 2e200, 3.0]])
        with pytest.raises(ParameterError, match="overflow"):
            nn_classify(huge, np.arange(4), np.zeros((1, 2)))
        with pytest.raises(ParameterError, match="overflow"):
            nn_classify(np.zeros((1, 2)), np.arange(2), huge)


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


PATH_LAPLACIAN = edge_graph(
    [
        [1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0],
    ]
)


def read_only(graph: EdgeGraph) -> EdgeGraph:
    for a in (graph.diag, graph.rows, graph.cols, graph.values):
        a.flags.writeable = False
    return graph


def blobs(rng, centers, per_blob: int, spread: float = 1.0) -> np.ndarray:
    """(3, len(centers) * per_blob) points scattered about the given centers."""
    return np.concatenate(
        [c[:, None] + spread * rng.normal(size=(3, per_blob)) for c in np.asarray(centers, float)],
        axis=1,
    )


def dense_oracle(x, p: int, y0, mu: float) -> np.ndarray:
    return dense_propagate_labels(dense_build_laplacian(dense_build_affinity(x, None, p)), y0, mu)


class TestPropagateLabels:
    def test_zero_laplacian_returns_y0(self):
        y0 = one_hot(np.array([0, 1, 1]), 2)
        f = propagate_labels(edge_graph(np.zeros((3, 3))), y0, mu=0.5)
        assert_allclose(f, y0, atol=1e-14)

    def test_huge_mu_clamps_to_y0(self):
        y0 = one_hot(np.array([0, 1, 0]), 2)
        f = propagate_labels(PATH_LAPLACIAN, y0, mu=1e9)
        assert_allclose(f, y0, atol=1e-6)

    def test_path_graph_hand_solved(self):
        # 3-node path, endpoints labeled with different classes, mu = 1:
        # (I + L) F_raw = Y0 solves to rows (5, 1)/8, (2, 2)/8, (1, 5)/8,
        # which renormalize to (5/6, 1/6), (1/2, 1/2), (1/6, 5/6)
        y0 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        f = propagate_labels(PATH_LAPLACIAN, y0, mu=1.0)
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
        f = propagate_labels(PATH_LAPLACIAN, y0, mu=1.0)
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
        f = propagate_labels(edge_graph(lap), y0, mu=float(rng.uniform(0.05, 5.0)))
        assert f.min() >= -1e-12
        assert_allclose(f.sum(axis=1), np.ones(6), atol=1e-10)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_dense_solve_and_laplacian_untouched(self, seed, order):
        # Hard labels bit-equal to the dense solve's, F within the
        # tolerance, the (read-only) Laplacian not written, y0 in either order.
        rng = np.random.default_rng(seed)
        n = 40 + 70 * seed
        x = rng.normal(size=(3, n))
        lap = read_only(build_laplacian(build_affinity(x, None, 5)[0]))
        before = [a.copy() for a in (lap.diag, lap.rows, lap.cols, lap.values)]
        labeled = np.arange(n // 2)
        y0 = np.zeros((n, 3), order=order)
        y0[labeled] = one_hot(rng.integers(0, 3, labeled.size), 3)
        mu = float(rng.uniform(0.05, 5.0))
        dense_lap = dense_build_laplacian(dense_build_affinity(x, None, 5))
        expect = dense_propagate_labels(dense_lap, y0, mu)
        f = propagate_labels(lap, y0, mu)
        assert_allclose(f, expect, rtol=0, atol=propagation_tolerance(n, mu))
        assert hard_labels(f).tobytes() == hard_labels(expect).tobytes()
        for a, b in zip((lap.diag, lap.rows, lap.cols, lap.values), before):
            assert a.tobytes() == b.tobytes()

    def test_signed_zeros_solve_as_dense_system(self):
        # a -0.0 edge and -0.0 labels solve as the dense system on 0.0
        lap = EdgeGraph(np.array([0.5, 0.0]), np.array([0]), np.array([1]), np.array([-0.0]))
        y0 = np.array([[-0.0, 1.0], [-1.0, 0.0]])
        expect = dense_propagate_labels(np.array([[0.5, -0.0], [-0.0, 0.0]]), y0, 1.0)
        f = propagate_labels(lap, y0, mu=1.0)
        assert_allclose(f, expect, rtol=0, atol=propagation_tolerance(2, 1.0))

    @pytest.mark.parametrize("mu", [0.01, 1.0])
    @pytest.mark.parametrize("case", ["connected", "components", "underflowed", "coincident",
                                      "complete", "p-at-least-n-1"])
    def test_matches_dense_oracle(self, case, mu):
        rng = np.random.default_rng(3)
        p = 5
        if case == "connected":
            x = blobs(rng, [[0.0, 0.0, 0.0]], 200)
        elif case == "components":
            # far-apart blobs: the kNN union has one component per blob
            x = blobs(rng, [[0.0] * 3, [100.0] * 3, [-100.0, 0.0, 100.0]], 40, 0.5)
        elif case == "underflowed":
            # the outlier's weights underflow to 0: an isolated vertex, degree W_FLOOR
            x = np.concatenate([blobs(rng, [[0.0] * 3], 60), [[1e4], [0.0], [0.0]]], axis=1)
        elif case == "coincident":
            # a grid of tied distances, each point doubled
            g = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0), [0.0]), 0).reshape(3, -1)
            x = np.concatenate([g, g], axis=1)
        elif case == "complete":
            x, p = blobs(rng, [[0.0] * 3], 80), 0
        else:
            x, p = blobs(rng, [[0.0] * 3], 30), 29
        n = x.shape[1]
        y0 = np.zeros((n, 3))
        labeled = rng.permutation(n)[: n // 3]
        y0[labeled] = one_hot(rng.integers(0, 3, labeled.size), 3)
        f = propagate_labels(build_laplacian(build_affinity(x, None, p)[0]), y0, mu)
        assert_allclose(f, dense_oracle(x, p, y0, mu), rtol=0, atol=propagation_tolerance(n, mu))

    def test_unlabeled_component_gets_zero_rows(self):
        x = blobs(np.random.default_rng(4), [[0.0] * 3, [100.0] * 3], 20, 0.5)
        y0 = np.zeros((40, 2))
        y0[:20] = one_hot(np.arange(20) % 2, 2)
        f = propagate_labels(build_laplacian(build_affinity(x, None, 3)[0]), y0, mu=0.01)
        assert not f[20:].any()
        assert_allclose(f[:20].sum(axis=1), 1.0, atol=1e-12)

    def test_errors(self):
        y0 = np.zeros((3, 2))
        with pytest.raises(ParameterError):
            propagate_labels(PATH_LAPLACIAN, y0, mu=0.0)
        with pytest.raises(DimensionError):
            propagate_labels(PATH_LAPLACIAN, np.zeros((2, 2)), mu=1.0)
        with pytest.raises(DimensionError):
            propagate_labels(PATH_LAPLACIAN, np.zeros(3), mu=1.0)
        # a failed band factorization is a NumericError
        with pytest.raises(NumericError):
            propagate_labels(edge_graph(-np.eye(3)), y0, mu=1.0)
        with pytest.raises(NumericError):
            propagate_labels(edge_graph(np.array([[0.0, -3.0], [-3.0, 0.0]])), y0[:2], mu=1.0)


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
