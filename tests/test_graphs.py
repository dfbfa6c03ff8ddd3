from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import dbmmd.linalg as linalg_module
from dbmmd.adapt import ModelKind, assemble_db
from dbmmd.datamodel import LabeledDomain, UnlabeledDomain, make_pair
from dbmmd.errors import BandwidthError, DimensionError, ParameterError
from dbmmd.graphs import W_FLOOR, EdgeGraph, build_affinity, build_graphs, build_laplacian, rcm_order
from dbmmd.mmd import build_all, off_class_term

from dense_reference import (DenseAffinity, cross_block, dense_boundary_block,
                             dense_build_affinity, dense_build_graphs, dense_build_laplacian,
                             dense_distance_rows, dense_matrix, dense_median_pairwise_distance,
                             dense_panel_product, edge_graph)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def affinity_matrix(x, sigma=None, neighborhood_p=0):
    """The library's affinity of x as an (n, n) array, and the sigma it used."""
    graph, sigma = build_affinity(x, sigma, neighborhood_p)
    return dense_matrix(graph), sigma


def grid_points(seed, n, span, d=2):
    """Columns on an integer grid: many tied distances and coincident points."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, size=(d, n)).astype(float)


def labeled_pair(seed=0, n_s=6, n_t=5, class_count=3):
    rng = np.random.default_rng(seed)
    ys = np.concatenate([np.arange(class_count), rng.integers(0, class_count, n_s - class_count)])
    yt = np.concatenate([np.arange(class_count), rng.integers(0, class_count, n_t - class_count)])
    src = LabeledDomain(rng.normal(size=(2, n_s)), ys, name="source")
    tgt = UnlabeledDomain(rng.normal(size=(2, n_t)), name="target")
    return make_pair(src, tgt).with_pseudo_labels(yt)


class TestBuildAffinity:
    def test_coincident_points_weight_one(self):
        x = np.zeros((2, 3))
        w, _ = affinity_matrix(x, sigma=1.0)
        expect = np.ones((3, 3)) - np.eye(3)
        assert_allclose(w, expect, atol=0)

    def test_known_distance_value(self):
        # d = sigma * sqrt(2)  ->  w = exp(-d^2 / (2 sigma^2)) = exp(-1)
        sigma = 1.7
        x = np.array([[0.0, sigma * np.sqrt(2.0)]])
        w, _ = affinity_matrix(x, sigma=sigma)
        assert_allclose(w[0, 1], np.exp(-1.0), atol=1e-15)

    def test_median_sigma_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 10))
        dists = []
        for i in range(10):
            for j in range(i + 1, 10):
                dists.append(float(np.linalg.norm(x[:, i] - x[:, j])))
        expect = float(np.median([d for d in dists if d > 0.0]))
        w, sigma = affinity_matrix(x)
        assert abs(sigma - expect) < 1e-12
        w_oracle = np.exp(
            -np.array([[np.sum((x[:, i] - x[:, j]) ** 2) for j in range(10)] for i in range(10)])
            / (2.0 * expect**2)
        )
        np.fill_diagonal(w_oracle, 0.0)
        assert_allclose(w, w_oracle, atol=1e-12)

    def test_median_mode_coincident_fails(self):
        with pytest.raises(BandwidthError):
            build_affinity(np.ones((2, 4)))

    def test_infinite_sigma_gives_unit_weights(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6))
        w, _ = affinity_matrix(x, sigma=float("inf"))
        expect = np.ones((6, 6)) - np.eye(6)
        # exp(-d^2/inf) is exactly exp(-0.0) == 1.0, no tolerance needed
        assert np.array_equal(w, expect)

    def test_neighborhood_either_or_rule(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(2, 9))
        p = 2
        w, _ = affinity_matrix(x, neighborhood_p=p)
        d2 = np.array([[np.sum((x[:, i] - x[:, j]) ** 2) for j in range(9)] for i in range(9)])
        keep = np.zeros((9, 9), dtype=bool)
        for j in range(9):
            order = [i for i in np.argsort(d2[j], kind="stable") if i != j]
            keep[j, order[:p]] = True
        keep = keep | keep.T
        np.fill_diagonal(keep, False)
        assert np.array_equal(w != 0.0, keep)

    def test_dense_when_p_zero_or_large(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 5))
        dense, _ = affinity_matrix(x, neighborhood_p=0)
        assert np.count_nonzero(dense) == 5 * 4
        huge, _ = affinity_matrix(x, neighborhood_p=50)
        assert np.array_equal(dense, huge)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(37)
        graph, _ = build_affinity(rng.normal(size=(3, 8)), neighborhood_p=3)
        assert np.all(graph.rows < graph.cols)
        assert not graph.diag.any()

    def test_parameter_errors(self):
        x = np.zeros((2, 1))
        with pytest.raises(ParameterError):
            build_affinity(x)
        x = np.zeros((2, 3))
        for sigma in (-1.0, 0.0, float("nan")):
            with pytest.raises(ParameterError):
                build_affinity(x, sigma=sigma)
        with pytest.raises(ParameterError):
            build_affinity(x, sigma=1.0, neighborhood_p=-2)

    @pytest.mark.parametrize("p", [0, 1, 5])
    def test_overflowing_features_are_an_error_not_nan_weights(self, p):
        x = np.array([[0.0, 1e200, 2e200, 3.0]])
        for sigma in (None, 1.0):
            with pytest.raises(ParameterError, match="overflow"):
                build_affinity(x, sigma, p)

    @pytest.mark.parametrize("bracket", ["miss", "overflow", "none"])
    @pytest.mark.parametrize("p", [0, 5])
    def test_median_fallback_gives_the_same_graph(self, monkeypatch, p, bracket):
        # the counting walks, after a bracket that misses, one past its
        # room, or none, resolve the same sigma and the same weights
        x = np.random.default_rng(41).normal(size=(4, 500))
        want, sigma = build_affinity(x, None, p)
        assert sigma == dense_median_pairwise_distance(dense_distance_rows(x))
        top = float(dense_distance_rows(x).max())
        fixed = {"miss": (top, top, 10), "overflow": (1e-300, top, 10), "none": None}[bracket]
        monkeypatch.setattr(linalg_module, "_bracket", lambda walk: fixed)
        got, again = build_affinity(x, None, p)
        assert again == sigma
        for name in ("rows", "cols", "values"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_arguments_checked_before_the_distance_pass(self, monkeypatch):
        # a bad call fails in O(d n), before the O(d n^2) distances
        def no_distances(*blocks):
            raise AssertionError("a distance block ran before the arguments were checked")

        monkeypatch.setattr(linalg_module._Distances, "block", no_distances)
        x = np.random.default_rng(19).normal(size=(2, 50))
        for sigma, p in ((0.0, 0), (-1.0, 5), (float("nan"), 5), (1.0, -1), (1.0, 2.5)):
            with pytest.raises(ParameterError):
                build_affinity(x, sigma, p)
        with pytest.raises(ParameterError):
            build_affinity(x[:, :1])
        with pytest.raises(AssertionError, match="ran before"):
            build_affinity(x, 1.0, 5)

    @pytest.mark.parametrize("d, n", [(64, 300), (10, 3000)])
    def test_coincident_columns_have_no_median_and_unit_weights(self, d, n):
        # one column repeated: the products round, but under their error
        # bound, so every distance is exactly 0
        x = np.tile(np.random.default_rng(0).normal(size=(d, 1)), (1, n))
        with pytest.raises(BandwidthError):
            build_affinity(x, None, 5)
        with pytest.raises(BandwidthError):
            build_affinity(x[:, :300], None, 0)
        assert np.all(build_affinity(x, 1.0, 5)[0].values == 1.0)
        assert np.all(build_affinity(x[:, :300], 1.0, 0)[0].values == 1.0)

    def test_knn_pass_holds_no_n_by_n_array(self):
        # the distances come a row block at a time and each row emits its
        # p edges; the median's count rides on that pass. The n x n distances
        # and the kNN mask peaked at 1.27 x 8 n^2 traced bytes, this at 0.32 x.
        n = 1200
        z = np.random.default_rng(41).normal(size=(10, n))
        tracemalloc.start()
        try:
            build_affinity(z, None, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * 8 * n * n, peak / (8 * n * n)

    def test_complete_graph_holds_only_its_edges(self):
        # p = 0: the int32 pairs and the weights of every pair, 8 n^2 bytes
        # together, filled a row block at a time. With the n x n distances
        # this peaked at 2.01 x 8 n^2, now at 1.26 x.
        n = 1200
        z = np.random.default_rng(41).normal(size=(10, n))
        tracemalloc.start()
        try:
            build_affinity(z, None, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 8 * n * n, peak / (8 * n * n)


class TestNeighborTies:
    """kNN neighbor sets under ties, against the stable-argsort row loop."""

    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("n, span", [(9, 2), (40, 3), (120, 4), (300, 5), (520, 8)])
    def test_grid_matches_stable_argsort_oracle(self, n, span, p):
        x = grid_points(n * 10 + p, n, span)
        w, sigma = affinity_matrix(x, neighborhood_p=p)
        ref = dense_build_affinity(x, neighborhood_p=p)
        assert np.array_equal(w, ref.entries)
        assert sigma == ref.sigma

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_neighbor_sets_under_unit_weights(self, p):
        # infinite sigma makes every kept weight exactly 1, so the nonzero
        # pattern is the symmetrized neighbor sets themselves
        x = grid_points(p, 200, 3, d=3)
        w, _ = affinity_matrix(x, sigma=float("inf"), neighborhood_p=p)
        ref = dense_build_affinity(x, sigma=float("inf"), neighborhood_p=p)
        assert np.array_equal(w, ref.entries)
        assert np.array_equal(w != 0.0, ref.entries != 0.0)

    def test_coincident_points_take_lowest_indices(self):
        # every candidate ties at distance 0: j keeps the two lowest other indices
        w, _ = affinity_matrix(np.zeros((2, 7)), sigma=1.0, neighborhood_p=2)
        keep = np.zeros((7, 7), dtype=bool)
        keep[0, [1, 2]] = keep[1, [0, 2]] = keep[2, [0, 1]] = True
        keep[3:, [0, 1]] = True
        assert np.array_equal(w != 0.0, keep | keep.T)

    @pytest.mark.parametrize("p", [0, 3])
    def test_median_past_one_block_matches_oracle(self, p):
        # n (n - 1) / 2 distances over one block's worth: the median's second
        # pass walks the blocks again (p > 0) or reads the weights (p = 0)
        x = grid_points(p, 400, 9)
        w, sigma = affinity_matrix(x, neighborhood_p=p)
        ref = dense_build_affinity(x, neighborhood_p=p)
        assert_bits_equal(w, ref.entries)
        assert sigma == ref.sigma

    @pytest.mark.parametrize("seed", range(4))
    def test_random_points_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 270 + seed))
        for p in (0, 1, 5, x.shape[1] - 2, x.shape[1] - 1):
            w, sigma = affinity_matrix(x, neighborhood_p=p)
            ref = dense_build_affinity(x, neighborhood_p=p)
            assert_bits_equal(w, ref.entries)
            assert sigma == ref.sigma


def unit_scaled_block(pair, cross):
    """G - 1 over the cross block W, from the two places the operator takes it.

    Same-class pairs: ``build_graphs`` with S_x[b, b] == 1 on each block of
    W's class-diagonal blocks that a CG operator's reader visits, each
    pair once. Different-class pairs: ``off_class_term``'s W - 1, with one
    source row per class (g == 1) and s = I, so T is W - 1 exactly.
    """
    ns = pair.n_source
    op = assemble_db(build_all(pair), cross, ModelKind("JDA", "CG"))
    d = off_class_term(cross, np.eye(ns), np.arange(ns), ns)
    seen = np.zeros(d.shape, dtype=bool)
    for at, cols, block in replace(op, diagonal=np.ones_like(op.diagonal))._class_blocks():
        assert not seen[np.ix_(at, cols)].any()
        seen[np.ix_(at, cols)] = True
        d[np.ix_(at, cols)] = block
    return d


class TestBuildGraphs:
    def test_spirit_unit_affinity_values(self):
        pair = labeled_pair(2)
        aff = dense_build_affinity(pair.packed_features(), sigma=float("inf"))
        d = unit_scaled_block(pair, cross_block(pair, aff))
        # 1/W on same-class pairs, W on different-class pairs, W == 1: G - 1 == 0
        assert isinstance(d, np.ndarray)
        assert_bits_equal(d, np.zeros((pair.n_source, pair.n_target)))

    def test_masks_partition_cross_positions(self):
        # every cross pair gets exactly one of the two graphs: 1/W when the
        # classes agree, W otherwise; the dense graphs agree entry for entry
        pair = labeled_pair(3)
        aff = dense_build_affinity(pair.packed_features())
        n_s = pair.n_source
        ys, yt = pair.source.labels, pair.target.pseudo_labels
        w = aff.entries
        d = unit_scaled_block(pair, cross_block(pair, aff))
        for i in range(n_s):
            for j in range(pair.n_target):
                inv = 1.0 / max(w[i, n_s + j], W_FLOOR)
                expect = inv if ys[i] == yt[j] else w[i, n_s + j]
                assert d[i, j] == expect - 1.0, (i, j)
        dense = dense_build_graphs(pair, aff)
        assert not np.any(dense.cg_mask & dense.sg_mask)
        assert_bits_equal(d, (dense.g_cg + dense.g_sg)[:n_s, n_s:] - 1.0)

    def test_cg_mask_matches_conditional_negatives(self):
        # the same-class pairs, those the operator's reader visits, are
        # exactly where the conditional matrix is negative when every class
        # has mass on both sides
        pair = labeled_pair(4)
        mats = build_all(pair)
        n_s = pair.n_source
        mc = mats.conditional[np.ix_(mats.groups[:n_s], mats.groups[n_s:])]
        aff = dense_build_affinity(pair.packed_features())
        op = assemble_db(mats, cross_block(pair, aff), ModelKind("JDA", "CG"))
        visited = np.zeros(mc.shape, dtype=bool)
        for at, cols, _ in op._class_blocks():
            visited[np.ix_(at, cols)] = True
        assert np.array_equal(visited, mc < 0.0)

    def test_spirit_weights_monotone_in_distance(self):
        # farther same-class cross pairs must get a strictly larger CG pull
        pair = labeled_pair(5)
        x = pair.packed_features()
        n_s = pair.n_source
        aff = dense_build_affinity(x)
        block = unit_scaled_block(pair, cross_block(pair, aff))
        same = pair.source.labels[:, None] == pair.target.pseudo_labels[None, :]
        idx = np.argwhere(same)
        d2 = np.array([np.sum((x[:, i] - x[:, n_s + j]) ** 2) for i, j in idx])
        g = np.array([block[i, j] for i, j in idx])
        order = np.argsort(d2)
        assert np.all(np.diff(g[order]) >= 0.0)

    def test_floor_guards_underflowed_weights(self):
        src = LabeledDomain(np.array([[0.0, 1000.0]]), np.array([0, 1]), name="source")
        tgt = UnlabeledDomain(
            np.array([[1000.0, 0.0]]), pseudo_labels=np.array([0, 1]), name="target"
        )
        pair = make_pair(src, tgt)
        aff = dense_build_affinity(pair.packed_features(), sigma=1.0)
        d = unit_scaled_block(pair, cross_block(pair, aff))
        # the distant same-class pair underflows to w == 0; 1/W is floored
        assert d.max() == 1.0 / W_FLOOR - 1.0

    def test_class_diagonal_block_matches_dense(self):
        # each block the operator's reader writes, of one class's source
        # rows against its target columns, is the dense D's bit for bit,
        # with a distinct S_x[b, b] per class and floored entries
        pair = labeled_pair(8, n_s=40, n_t=36, class_count=4)
        aff = dense_build_affinity(pair.packed_features(), sigma=0.05)
        cross = cross_block(pair, aff)
        assert np.count_nonzero(cross < W_FLOOR)
        kind = ModelKind("CDDA", "CG")
        op = assemble_db(build_all(pair), cross, kind)
        assert np.unique(op.diagonal).size == pair.class_count
        want = dense_boundary_block(pair, aff, kind)
        for at, cols, d in op._class_blocks():
            assert_bits_equal(d, want[np.ix_(at, cols)])
            assert_bits_equal(d, build_graphs(cross[np.ix_(at, cols)],
                                              op.diagonal[pair.source.labels[at[0]]]))

    def test_shape_mismatch_rejected(self):
        # the graphs take the (n_s, n_t) cross block, not the (n, n) affinity;
        # the operator checks its shape when it is assembled
        pair = labeled_pair(6)
        aff = dense_build_affinity(pair.packed_features())
        with pytest.raises(DimensionError):
            unit_scaled_block(pair, aff.entries)
        with pytest.raises(DimensionError):
            unit_scaled_block(pair, cross_block(pair, aff).T)


class TestLaplacian:
    def test_normalized_two_node(self):
        graph, _ = build_affinity(np.array([[0.0, 1.0]]), sigma=1.0)
        lap = dense_matrix(build_laplacian(graph))
        assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_psd_both_variants(self, seed):
        # the complete graph (p = 0) and a kNN graph
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 6))
        for p in (0, 2):
            lap = dense_matrix(build_laplacian(build_affinity(x, neighborhood_p=p)[0]))
            assert np.array_equal(lap, lap.T)
            assert np.linalg.eigvalsh(lap).min() >= -1e-10

    def test_isolated_vertex_row_is_zero(self):
        # p-sparsification cannot isolate vertices (either-or keeps edges),
        # so build one synthetically
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.7
        lap = dense_matrix(build_laplacian(edge_graph(w)))
        assert_allclose(lap[2], np.zeros(3), atol=0)
        assert_allclose(lap[:2, :2], [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_isolated_vertex_matches_dense_expression(self):
        # vertex 3 has degree 0, which the normalization floors at W_FLOOR;
        # the degrees are summed over the edges, so equal up to rounding
        rng = np.random.default_rng(43)
        w = rng.uniform(0.1, 1.0, size=(5, 5))
        w = 0.5 * (w + w.T)
        w[3] = w[:, 3] = 0.0
        np.fill_diagonal(w, 0.0)
        lap = dense_matrix(build_laplacian(edge_graph(w)))
        expect = dense_build_laplacian(DenseAffinity(w, sigma=1.0))
        assert_allclose(lap, expect, rtol=1e-13, atol=0)
        assert np.all(lap[3] == 0.0)

    def test_affinity_is_not_written(self):
        graph, _ = build_affinity(np.random.default_rng(53).normal(size=(2, 9)))
        before = [a.copy() for a in (graph.diag, graph.rows, graph.cols, graph.values)]
        for a in (graph.diag, graph.rows, graph.cols, graph.values):
            a.flags.writeable = False
        lap = build_laplacian(graph)
        # L is on W's edges: the index arrays are shared, not copied
        assert lap.rows is graph.rows and lap.cols is graph.cols
        for a, b in zip((graph.diag, graph.rows, graph.cols, graph.values), before):
            assert_bits_equal(a, b)


def edge_graph_cases():
    """(x, p): random points, a grid of ties, coincident points, each at several p."""
    rng = np.random.default_rng(61)
    twins = np.repeat(np.eye(2), 6, axis=1)  # two places, six points at each
    for x in (rng.normal(size=(3, 90)), grid_points(62, 120, 4), twins):
        n = x.shape[1]
        for p in (0, 1, 5, n - 2, n - 1):
            yield x, p


class TestEdgeGraphs:
    @pytest.mark.parametrize("x, p", list(edge_graph_cases()))
    def test_edges_are_the_affinity_bit_for_bit(self, x, p):
        g, _ = build_affinity(x, None, p)
        assert np.all(g.rows < g.cols) and not g.diag.any()
        n = x.shape[1]
        on_edge = np.zeros((n, n), dtype=bool)
        on_edge[g.rows, g.cols] = True
        # infinite sigma weighs every kept pair 1: the pattern is the kNN union
        union = dense_build_affinity(x, float("inf"), p).entries != 0.0
        assert np.array_equal(on_edge, np.triu(union, 1))
        assert_bits_equal(g.values, dense_build_affinity(x, None, p).entries[g.rows, g.cols])

    @pytest.mark.parametrize("x, p", list(edge_graph_cases()))
    def test_edge_laplacian_is_the_dense_one(self, x, p):
        # degrees summed by bincount, not by row: equal up to rounding
        lap = build_laplacian(build_affinity(x, None, p)[0])
        dense = dense_build_laplacian(dense_build_affinity(x, None, p))
        assert_allclose(lap.diag, np.diag(dense), rtol=1e-13, atol=0)
        assert_allclose(lap.values, dense[lap.rows, lap.cols], rtol=1e-13, atol=0)

    def test_isolated_vertex_row_is_zero(self):
        g = EdgeGraph(np.zeros(4), np.array([0, 0, 1]), np.array([1, 3, 3]),
                      np.array([0.7, 0.0, 0.0]))
        lap = build_laplacian(g)
        assert_allclose(lap.diag, [1.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(lap.values, [-1.0, 0.0, 0.0], atol=1e-15)
        assert not np.signbit(lap.values[1:]).any()

    @pytest.mark.parametrize("n, p", [(90, 5), (600, 5), (600, 0), (1000, 1)])
    def test_panel_product_is_the_dense_one(self, n, p):
        # n = 600 and 1000 span several row panels; p = 1 leaves vertices
        # whose every edge lies in another panel
        x = np.random.default_rng(n + p).normal(size=(2, n))
        lap = build_laplacian(build_affinity(x, None, p)[0])
        u = np.random.default_rng(7).normal(size=(n, 9))
        dense = dense_matrix(lap)
        got = lap.times(u)
        assert_bits_equal(got, dense_panel_product(dense, u))
        want = dense @ u
        assert np.abs(got - want).max() <= 1e-14 * np.abs(dense).sum(axis=1).max()


def path_graph(order: np.ndarray) -> EdgeGraph:
    """The path order[0] - order[1] - ... with unit weights."""
    a, b = order[:-1], order[1:]
    return EdgeGraph(np.zeros(order.size), np.minimum(a, b), np.maximum(a, b),
                     np.ones(order.size - 1))


def bandwidth(graph: EdgeGraph, order: np.ndarray) -> int:
    at = np.empty(order.size, dtype=np.intp)
    at[order] = np.arange(order.size)
    return int(np.abs(at[graph.rows] - at[graph.cols]).max(initial=0))


class TestRcmOrder:
    def test_hand_ordered_example(self):
        # edges 0-1, 0-2, 0-3, 2-4, 2-5, 3-7 and an isolated 6. Cuthill-McKee
        # starts at 6 (degree 0), then at 1 (degree 1, lowest index). 0's
        # neighbors go 3 (degree 2) before 2 (degree 3); the next level puts
        # 3's child 7 before 2's children 4 and 5. RCM reverses that order.
        g = EdgeGraph(np.zeros(8), np.array([0, 0, 0, 2, 2, 3]), np.array([1, 2, 3, 4, 5, 7]),
                      np.ones(6))
        assert rcm_order(g).tolist() == [5, 4, 7, 2, 3, 0, 1, 6]

    @pytest.mark.parametrize("n", [2, 17, 300])
    def test_shuffled_path_gets_bandwidth_one(self, n):
        g = path_graph(np.random.default_rng(n).permutation(n))
        assert bandwidth(g, np.arange(n)) > 1 or n == 2
        assert bandwidth(g, rcm_order(g)) == 1

    @pytest.mark.parametrize("x, p", list(edge_graph_cases()))
    def test_order_is_a_permutation(self, x, p):
        order = rcm_order(build_affinity(x, None, p)[0])
        assert np.array_equal(np.sort(order), np.arange(x.shape[1]))

    def test_no_edges_is_the_reversed_identity(self):
        g = EdgeGraph(np.zeros(4), np.zeros(0, int), np.zeros(0, int), np.zeros(0))
        assert rcm_order(g).tolist() == [3, 2, 1, 0]
