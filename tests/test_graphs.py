from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dbmmd.datamodel import LabeledDomain, UnlabeledDomain, make_pair
from dbmmd.errors import BandwidthError, DimensionError, ParameterError
from dbmmd.graphs import (
    W_FLOOR,
    AffinityMatrix,
    build_affinity,
    build_graphs,
    build_laplacian,
)
from dbmmd.mmd import build_all

from dense_reference import dense_build_affinity, dense_build_graphs, dense_build_laplacian


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


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
        aff = build_affinity(x, "fixed", sigma=1.0)
        expect = np.ones((3, 3)) - np.eye(3)
        assert_allclose(aff.entries, expect, atol=0)

    def test_known_distance_value(self):
        # d = sigma * sqrt(2)  ->  w = exp(-d^2 / (2 sigma^2)) = exp(-1)
        sigma = 1.7
        x = np.array([[0.0, sigma * np.sqrt(2.0)]])
        aff = build_affinity(x, "fixed", sigma=sigma)
        assert_allclose(aff.entries[0, 1], np.exp(-1.0), atol=1e-15)

    def test_median_sigma_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 10))
        dists = []
        for i in range(10):
            for j in range(i + 1, 10):
                dists.append(float(np.linalg.norm(x[:, i] - x[:, j])))
        expect = float(np.median([d for d in dists if d > 0.0]))
        aff = build_affinity(x, "median")
        assert abs(aff.sigma - expect) < 1e-12
        w_oracle = np.exp(
            -np.array([[np.sum((x[:, i] - x[:, j]) ** 2) for j in range(10)] for i in range(10)])
            / (2.0 * expect**2)
        )
        np.fill_diagonal(w_oracle, 0.0)
        assert_allclose(aff.entries, w_oracle, atol=1e-12)

    def test_median_mode_coincident_fails(self):
        with pytest.raises(BandwidthError):
            build_affinity(np.ones((2, 4)), "median")

    def test_infinite_sigma_gives_unit_weights(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6))
        aff = build_affinity(x, "fixed", sigma=float("inf"))
        expect = np.ones((6, 6)) - np.eye(6)
        # exp(-d^2/inf) is exactly exp(-0.0) == 1.0, no tolerance needed
        assert np.array_equal(aff.entries, expect)

    def test_neighborhood_either_or_rule(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(2, 9))
        p = 2
        aff = build_affinity(x, "median", neighborhood_p=p)
        d2 = np.array([[np.sum((x[:, i] - x[:, j]) ** 2) for j in range(9)] for i in range(9)])
        keep = np.zeros((9, 9), dtype=bool)
        for j in range(9):
            order = [i for i in np.argsort(d2[j], kind="stable") if i != j]
            keep[j, order[:p]] = True
        keep = keep | keep.T
        np.fill_diagonal(keep, False)
        assert np.array_equal(aff.entries != 0.0, keep)

    def test_dense_when_p_zero_or_large(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 5))
        dense = build_affinity(x, "median", neighborhood_p=0)
        assert np.count_nonzero(dense.entries) == 5 * 4
        huge = build_affinity(x, "median", neighborhood_p=50)
        assert np.array_equal(dense.entries, huge.entries)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(37)
        aff = build_affinity(rng.normal(size=(3, 8)), "median", neighborhood_p=3)
        assert np.array_equal(aff.entries, aff.entries.T)
        assert np.all(np.diag(aff.entries) == 0.0)

    def test_parameter_errors(self):
        x = np.zeros((2, 1))
        with pytest.raises(ParameterError):
            build_affinity(x, "median")
        x = np.zeros((2, 3))
        with pytest.raises(ParameterError):
            build_affinity(x, "fixed", sigma=None)
        with pytest.raises(ParameterError):
            build_affinity(x, "fixed", sigma=-1.0)
        with pytest.raises(ParameterError):
            build_affinity(x, "percentile")
        with pytest.raises(ParameterError):
            build_affinity(x, "fixed", sigma=1.0, neighborhood_p=-2)


class TestNeighborTies:
    """kNN neighbor sets under ties, against the stable-argsort row loop."""

    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("n, span", [(9, 2), (40, 3), (120, 4), (300, 5), (520, 8)])
    def test_grid_matches_stable_argsort_oracle(self, n, span, p):
        x = grid_points(n * 10 + p, n, span)
        aff = build_affinity(x, "median", neighborhood_p=p)
        ref = dense_build_affinity(x, "median", neighborhood_p=p)
        assert np.array_equal(aff.entries, ref.entries)
        assert aff.sigma == ref.sigma

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_neighbor_sets_under_unit_weights(self, p):
        # infinite sigma makes every kept weight exactly 1, so the nonzero
        # pattern is the symmetrized neighbor sets themselves
        x = grid_points(p, 200, 3, d=3)
        aff = build_affinity(x, "fixed", sigma=float("inf"), neighborhood_p=p)
        ref = dense_build_affinity(x, "fixed", sigma=float("inf"), neighborhood_p=p)
        assert np.array_equal(aff.entries, ref.entries)
        assert np.array_equal(aff.entries != 0.0, ref.entries != 0.0)

    def test_coincident_points_take_lowest_indices(self):
        # every candidate ties at distance 0: j keeps the two lowest other indices
        aff = build_affinity(np.zeros((2, 7)), "fixed", sigma=1.0, neighborhood_p=2)
        keep = np.zeros((7, 7), dtype=bool)
        keep[0, [1, 2]] = keep[1, [0, 2]] = keep[2, [0, 1]] = True
        keep[3:, [0, 1]] = True
        assert np.array_equal(aff.entries != 0.0, keep | keep.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_points_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 270 + seed))
        for p in (0, 1, 5, x.shape[1] - 2, x.shape[1] - 1):
            aff = build_affinity(x, "median", neighborhood_p=p)
            ref = dense_build_affinity(x, "median", neighborhood_p=p)
            assert_bits_equal(aff.entries, ref.entries)
            assert aff.sigma == ref.sigma


class TestBuildGraphs:
    def test_literal_unit_affinity_is_minus_one_on_masks(self):
        # the block covers exactly the cross-domain positions
        pair = labeled_pair(1)
        aff = build_affinity(pair.packed_features(), "fixed", sigma=float("inf"))
        graphs = build_graphs(pair, aff, mode="literal")
        assert graphs.weights.shape == (pair.n_source, pair.n_target)
        assert np.array_equal(graphs.weights, np.full(graphs.weights.shape, -1.0))

    def test_spirit_unit_affinity_values(self):
        pair = labeled_pair(2)
        aff = build_affinity(pair.packed_features(), "fixed", sigma=float("inf"))
        graphs = build_graphs(pair, aff, mode="spirit")
        # 1/W on same-class pairs, W on different-class pairs, W == 1
        assert np.array_equal(graphs.weights, np.full(graphs.weights.shape, 1.0))

    def test_masks_partition_cross_positions(self):
        # every cross pair gets exactly one of the two graphs: 1/W when the
        # classes agree, W otherwise; the dense graphs agree entry for entry
        pair = labeled_pair(3)
        aff = build_affinity(pair.packed_features(), "median")
        n_s = pair.n_source
        ys, yt = pair.source.labels, pair.target.pseudo_labels
        w = aff.entries
        for mode in ("spirit", "literal"):
            graphs = build_graphs(pair, aff, mode=mode)
            for i in range(n_s):
                for j in range(pair.n_target):
                    inv = 1.0 / max(w[i, n_s + j], W_FLOOR)
                    if mode == "literal":
                        expect = -inv
                    else:
                        expect = inv if ys[i] == yt[j] else w[i, n_s + j]
                    assert graphs.weights[i, j] == expect, (mode, i, j)
            dense = dense_build_graphs(pair, aff, mode)
            assert not np.any(dense.cg_mask & dense.sg_mask)
            assert np.array_equal(
                (dense.g_cg + dense.g_sg)[:n_s, n_s:], graphs.weights
            )

    def test_cg_mask_matches_conditional_negatives(self):
        # the same-class pairs are exactly where the conditional matrix is
        # negative when every class has mass on both sides
        pair = labeled_pair(4)
        mats = build_all(pair)
        n_s = pair.n_source
        mc = mats.conditional[np.ix_(mats.groups[:n_s], mats.groups[n_s:])]
        aff = build_affinity(pair.packed_features(), "median")
        w = aff.entries[:n_s, n_s:]
        assert np.all(w < 1.0)
        graphs = build_graphs(pair, aff)
        same_class = graphs.weights == 1.0 / np.maximum(w, W_FLOOR)
        assert np.array_equal(same_class, mc < 0.0)

    def test_spirit_weights_monotone_in_distance(self):
        # farther same-class cross pairs must get a strictly larger CG pull
        pair = labeled_pair(5)
        x = pair.packed_features()
        n_s = pair.n_source
        aff = build_affinity(x, "median")
        graphs = build_graphs(pair, aff, mode="spirit")
        same = pair.source.labels[:, None] == pair.target.pseudo_labels[None, :]
        idx = np.argwhere(same)
        d2 = np.array([np.sum((x[:, i] - x[:, n_s + j]) ** 2) for i, j in idx])
        g = np.array([graphs.weights[i, j] for i, j in idx])
        order = np.argsort(d2)
        assert np.all(np.diff(g[order]) >= 0.0)

    def test_floor_guards_underflowed_weights(self):
        src = LabeledDomain(np.array([[0.0, 1000.0]]), np.array([0, 1]), name="source")
        tgt = UnlabeledDomain(
            np.array([[1000.0, 0.0]]), pseudo_labels=np.array([0, 1]), name="target"
        )
        pair = make_pair(src, tgt)
        aff = build_affinity(pair.packed_features(), "fixed", sigma=1.0)
        graphs = build_graphs(pair, aff, mode="spirit")
        # the distant same-class pair underflows to w == 0; 1/W is floored
        assert graphs.weights.max() == 1.0 / W_FLOOR

    def test_shape_mismatch_rejected(self):
        pair = labeled_pair(6)
        aff = build_affinity(np.zeros((2, 3)), "fixed", sigma=1.0)
        with pytest.raises(DimensionError):
            build_graphs(pair, aff)

    def test_bad_mode(self):
        pair = labeled_pair(7)
        aff = build_affinity(pair.packed_features(), "median")
        with pytest.raises(ParameterError):
            build_graphs(pair, aff, mode="vibes")


class TestLaplacian:
    def test_two_node_graph(self):
        aff = build_affinity(np.array([[0.0, 1.0]]), "fixed", sigma=1.0)
        w01 = float(np.exp(-0.5))
        lap = build_laplacian(aff)
        assert_allclose(lap, [[w01, -w01], [-w01, w01]], atol=1e-15)

    def test_normalized_two_node(self):
        aff = build_affinity(np.array([[0.0, 1.0]]), "fixed", sigma=1.0)
        lap = build_laplacian(aff, normalized=True)
        assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_constant_vector_in_kernel(self):
        rng = np.random.default_rng(41)
        aff = build_affinity(rng.normal(size=(2, 7)), "median")
        lap = build_laplacian(aff)
        assert_allclose(lap @ np.ones(7), np.zeros(7), atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_psd_both_variants(self, seed):
        rng = np.random.default_rng(seed)
        aff = build_affinity(rng.normal(size=(2, 6)), "median", neighborhood_p=2)
        for normalized in (False, True):
            lap = build_laplacian(aff, normalized=normalized)
            assert np.array_equal(lap, lap.T)
            assert np.linalg.eigvalsh(lap).min() >= -1e-10

    def test_isolated_vertex_row_is_zero(self):
        # p-sparsification cannot isolate vertices (either-or keeps edges),
        # so build one synthetically through the dataclass
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.7
        aff = AffinityMatrix(w, sigma=1.0, neighborhood_p=0)
        lap = build_laplacian(aff, normalized=True)
        assert_allclose(lap[2], np.zeros(3), atol=0)
        assert_allclose(lap[:2, :2], [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("n, p", [(7, 0), (60, 2), (300, 5)])
    def test_bit_equal_to_dense_expression(self, n, p, normalized):
        rng = np.random.default_rng(n + p)
        aff = build_affinity(rng.normal(size=(4, n)), "median", neighborhood_p=p)
        lap = build_laplacian(aff, normalized=normalized)
        assert_bits_equal(lap, dense_build_laplacian(aff, normalized=normalized))

    @pytest.mark.parametrize("normalized", [False, True])
    def test_isolated_vertex_bit_equal_to_dense_expression(self, normalized):
        # vertex 3 has degree 0, which the normalized form floors at W_FLOOR
        rng = np.random.default_rng(43)
        w = rng.uniform(0.1, 1.0, size=(5, 5))
        w = 0.5 * (w + w.T)
        w[3] = w[:, 3] = 0.0
        np.fill_diagonal(w, 0.0)
        aff = AffinityMatrix(w, sigma=1.0, neighborhood_p=0)
        lap = build_laplacian(aff, normalized=normalized)
        assert_bits_equal(lap, dense_build_laplacian(aff, normalized=normalized))
        assert np.all(lap[3] == 0.0)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_asymmetric_weights_symmetrized_as_dense_expression(self, normalized):
        rng = np.random.default_rng(47)
        w = rng.uniform(0.0, 1.0, size=(270, 270))
        before = w.copy()
        aff = AffinityMatrix(w, sigma=1.0, neighborhood_p=0)
        lap = build_laplacian(aff, normalized=normalized)
        assert_bits_equal(lap, dense_build_laplacian(aff, normalized=normalized))
        assert_bits_equal(aff.entries, before)
