from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dbmmd.linalg as linalg_module
import dbmmd.mmd as mmd_module
import dbmmd.operands as operands_module
from dbmmd.adapt import ModelKind, run_adaptation
from dbmmd.classify import nn_classify
from dbmmd.datamodel import AdaptConfig, LabeledDomain, UnlabeledDomain, make_pair
from dbmmd.errors import BandwidthError, ParameterError
from dbmmd.experiment import DatasetSpec, ExperimentSpec, run_experiment
from dbmmd.graphs import build_affinity, build_laplacian
from dbmmd.linalg import (_row_blocks, gaussian_in_place, kernel_matrix, kernel_range, matmul,
                          median_pairwise_distance, pairwise_sq_dists)
from dbmmd.operands import InputOperands
from dbmmd.synthetic import SyntheticRecipe, generate_synthetic

from dense_reference import (dense_build_affinity, dense_build_laplacian, dense_kernel_range,
                             dense_matrix, dense_panel_product, stacked_rows)

RBF = AdaptConfig(k=2, lam=1.0, max_iter=2, kernel="rbf")


def pair_of(seed=5, per_class=15):
    recipe = SyntheticRecipe(class_count=3, samples_per_class=per_class, feature_dim=2,
                             shift="rotation", shift_param=30.0, noise_sigma=0.8, seed=seed)
    return generate_synthetic(recipe).pair


def cross_affinity(pair, sigma):
    """exp(-d^2 / (2 sigma^2)) over the (ns, nt) cross-form distances of the pair.

    Taken by the blocks of source rows W is read in: a block's product can
    round differently from the rows of one (ns, nt) product.
    """
    x, ns = pair.packed_features(), pair.n_source
    return np.concatenate([np.exp(pairwise_sq_dists(x[:, rows], x[:, ns:]) / (-2.0 * sigma * sigma))
                           for rows in _row_blocks(ns, pair.n_target)])


def cross_kernel(pair, sigma):
    """The rbf kernel's (ns, nt) cross form between the pair's source and target columns.

    By the same blocks of source rows as ``cross_affinity``.
    """
    x, ns = pair.packed_features(), pair.n_source
    return np.concatenate([kernel_matrix(x[:, rows], "rbf", sigma=sigma, y=x[:, ns:])
                           for rows in _row_blocks(ns, pair.n_target)])


def assert_near(got, want):
    """Within 1e-13 of want's largest entry: L's degrees sum over edges, not rows."""
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.fixture
def calls(monkeypatch):
    """Counts the builders the operands call, by name, and every distance pass over x.

    The passes over the pairs of x (the median's and the kNN affinity's)
    are counted by the blocks of their walker (``distance_block``), and
    the kernel's products by ``pairwise_sq_dists``. ``cross_affinity``
    counts the builds of what W's rows are read from; a boundary
    operator reads them anew on each use, so those products are not
    counted. The pairs here are small enough for one row block, so a pass
    over x is one block, and for K's exact path (n < 2 l), so K is one
    ``kernel_matrix`` call.
    """
    counts = {}

    def count(module, name, key=None):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key or name] = counts.get(key or name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("kernel_range", "build_affinity", "build_laplacian"):
        count(operands_module, name)
    count(operands_module, "CrossAffinity", "cross_affinity")
    count(linalg_module, "kernel_matrix")
    count(linalg_module, "pairwise_sq_dists")
    count(linalg_module._Distances, "block", "distance_block")
    count(operands_module, "median_pairwise_distance", "median")
    return counts


class TestValues:
    @pytest.mark.parametrize("seed, per_class", [(5, 15), (6, 1), (7, 100)])
    def test_rbf_kernel_and_affinity_equal_separate_builds(self, seed, per_class):
        pair = pair_of(seed, per_class)
        ops = InputOperands(pair, RBF)
        x = pair.packed_features()
        sigma = median_pairwise_distance(x)
        for ours, alone in zip(ops.kernel_range(), kernel_range(x, "rbf", sigma=sigma)):
            assert ours.tobytes() == alone.tobytes()
        assert stacked_rows(ops.affinity()).tobytes() == cross_kernel(pair, sigma).tobytes()
        # the affinity's own pass resolves the same median
        assert build_affinity(x, None, 0)[1] == sigma

    @pytest.mark.parametrize("kernel", ["rbf", "primal"])
    def test_fixed_sigma_affinity_is_the_cross_block(self, kernel):
        # in either mode the rbf kernel's cross form of the source and target
        pair = pair_of()
        cfg = RBF.replace(sigma=0.7, kernel=kernel)
        got = stacked_rows(InputOperands(pair, cfg).affinity())
        assert got.tobytes() == cross_kernel(pair, 0.7).tobytes()
        assert got.tobytes() == cross_affinity(pair, 0.7).tobytes()

    @pytest.mark.parametrize("kernel, bandwidth", [("rbf", "median"), ("linear", "median"),
                                                   ("poly", "fixed")])
    def test_laplacian_equals_separate_build(self, kernel, bandwidth):
        # MEDA's Laplacian is held only as L U_r, the product its cells read:
        # the edge Laplacian's by row panels, and near the dense reference's
        pair = pair_of(7, 100)
        assert pair.n_total > linalg_module._PANEL_ROWS
        x = pair.packed_features()
        cfg = AdaptConfig(kernel=kernel, sigma=1.1 if bandwidth == "fixed" else None)
        ops = InputOperands(pair, cfg)
        l_basis = ops.range_terms()[1]
        basis, _ = ops.kernel_range()
        alone, _ = build_affinity(x, cfg.sigma, cfg.neighborhood_p)
        lap = dense_matrix(build_laplacian(alone))
        assert l_basis.tobytes() == dense_panel_product(lap, basis).tobytes()
        dense = dense_build_laplacian(dense_build_affinity(x, cfg.sigma, cfg.neighborhood_p))
        assert_near(l_basis, matmul(dense, basis))
        # the bandwidth the Laplacian resolved is reused, not recomputed
        _, sigma = build_affinity(x, cfg.sigma, 0)
        assert ops.affinity().sigma == sigma
        assert stacked_rows(ops.affinity()).tobytes() == cross_kernel(pair, sigma).tobytes()

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly", "primal"])
    def test_affinity_holds_only_the_cross_block(self, kernel):
        # only the cross block W, and that as what rebuilds its rows: x
        # itself, its column norms and sigma; no (ns, nt) array, no K and
        # no distances kept
        pair = pair_of(7, 100)
        ops = InputOperands(pair, AdaptConfig(kernel=kernel))
        cross = ops.affinity()
        ns, nt = pair.n_source, pair.n_target
        assert cross.shape == (ns, nt)
        assert cross.x is ops.x
        assert cross.norms.shape == (ns + nt,)
        assert ops.affinity() is cross
        if kernel == "rbf":
            sigma = median_pairwise_distance(pair.packed_features())
            assert stacked_rows(cross).tobytes() == cross_kernel(pair, sigma).tobytes()

    def test_affinity_reads_equal_pairwise_sq_dists_of_their_columns(self):
        # x's norms are taken once, yet each read of W is the Gaussian of
        # the pairwise_sq_dists of its own source and target columns, bit for bit
        recipe = SyntheticRecipe(class_count=4, samples_per_class=60, feature_dim=64, seed=2)
        pair = generate_synthetic(recipe).pair
        w = InputOperands(pair, AdaptConfig()).affinity()
        x, ns = pair.packed_features(), pair.n_source
        rng = np.random.default_rng(3)
        rows = np.sort(rng.choice(ns, 37, replace=False))
        cols = np.sort(rng.choice(pair.n_target, 53, replace=False))

        def want(a, b):
            return gaussian_in_place(pairwise_sq_dists(a, b), w.sigma)

        assert w[np.ix_(rows, cols)].tobytes() == want(x[:, rows], x[:, ns + cols]).tobytes()
        assert w[5:47].tobytes() == want(x[:, 5:47], x[:, ns:]).tobytes()

    def test_initial_labels_are_the_target_1nn_labels(self):
        pair = pair_of()
        src, tgt = pair.source, pair.target
        expect = nn_classify(src.features, src.labels, tgt.features)
        assert InputOperands(pair, RBF).initial_labels().tobytes() == expect.tobytes()
        # a target that carries pseudo-labels starts from them
        given = pair.with_pseudo_labels((expect + 1) % pair.class_count)
        assert InputOperands(given, RBF).initial_labels() is given.target.pseudo_labels

    def test_kernel_range_of_k(self):
        pair = pair_of()
        x = pair.packed_features()
        want = dense_kernel_range(kernel_matrix(x, "rbf", sigma=median_pairwise_distance(x)))
        for ours, alone in zip(InputOperands(pair, RBF).kernel_range(), want):
            assert ours.tobytes() == alone.tobytes()


class TestSharing:
    def test_arrays_are_read_only(self):
        ops = InputOperands(pair_of(), RBF)
        arrays = [ops.x, *ops.kernel_range(), ops.affinity().norms, *ops.range_terms(),
                  ops.pencil_operand(), ops.cross_term(off_class=True).off_class]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        with pytest.raises(ValueError):
            ops.initial_labels()[0] = 1
        # the shared affinity's parts cannot be swapped out either
        for name in ("x", "norms", "sigma", "n_source"):
            with pytest.raises(AttributeError):
                setattr(ops.affinity(), name, getattr(ops.affinity(), name))

    def test_each_operand_is_built_once(self, calls):
        pair = pair_of()
        ops = InputOperands(pair, RBF)
        for name in ("JDA", "JDA+CG", "MEDA", "MEDA+CG", "CDDA+DB"):
            run_adaptation(pair, RBF, ModelKind.parse(name), operands=ops)
        # one pass each for the median and the kNN affinity, one product for
        # K and one build of W's source: the median's distances fit in one
        # block, so its second pass reads them back
        assert calls == {"distance_block": 2, "pairwise_sq_dists": 1, "median": 1,
                         "kernel_matrix": 1, "kernel_range": 1, "build_affinity": 1,
                         "build_laplacian": 1, "cross_affinity": 1}

    def test_fixed_sigma_kernel_takes_one_distance_pass(self, calls):
        # a given sigma needs no median: the kernel takes one distance pass,
        # for K on its exact path, and W's rows are read from x
        pair = pair_of()
        cfg = RBF.replace(sigma=0.7)
        ops = InputOperands(pair, cfg)
        for name in ("JDA", "JDA+CG", "CDDA+DB"):
            run_adaptation(pair, cfg, ModelKind.parse(name), operands=ops)
        assert calls == {"pairwise_sq_dists": 1, "kernel_matrix": 1, "kernel_range": 1,
                         "cross_affinity": 1}
        want = dense_kernel_range(kernel_matrix(pair.packed_features(), "rbf", sigma=0.7))
        for ours, alone in zip(ops.kernel_range(), want):
            assert ours.tobytes() == alone.tobytes()

    def test_experiment_builds_once_per_repeat(self, calls, tmp_path):
        recipe = SyntheticRecipe(class_count=2, samples_per_class=10, feature_dim=2, seed=3)
        spec = ExperimentSpec(models=("JDA", "JDA+CG", "MEDA", "MEDA+CG"), config=RBF,
                              output_dir=str(tmp_path / "out"), repeat=2,
                              dataset=DatasetSpec(synthetic=recipe))
        assert run_experiment(spec).exit_code == 0
        assert calls == {"distance_block": 4, "pairwise_sq_dists": 2, "median": 2,
                         "kernel_matrix": 2, "kernel_range": 2, "build_affinity": 2,
                         "build_laplacian": 2, "cross_affinity": 2}

    @pytest.mark.parametrize("kernel", ["primal", "rbf"])
    def test_experiment_builds_t_once_for_both_db_cells(self, monkeypatch, tmp_path, kernel):
        # CDDA+DB and DGA-DA+DB share T, made for the one pencil operand of
        # the pair and config; the CG cell asks for none
        terms = []
        build = mmd_module.off_class_term
        monkeypatch.setattr(mmd_module, "off_class_term",
                            lambda *a, **k: terms.append(a[1]) or build(*a, **k))
        recipe = SyntheticRecipe(class_count=3, samples_per_class=20, feature_dim=4, seed=3)
        spec = ExperimentSpec(models=("JDA+CG", "CDDA+DB", "DGA-DA+DB"),
                              config=RBF.replace(kernel=kernel),
                              output_dir=str(tmp_path / "out"),
                              dataset=DatasetSpec(synthetic=recipe))
        assert run_experiment(spec).exit_code == 0
        assert len(terms) == 1
        assert terms[0].shape[1] == 120 and not terms[0].flags.writeable

    def test_initial_labels_once_per_repeat(self, monkeypatch, tmp_path):
        scans = []

        def counted(*args):
            scans.append(1)
            return nn_classify(*args)

        monkeypatch.setattr(operands_module, "nn_classify", counted)
        recipe = SyntheticRecipe(class_count=2, samples_per_class=10, feature_dim=2, seed=3)
        spec = ExperimentSpec(models=("JDA", "CDDA+DB", "DGA-DA+DB", "MEDA+CG"), config=RBF,
                              output_dir=str(tmp_path / "out"), repeat=2,
                              dataset=DatasetSpec(synthetic=recipe))
        assert run_experiment(spec).exit_code == 0
        assert len(scans) == 2

    def test_meda_cells_share_the_range_of_k_with_projection_cells(self, calls, tmp_path):
        # MEDA first: its cells build the range and its E and L terms, JDA reuses the range
        recipe = SyntheticRecipe(class_count=2, samples_per_class=10, feature_dim=2, seed=4)
        spec = ExperimentSpec(models=("MEDA", "MEDA+CG", "JDA"), config=RBF,
                              output_dir=str(tmp_path / "out"), repeat=2,
                              dataset=DatasetSpec(synthetic=recipe))
        assert run_experiment(spec).exit_code == 0
        assert calls["kernel_range"] == 2 and calls["build_laplacian"] == 2

    def test_range_terms_equal_separate_products(self):
        # n = 600: the sketched range, and L U_r over three row panels
        pair = pair_of(7, 100)
        x = pair.packed_features()
        ops = InputOperands(pair, RBF)
        basis, _ = kernel_range(x, "rbf", sigma=median_pairwise_distance(x))
        ns = pair.n_source
        e_r, l_basis = ops.range_terms()
        lap = build_laplacian(build_affinity(x, None, RBF.neighborhood_p)[0])
        assert e_r.tobytes() == matmul(basis[:ns].T, basis[:ns]).tobytes()
        assert l_basis.tobytes() == dense_panel_product(dense_matrix(lap), basis).tobytes()
        dense = dense_build_laplacian(dense_build_affinity(x, None, RBF.neighborhood_p))
        assert_near(l_basis, matmul(dense, basis))

    def test_meda_cell_leaves_no_n_by_n_array_held(self):
        # neither K nor L is kept, nor the (ns, nt) affinity block: between
        # cells the operands hold three (n, r) arrays and what rebuilds W's
        # rows, 0.23 x 8 n^2 bytes in all (K alone was 1.0 x, and with the
        # held affinity block 0.48 x).
        pair = pair_of(7, 100)
        n = pair.n_total
        assert n >= 600
        tracemalloc.start()
        try:
            ops = InputOperands(pair, RBF)
            run_adaptation(pair, RBF, ModelKind("MEDA", "CG"), operands=ops)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.35 * 8 * n * n, held / (8 * n * n)

    def test_sketched_projection_cell_holds_no_n_by_n_array(self):
        # rbf JDA+CG at n = 1200 >= 2 l: the range's panels, then the
        # rounds' row blocks of W and D and the 1-NN query blocks: 0.54 x
        # 8 n^2 bytes. With the (ns, nt) affinity, a round's D and the
        # train-by-query product held whole, a quarter of 8 n^2 each, it was
        # 0.92 x, and with K and its symmetrized copy held 2.3 x.
        pair = pair_of(7, 200)
        n = pair.n_total
        assert n == 1200
        tracemalloc.start()
        try:
            run_adaptation(pair, RBF, ModelKind("JDA", "CG"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.7 * 8 * n * n, peak / (8 * n * n)

    def test_range_terms_hold_no_n_by_n_array(self):
        # the kNN pass's row blocks and edges, then one (rows, n) panel of L
        # at a time: 0.29 x; the scattered L alone was 1.0 x, and the call
        # peaked at 1.06 x
        pair = pair_of(7, 200)
        n = pair.n_total
        ops = InputOperands(pair, RBF)
        ops.kernel_range()
        tracemalloc.start()
        try:
            ops.range_terms()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * n * n, peak / (8 * n * n)

    def test_primal_jda_builds_nothing(self, calls):
        pair = pair_of()
        cfg = RBF.replace(kernel="primal")
        run_adaptation(pair, cfg, ModelKind("JDA"), operands=InputOperands(pair, cfg))
        assert calls == {}

    def test_boundary_cell_builds_only_the_cross_block(self, calls):
        # the median's pass and the source of W's rows, and no affinity
        # beyond the block
        pair = pair_of()
        cfg = RBF.replace(kernel="primal")
        run_adaptation(pair, cfg, ModelKind("CDDA", "DB"), operands=InputOperands(pair, cfg))
        assert calls == {"distance_block": 1, "median": 1, "cross_affinity": 1}

    def test_complete_graph_range_terms_peak(self):
        # neighborhood_p = 0: the edge list of the complete graph, int32
        # index pairs and the weights, its Laplacian's weights, then one
        # (rows, n) panel of L at a time
        pair = pair_of(7, 200)
        n = pair.n_total
        assert n == 1200
        ops = InputOperands(pair, RBF.replace(neighborhood_p=0))
        ops.kernel_range()
        tracemalloc.start()
        try:
            ops.range_terms()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n * n, peak / (8 * n * n)

    def test_operands_of_another_pair_or_config_are_rejected(self):
        pair = pair_of()
        ops = InputOperands(pair, RBF)
        with pytest.raises(ParameterError, match="another pair or config"):
            run_adaptation(pair_of(), RBF, ModelKind("JDA"), operands=ops)
        with pytest.raises(ParameterError, match="another pair or config"):
            run_adaptation(pair, RBF.replace(k=3), ModelKind("MEDA"), operands=ops)

    def test_primal_has_no_kernel(self):
        with pytest.raises(ParameterError, match="no kernel matrix"):
            InputOperands(pair_of(), RBF.replace(kernel="primal")).kernel_range()

    @pytest.mark.parametrize("d, n", [(64, 300), (10, 3000)])
    def test_coincident_columns_raise_and_weigh_one(self, d, n):
        # one column repeated: the distances round to within their error
        # bound, which is cut to 0, so the median is 0 and every weight 1
        x = np.tile(np.random.default_rng(0).normal(size=(d, 1)), (1, n // 2))
        pair = make_pair(LabeledDomain(x, np.arange(n // 2) % 2), UnlabeledDomain(x.copy()))
        with pytest.raises(BandwidthError):
            InputOperands(pair, RBF.replace(kernel="primal")).affinity()
        with pytest.raises(BandwidthError):
            InputOperands(pair, RBF).kernel_range()
        assert np.all(stacked_rows(InputOperands(pair, AdaptConfig(sigma=1.0)).affinity()) == 1.0)
        # K is all ones: one direction, of eigenvalue n
        ops = InputOperands(pair, RBF.replace(sigma=1.0))
        assert np.all(stacked_rows(ops.affinity()) == 1.0)
        basis, w_r = ops.kernel_range()
        assert_allclose(w_r[-1], n, rtol=1e-12)
        assert_allclose(np.abs(basis[:, -1]), 1.0 / np.sqrt(n), rtol=1e-12)

    def test_primal_affinity_holds_no_cross_block(self):
        # only the median's row-block passes and the copy of the target
        # columns: 0.44 x 8 ns nt traced bytes. Cut from the n x n distances
        # it peaked at 5.0 x, and with W held as one cross-form product at
        # 1.11 x.
        ns = nt = 1200
        rng = np.random.default_rng(3)
        pair = make_pair(LabeledDomain(rng.normal(size=(64, ns)), np.arange(ns) % 3),
                         UnlabeledDomain(rng.normal(size=(64, nt))))
        ops = InputOperands(pair, AdaptConfig())
        tracemalloc.start()
        try:
            ops.affinity()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 8 * ns * nt, peak / (8 * ns * nt)

    def test_coincident_points_raise_on_every_request(self):
        pair = make_pair(LabeledDomain(np.ones((2, 4)), np.array([0, 0, 1, 1])),
                         UnlabeledDomain(np.ones((2, 4))))
        ops = InputOperands(pair, RBF)
        for request in (ops.kernel_range, ops.affinity, ops.range_terms, ops.kernel_range):
            with pytest.raises(BandwidthError):
                request()


def rbf_operands(x: np.ndarray) -> InputOperands:
    """Median-sigma rbf operands of x's first half as source, its second as target."""
    half = x.shape[1] // 2
    pair = make_pair(LabeledDomain(x[:, :half], np.arange(half) % 2),
                     UnlabeledDomain(x[:, half:]))
    return InputOperands(pair, RBF)


@pytest.mark.parametrize("entry", [
    median_pairwise_distance,
    lambda x: build_affinity(x, None, 0),
    lambda x: build_affinity(x, None, 5),
    lambda x: rbf_operands(x).kernel_range(),
    lambda x: rbf_operands(x).affinity(),
], ids=["median", "complete-affinity", "knn-affinity", "kernel-range", "cross-affinity"])
def test_every_median_fails_on_coincident_points(entry):
    # one column repeated: the distances round to within their error bound,
    # which is cut to 0, so no pair is apart and no bandwidth exists
    x = np.tile(np.random.default_rng(8).normal(size=(16, 1)), (1, 8))
    with pytest.raises(BandwidthError, match="all points coincide"):
        entry(x)
