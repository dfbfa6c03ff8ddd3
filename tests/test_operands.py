from __future__ import annotations

import numpy as np
import pytest

import dbmmd.graphs as graphs_module
import dbmmd.operands as operands_module
from dbmmd.adapt import ModelKind, run_adaptation
from dbmmd.datamodel import AdaptConfig, LabeledDomain, UnlabeledDomain, make_pair
from dbmmd.errors import BandwidthError, ParameterError
from dbmmd.experiment import ExperimentSpec, run_experiment
from dbmmd.graphs import build_affinity, build_laplacian
from dbmmd.linalg import (kernel_matrix, kernel_range, matmul, median_pairwise_distance,
                          pairwise_sq_dists)
from dbmmd.operands import InputOperands
from dbmmd.synthetic import SyntheticRecipe, generate_synthetic

from dense_reference import cross_block

RBF = AdaptConfig(k=2, lam=1.0, max_iter=2, kernel="rbf")


def pair_of(seed=5, per_class=15):
    recipe = SyntheticRecipe(class_count=3, samples_per_class=per_class, feature_dim=2,
                             shift="rotation", shift_param=30.0, noise_sigma=0.8, seed=seed)
    return generate_synthetic(recipe).pair


@pytest.fixture
def calls(monkeypatch):
    """Counts the builders the operands call, by name."""
    counts = {}
    for name in ("pairwise_sq_dists", "kernel_matrix", "kernel_range", "build_affinity",
                 "build_laplacian", "range_products"):
        fn = getattr(operands_module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(operands_module, name, counted)
    median = graphs_module.median_pairwise_distance

    def counted_median(*args, **kwargs):
        counts["median"] = counts.get("median", 0) + 1
        return median(*args, **kwargs)

    # every median bandwidth, in or outside build_affinity, goes through graphs
    monkeypatch.setattr(graphs_module, "median_pairwise_distance", counted_median)
    return counts


class TestValues:
    @pytest.mark.parametrize("seed, per_class", [(5, 15), (6, 1), (7, 100)])
    def test_rbf_kernel_and_affinity_equal_separate_builds(self, seed, per_class):
        pair = pair_of(seed, per_class)
        ops = InputOperands(pair, RBF)
        x = pair.packed_features()
        sigma = median_pairwise_distance(pairwise_sq_dists(x))
        assert ops.kernel().tobytes() == kernel_matrix(x, "rbf", sigma=sigma).tobytes()
        alone = build_affinity(x, None, 0)
        assert ops.affinity().tobytes() == cross_block(pair, alone).tobytes()
        assert alone.sigma == sigma

    def test_fixed_sigma_affinity_equals_build_affinity(self):
        pair = pair_of()
        cfg = RBF.replace(sigma=0.7)
        ops = InputOperands(pair, cfg)
        alone = build_affinity(pair.packed_features(), 0.7, 0)
        assert ops.affinity().tobytes() == cross_block(pair, alone).tobytes()

    @pytest.mark.parametrize("kernel, bandwidth", [("rbf", "median"), ("linear", "median"),
                                                   ("poly", "fixed"), ("primal", "median")])
    def test_laplacian_equals_separate_build(self, kernel, bandwidth):
        pair = pair_of()
        cfg = AdaptConfig(kernel=kernel, sigma=1.1 if bandwidth == "fixed" else None)
        ops = InputOperands(pair, cfg)
        lap = ops.laplacian()
        alone = build_affinity(pair.packed_features(), cfg.sigma, cfg.neighborhood_p)
        assert lap.tobytes() == build_laplacian(alone).tobytes()
        # the bandwidth the Laplacian resolved is reused, not recomputed
        dense = build_affinity(pair.packed_features(), cfg.sigma, 0)
        assert ops.affinity().tobytes() == cross_block(pair, dense).tobytes()

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "poly", "primal"])
    def test_affinity_holds_only_the_cross_block(self, kernel):
        pair = pair_of(7, 100)
        ops = InputOperands(pair, AdaptConfig(kernel=kernel))
        cross = ops.affinity()
        ns, nt = pair.n_source, pair.n_target
        assert cross.shape == (ns, nt)
        assert cross.nbytes == 8 * ns * nt
        if kernel == "rbf":
            # a view of K: the affinity adds no array of its own
            assert np.shares_memory(cross, ops.kernel())
        else:
            # a copy: the dense affinity it was cut from is not kept
            assert cross.base is None

    def test_kernel_range_of_k(self):
        ops = InputOperands(pair_of(), RBF)
        for ours, alone in zip(ops.kernel_range(), kernel_range(ops.kernel())):
            assert ours.tobytes() == alone.tobytes()


class TestSharing:
    def test_arrays_are_read_only(self):
        ops = InputOperands(pair_of(), RBF)
        arrays = [ops.x, ops.kernel(), *ops.kernel_range(), ops.affinity(),
                  ops.laplacian(), *ops.range_terms()]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_each_operand_is_built_once(self, calls):
        pair = pair_of()
        ops = InputOperands(pair, RBF)
        for name in ("JDA", "JDA+CG", "MEDA", "MEDA+CG", "CDDA+DB"):
            run_adaptation(pair, RBF, ModelKind.parse(name), operands=ops)
        # one distance pass for sigma and K, one inside the kNN affinity
        assert calls == {"pairwise_sq_dists": 1, "median": 1, "kernel_matrix": 1,
                         "kernel_range": 1, "build_affinity": 1, "build_laplacian": 1,
                         "range_products": 1}

    def test_experiment_builds_once_per_repeat(self, calls, tmp_path):
        recipe = SyntheticRecipe(class_count=2, samples_per_class=10, feature_dim=2, seed=3)
        spec = ExperimentSpec(models=("JDA", "JDA+CG", "MEDA", "MEDA+CG"), config=RBF,
                              output_dir=str(tmp_path / "out"), repeat=2, synthetic=recipe)
        assert run_experiment(spec).exit_code == 0
        assert calls == {"pairwise_sq_dists": 2, "median": 2, "kernel_matrix": 2,
                         "kernel_range": 2, "build_affinity": 2, "build_laplacian": 2,
                         "range_products": 2}

    def test_meda_cells_share_the_range_of_k_with_projection_cells(self, calls, tmp_path):
        # MEDA first: its cells build the range and its E and L terms, JDA reuses the range
        recipe = SyntheticRecipe(class_count=2, samples_per_class=10, feature_dim=2, seed=4)
        spec = ExperimentSpec(models=("MEDA", "MEDA+CG", "JDA"), config=RBF,
                              output_dir=str(tmp_path / "out"), repeat=2, synthetic=recipe)
        assert run_experiment(spec).exit_code == 0
        assert calls["kernel_range"] == 2 and calls["range_products"] == 2

    def test_range_terms_equal_separate_products(self):
        pair = pair_of()
        ops = InputOperands(pair, RBF)
        basis, _ = kernel_range(ops.kernel())
        ns = pair.n_source
        e_r, l_r = ops.range_terms()
        assert e_r.tobytes() == matmul(basis[:ns].T, basis[:ns]).tobytes()
        assert l_r.tobytes() == matmul(basis.T, matmul(ops.laplacian(), basis)).tobytes()

    def test_primal_jda_builds_nothing(self, calls):
        pair = pair_of()
        cfg = RBF.replace(kernel="primal")
        run_adaptation(pair, cfg, ModelKind("JDA"), operands=InputOperands(pair, cfg))
        assert calls == {}

    def test_boundary_cell_builds_only_the_dense_affinity(self, calls):
        pair = pair_of()
        cfg = RBF.replace(kernel="primal")
        run_adaptation(pair, cfg, ModelKind("CDDA", "DB"), operands=InputOperands(pair, cfg))
        assert calls == {"build_affinity": 1, "median": 1}

    def test_operands_of_another_pair_or_config_are_rejected(self):
        pair = pair_of()
        ops = InputOperands(pair, RBF)
        with pytest.raises(ParameterError, match="another pair or config"):
            run_adaptation(pair_of(), RBF, ModelKind("JDA"), operands=ops)
        with pytest.raises(ParameterError, match="another pair or config"):
            run_adaptation(pair, RBF.replace(k=3), ModelKind("MEDA"), operands=ops)

    def test_primal_has_no_kernel(self):
        with pytest.raises(ParameterError):
            InputOperands(pair_of(), RBF.replace(kernel="primal")).kernel()

    def test_coincident_points_raise_on_every_request(self):
        pair = make_pair(LabeledDomain(np.ones((2, 4)), np.array([0, 0, 1, 1])),
                         UnlabeledDomain(np.ones((2, 4))))
        ops = InputOperands(pair, RBF)
        for request in (ops.kernel, ops.affinity, ops.laplacian, ops.kernel):
            with pytest.raises(BandwidthError):
                request()
