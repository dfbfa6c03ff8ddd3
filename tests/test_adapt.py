from __future__ import annotations

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dbmmd
import dbmmd.graphs as graphs_module
import dbmmd.mmd as mmd_module
from dbmmd.adapt import (
    _propagated_target_labels,
    _solve_with_escalation,
    ModelKind,
    assemble_db,
    run_adaptation,
    run_meda_cg,
    solve_projection,
)
from dbmmd.classify import hard_labels, nn_classify, one_hot
from dbmmd.datamodel import AdaptConfig, LabeledDomain, UnlabeledDomain, make_pair
from dbmmd.errors import (DimensionError, NumericError, ParameterError, StateError,
                          UnsupportedModelError)
from dbmmd.graphs import build_affinity, build_laplacian
from dbmmd.linalg import gen_eig_smallest, kernel_matrix, kernel_range, median_pairwise_distance
from dbmmd.mmd import MmdOperator, build_all
from dbmmd.operands import InputOperands
from dbmmd.synthetic import SyntheticRecipe, generate_synthetic

from dense_reference import (boundary_block, class_diagonal, cross_block, cross_term,
                             dense_boundary_block, dense_build_affinity, dense_build_laplacian,
                             dense_kernel, dense_kernel_range, dense_meda_solve,
                             dense_meda_system, dense_operator)

UNIT_AFFINITY = dict(sigma=float("inf"))


def labeled_pair(seed=0, n_s=8, n_t=7, class_count=3):
    rng = np.random.default_rng(seed)
    ys = np.concatenate([np.arange(class_count), rng.integers(0, class_count, n_s - class_count)])
    yt = np.concatenate([np.arange(class_count), rng.integers(0, class_count, n_t - class_count)])
    src = LabeledDomain(rng.normal(size=(2, n_s)), ys, name="source")
    tgt = UnlabeledDomain(rng.normal(size=(2, n_t)), name="target")
    return make_pair(src, tgt).with_pseudo_labels(yt)


def small_dataset(seed=11, per_class=10, noise=0.4):
    recipe = SyntheticRecipe(
        class_count=3,
        samples_per_class=per_class,
        feature_dim=2,
        shift="rotation",
        shift_param=25.0,
        noise_sigma=noise,
        seed=seed,
    )
    return generate_synthetic(recipe)


def expand(mats, table):
    return table[np.ix_(mats.groups, mats.groups)]


def zero_operator(n):
    """An all-zero coefficient operator over n samples."""
    return MmdOperator(np.zeros(n, dtype=int), n // 2, np.zeros((2, 2)))


def mean_diff_sq(za, zb):
    d = za.mean(axis=1) - zb.mean(axis=1)
    return float(d @ d)


class TestModelKind:
    def test_parse_and_name(self):
        kind = ModelKind.parse("CDDA+DB")
        assert kind.base == "CDDA"
        assert kind.boundary == "DB"
        assert kind.name == "CDDA+DB"
        assert ModelKind.parse("JDA").boundary == "none"
        assert ModelKind.parse("JDA").name == "JDA"

    def test_meda_db_rejected(self):
        with pytest.raises(UnsupportedModelError):
            ModelKind.parse("MEDA+DB")

    def test_meda_cg_allowed(self):
        assert ModelKind.parse("MEDA+CG").name == "MEDA+CG"

    def test_unknown_names(self):
        with pytest.raises(UnsupportedModelError):
            ModelKind.parse("XGBoost")
        with pytest.raises(UnsupportedModelError):
            ModelKind.parse("JDA+XX")
        with pytest.raises(UnsupportedModelError):
            ModelKind.parse("JDA+CG+DB")


class TestAssembleDb:
    def test_jda_is_marginal_plus_conditional(self):
        pair = labeled_pair(1)
        mats = build_all(pair)
        db = assemble_db(mats, None, ModelKind("JDA"))
        assert boundary_block(db) is None
        assert np.array_equal(db.table, mats.marginal + mats.conditional)
        assert np.array_equal(dense_operator(db), expand(mats, mats.marginal + mats.conditional))

    def test_cdda_subtracts_both_repulsive_directions(self):
        pair = labeled_pair(2)
        mats = build_all(pair)
        jda = assemble_db(mats, None, ModelKind("JDA"))
        cdda = assemble_db(mats, None, ModelKind("CDDA"))
        assert_allclose(
            dense_operator(jda) - dense_operator(cdda),
            expand(mats, mats.separation),
            atol=1e-15,
        )

    def test_dga_matches_cdda_matrix(self):
        # DGA-DA differs only in how it labels, not in the coefficient matrix
        pair = labeled_pair(3)
        mats = build_all(pair)
        cdda = assemble_db(mats, None, ModelKind("CDDA"))
        dga = assemble_db(mats, None, ModelKind("DGA-DA"))
        assert np.array_equal(cdda.table, dga.table)
        assert np.array_equal(dense_operator(cdda), dense_operator(dga))

    def test_unit_affinity_spirit_db_reduces_to_plain(self):
        # W == 1 makes every reweight multiply by exactly 1.0, so the +DB
        # operator must equal the plain one bit for bit: same table, D == 0
        pair = labeled_pair(4)
        mats = build_all(pair)
        cross = cross_term(pair, cross_block(pair, dense_build_affinity(pair.packed_features(),
                                                                          float("inf"))))
        for base in ("JDA", "CDDA", "DGA-DA"):
            plain = assemble_db(mats, None, ModelKind(base))
            for boundary in ("CG", "DB"):
                if base == "JDA" and boundary == "DB":
                    continue
                reweighted = assemble_db(mats, cross, ModelKind(base, boundary))
                assert np.array_equal(reweighted.table, plain.table), (base, boundary)
                assert not np.any(boundary_block(reweighted)), (base, boundary)
                assert np.array_equal(dense_operator(reweighted),
                                      dense_operator(plain)), (base, boundary)

    def test_jda_db_degenerates_to_jda_cg(self):
        # JDA has no separation term, so the DB tag can only reweight the
        # compact term, exactly what CG does
        pair = labeled_pair(5)
        mats = build_all(pair)
        cross = cross_term(pair, cross_block(pair, dense_build_affinity(pair.packed_features())))
        db = assemble_db(mats, cross, ModelKind("JDA", "DB"))
        cg = assemble_db(mats, cross, ModelKind("JDA", "CG"))
        assert np.array_equal(db.table, cg.table)
        assert np.array_equal(boundary_block(db), boundary_block(cg))
        assert np.array_equal(dense_operator(db), dense_operator(cg))

    def test_spirit_touches_only_masked_entries(self):
        # the graph reweights cross-domain entries only
        pair = labeled_pair(6)
        mats = build_all(pair)
        cross = cross_term(pair, cross_block(pair, dense_build_affinity(pair.packed_features())))
        plain = dense_operator(assemble_db(mats, None, ModelKind("CDDA")))
        db = dense_operator(assemble_db(mats, cross, ModelKind("CDDA", "DB")))
        ns = pair.n_source
        assert np.array_equal(db[:ns, :ns], plain[:ns, :ns])
        assert np.array_equal(db[ns:, ns:], plain[ns:, ns:])

    def test_correction_bit_equal_to_gathered_product(self):
        # 400 target columns give 163-row blocks, so D is built over three of them
        pair = labeled_pair(9, n_s=450, n_t=400, class_count=4)
        aff = dense_build_affinity(pair.packed_features())
        kind = ModelKind("CDDA", "DB")
        op = assemble_db(build_all(pair), cross_term(pair, cross_block(pair, aff)), kind)
        got, want = boundary_block(op), dense_boundary_block(pair, aff, kind)
        same = class_diagonal(op)
        assert got[same].tobytes() == want[same].tobytes()
        assert np.array_equal(got, want)
        assert np.any(got[same] != 0.0) and np.any(got[~same] != 0.0)

    def test_reweighted_operator_allocates_no_ns_by_nt_array(self):
        # sandwich and matvec only read D: neither allocates an (n_s, n_t)
        # array of its own. matvec is read under CG, the one boundary MEDA
        # has; T for the sandwich's operand is made before either
        pair = labeled_pair(13, n_s=600, n_t=600, class_count=4)
        x = pair.packed_features()
        cross = cross_term(pair, cross_block(pair, dense_build_affinity(x)), x)
        db, cg = (assemble_db(build_all(pair), cross, ModelKind(base, boundary))
                  for base, boundary in (("CDDA", "DB"), ("MEDA", "CG")))
        vectors = np.random.default_rng(130).normal(size=(pair.n_total, 3))
        tracemalloc.start()
        try:
            peaks = []
            for call in (lambda: db.sandwich(x), lambda: cg.matvec(vectors)):
                tracemalloc.reset_peak()
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 8 * pair.n_source * pair.n_target, peaks

    def test_boundary_round_holds_no_ns_by_nt_array(self):
        # One CDDA+DB round's operator build and its sandwich, and a MEDA+CG
        # round's matvec: W's and D's rows are rebuilt from x a block of
        # source rows at a time, so no (n_s, n_t) array is made; held whole,
        # W and D were 1.0 x here each. T is made before the rounds.
        pair = labeled_pair(14, n_s=1200, n_t=1200, class_count=4)
        ops = InputOperands(pair, AdaptConfig())
        x = ops.pencil_operand()
        affinity = ops.cross_term(off_class=True)
        mats = build_all(pair)
        vectors = np.random.default_rng(140).normal(size=(pair.n_total, 3))
        peaks = []
        tracemalloc.start()
        try:
            db = assemble_db(mats, affinity, ModelKind("CDDA", "DB"))
            cg = assemble_db(mats, affinity, ModelKind("MEDA", "CG"))
            peaks.append(tracemalloc.get_traced_memory()[1])
            for call in (lambda: db.sandwich(x), lambda: cg.matvec(vectors)):
                tracemalloc.reset_peak()
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        size = 8 * pair.n_source * pair.n_target
        assert max(peaks) < 0.5 * size, [p / size for p in peaks]
        assert boundary_block(db).shape == (pair.n_source, pair.n_target)

    def test_one_pseudo_class_round_holds_no_class_block(self):
        # every target pseudo-labeled 0: class 0's block of W spans the whole
        # target, and is read in blocks of about 64 K entries, so neither it
        # nor its D is made whole (1.0 x here each): the read peaks at 0.22 x
        pair = labeled_pair(16, n_s=1600, n_t=1600, class_count=2)
        pair = pair.with_pseudo_labels(np.zeros(pair.n_target, dtype=int))
        ops = InputOperands(pair, AdaptConfig())
        cross = ops.cross_term(off_class=True)
        x = ops.pencil_operand()
        rows = int(np.sum(pair.source.labels == 0))
        op = assemble_db(build_all(pair), cross, ModelKind("CDDA", "DB"))
        tracemalloc.start()
        try:
            op.sandwich(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = 8 * rows * pair.n_target
        assert peak < 0.5 * size, peak / size

    @pytest.mark.parametrize("base, boundary", [("CDDA", "DB"), ("DGA-DA", "DB"),
                                                ("JDA", "CG"), ("CDDA", "CG"),
                                                ("MEDA", "CG")])
    def test_round_reads_only_the_class_diagonal_blocks_of_w(self, monkeypatch, base,
                                                             boundary):
        # Once T is built, a round reads W only where a source row's class is
        # the target's pseudo-class: sum_b n_s^b n_t^b entries, in the
        # sandwich and, under CG, in the matvec of MEDA's beta too. Only DB
        # on a base with a separation term builds T, and not in the round.
        pair = labeled_pair(17, n_s=300, n_t=260, class_count=4)
        ops = InputOperands(pair, AdaptConfig())
        kind = ModelKind(base, boundary)
        cross = ops.cross_term(kind.reweights_separation)
        assert (cross.off_class is not None) == kind.reweights_separation
        reads, terms = [], []
        read, build_term = graphs_module.pairwise_sq_dists, mmd_module.off_class_term

        def counted_read(*args, **kwargs):
            out = read(*args, **kwargs)
            reads.append(out.size)
            return out

        def counted_term(*args, **kwargs):
            terms.append(1)
            return build_term(*args, **kwargs)

        monkeypatch.setattr(graphs_module, "pairwise_sq_dists", counted_read)
        monkeypatch.setattr(mmd_module, "off_class_term", counted_term)
        op = assemble_db(build_all(pair), cross, kind)
        x = ops.pencil_operand()
        got = op.sandwich(x)
        ys, yt = pair.source.labels, pair.target.pseudo_labels
        diagonal_blocks = sum(np.sum(ys == b) * np.sum(yt == b) for b in range(4))
        assert sum(reads) == diagonal_blocks
        assert terms == []
        m = dense_operator(op)
        ref = x @ m @ x.T
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        vectors = np.random.default_rng(170).normal(size=(pair.n_total, 3))
        if kind.reweights_separation:
            # D x is read only under CG, the one boundary MEDA has
            with pytest.raises(StateError):
                op.matvec(vectors)
            return
        reads.clear()
        got = op.matvec(vectors)
        assert sum(reads) == diagonal_blocks
        ref = m @ vectors
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_read_only_strided_affinity_is_not_written(self):
        # the graphs take any (ns, nt) W: here a read-only view that is
        # neither C- nor F-contiguous, the source rows of the affinity of
        # every column of x
        pair = labeled_pair(15, n_s=30, n_t=25)
        x, ns = pair.packed_features(), pair.n_source
        cross = kernel_matrix(x, "rbf", sigma=1.0)[:ns, ns:]
        cross.flags.writeable = False
        assert not (cross.flags.c_contiguous or cross.flags.f_contiguous)
        before = cross.copy()
        for base, boundary in (("JDA", "CG"), ("CDDA", "DB"), ("DGA-DA", "CG")):
            op = assemble_db(build_all(pair), cross_term(pair, cross), ModelKind(base, boundary))
            assert np.any(boundary_block(op) != 0.0)
        assert cross.tobytes() == before.tobytes()

    def test_trace_composition_oracle(self):
        # marginal + per-class pulls - both directions of the printed
        # repulsive form, which coincide: twice its group-mean identity
        pair = labeled_pair(8)
        mats = build_all(pair)
        db = assemble_db(mats, None, ModelKind("CDDA"))
        rng = np.random.default_rng(80)
        z = rng.normal(size=(2, pair.n_total))
        ns = pair.n_source
        ys, yt = pair.source.labels, pair.target.pseudo_labels
        zs, zt = z[:, :ns], z[:, ns:]
        expect = mean_diff_sq(zs, zt)
        for c in range(3):
            if (ys == c).any() and (yt == c).any():
                expect += mean_diff_sq(zs[:, ys == c], zt[:, yt == c])
        pairs = [(k, r) for k in range(3) for r in range(3)
                 if k != r and (ys == k).any() and (yt == r).any()]
        mu_s = {k: zs[:, ys == k].mean(axis=1) for k, _ in pairs}
        mu_t = {r: zt[:, yt == r].mean(axis=1) for _, r in pairs}
        literal = (sum(m @ m for m in mu_s.values()) + sum(m @ m for m in mu_t.values())
                   - 2.0 * sum(mu_s[k] @ mu_t[r] for k, r in pairs))
        expect -= 2.0 * literal
        got = float(np.trace(db.sandwich(z)))
        assert abs(got - expect) < 1e-10
        assert abs(float(np.trace(z @ dense_operator(db) @ z.T)) - expect) < 1e-10

    def test_boundary_without_graphs_raises(self):
        pair = labeled_pair(9)
        mats = build_all(pair)
        with pytest.raises(StateError):
            assemble_db(mats, None, ModelKind("CDDA", "DB"))

    def test_misshapen_affinity_raises_before_any_read(self):
        # D is only built when the operator is read, so W's shape is
        # checked when the operator is assembled
        pair = labeled_pair(9)
        aff = dense_build_affinity(pair.packed_features())
        for w in (aff.entries, cross_block(pair, aff).T):
            with pytest.raises(DimensionError):
                assemble_db(build_all(pair), cross_term(pair, w), ModelKind("CDDA", "DB"))

    def test_db_term_without_t_raises(self):
        # DB's s_s D sums W over every source row through T: a term that
        # holds none is a StateError, not a walk of W. CG reads no T.
        pair = labeled_pair(11, n_s=30, n_t=25)
        x = pair.packed_features()
        bare = cross_term(pair, cross_block(pair, dense_build_affinity(x)))
        mats = build_all(pair)
        for base in ("CDDA", "DGA-DA"):
            with pytest.raises(StateError):
                assemble_db(mats, bare, ModelKind(base, "DB")).sandwich(x)
        cg = assemble_db(mats, bare, ModelKind("CDDA", "CG"))
        ref = x @ dense_operator(cg) @ x.T
        assert np.abs(cg.sandwich(x) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_db_sandwich_with_another_operand_raises(self):
        # T is held for one operand; any other, even an equal copy, is a
        # StateError, and the held one still reads the dense M
        pair = labeled_pair(12, n_s=30, n_t=25)
        x = pair.packed_features()
        cross = cross_term(pair, cross_block(pair, dense_build_affinity(x)), x)
        for base in ("CDDA", "DGA-DA"):
            op = assemble_db(build_all(pair), cross, ModelKind(base, "DB"))
            for other in (x.copy(), 2.0 * x, x[:1]):
                with pytest.raises(StateError):
                    op.sandwich(other)
            got, ref = op.sandwich(x), x @ dense_operator(op) @ x.T
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSolveProjection:
    def test_zero_coefficient_matrix_recovers_pca(self):
        # with db = 0 the pencil is (lam I, centered scatter): the smallest
        # ratios sit on the leading principal directions
        rng = np.random.default_rng(60)
        x = rng.normal(size=(4, 30)) * np.array([[4.0], [2.0], [1.0], [0.5]])
        a, _, _ = solve_projection(x, zero_operator(30), k=2, lam=1.0)
        xc = x - x.mean(axis=1, keepdims=True)
        u = np.linalg.svd(xc, full_matrices=False)[0][:, :2]
        q, _ = np.linalg.qr(a)
        angles = np.linalg.svd(u.T @ q)[1]
        assert_allclose(angles, np.ones(2), atol=1e-6)

    def test_eigenvalues_ascending_and_b_normalized(self):
        pair = labeled_pair(10)
        mats = build_all(pair)
        db = assemble_db(mats, None, ModelKind("JDA"))
        x = pair.packed_features()
        a, vals, objective = solve_projection(x, db, k=2, lam=0.5)
        assert list(vals) == sorted(vals)
        n = x.shape[1]
        h = np.eye(n) - np.ones((n, n)) / n
        right = x @ h @ x.T
        right = 0.5 * (right + right.T)
        ridge = 1e-9 * np.trace(right) / right.shape[0]
        gram = a.T @ (right + ridge * np.eye(2)) @ a
        assert_allclose(gram, np.eye(2), atol=1e-8)
        # the objective is the left operand's trace over the solved vectors
        dense_objective = np.trace(a.T @ x @ dense_operator(db) @ x.T @ a) + 0.5 * np.sum(a * a)
        assert_allclose(objective, dense_objective, rtol=1e-12)

    def test_kernel_range_operand_matches_range_restricted_pencil(self):
        # oracle: the n x n kernel pencil (dense M) restricted to the range
        # of K through an independent orthonormal basis, the QR factor of
        # X^T (range of the linear kernel X^T X)
        pair = labeled_pair(12, n_s=20, n_t=18)
        db = assemble_db(build_all(pair), None, ModelKind("CDDA"))
        x = pair.packed_features()
        kmat = kernel_matrix(x, "linear")
        basis, w_r = kernel_range(x, "linear")
        s_r = w_r[:, None] * basis.T
        assert s_r.shape == (2, 38)
        c, vals, objective = solve_projection(s_r, db, k=2, lam=1.0)
        q = np.linalg.qr(x.T)[0]
        n = x.shape[1]
        h = np.eye(n) - np.ones((n, n)) / n
        kq = kmat @ q
        ref_vals, ref_vecs = gen_eig_smallest(kq.T @ dense_operator(db) @ kq + np.eye(2),
                                              kq.T @ h @ kq, 2)
        assert_allclose(vals, ref_vals, rtol=1e-10)
        z_ref = ref_vecs.T @ kq.T
        z = c.T @ s_r
        signs = np.sign(np.sum(z * z_ref, axis=1, keepdims=True))
        assert_allclose(signs * z, z_ref, atol=1e-9 * np.abs(z_ref).max())
        assert_allclose(objective, sum(ref_vals), rtol=1e-10)

    def test_db_operand_of_another_dtype_is_a_parameter_error(self):
        # converting a float32 operand would make an array T was not made
        # for: the error names the dtype; CG converts it and solves
        pair = labeled_pair(18, n_s=30, n_t=25)
        ops = InputOperands(pair, AdaptConfig())
        x = ops.pencil_operand().astype(np.float32)
        db = assemble_db(build_all(pair), ops.cross_term(off_class=True), ModelKind("CDDA", "DB"))
        with pytest.raises(ParameterError, match="float32"):
            solve_projection(x, db, k=2, lam=1.0)
        cg = assemble_db(build_all(pair), ops.cross_term(), ModelKind("CDDA", "CG"))
        assert solve_projection(x, cg, k=2, lam=1.0)[0].shape == (x.shape[0], 2)

    def test_shape_and_parameter_errors(self):
        x = np.zeros((2, 5))
        with pytest.raises(ParameterError):
            solve_projection(x, zero_operator(4), k=1, lam=1.0)
        with pytest.raises(ParameterError):
            solve_projection(x, zero_operator(5), k=1, lam=0.0)


class TestRunAdaptation:
    def test_zero_shift_is_easy(self):
        recipe = SyntheticRecipe(
            class_count=2,
            samples_per_class=15,
            feature_dim=2,
            shift="rotation",
            shift_param=0.0,
            noise_sigma=0.1,
            seed=5,
        )
        ds = generate_synthetic(recipe)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=5)
        report = run_adaptation(ds.pair, cfg, ModelKind("JDA"), ds.target_truth)
        assert report.baseline_accuracy == 1.0
        assert report.final_accuracy == 1.0
        assert report.fixed_point_iteration == 1

    def test_bit_identical_reruns(self):
        ds = small_dataset()
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=5)
        kind = ModelKind("CDDA", "DB")
        first = run_adaptation(ds.pair, cfg, kind, ds.target_truth)
        second = run_adaptation(ds.pair, cfg, kind, ds.target_truth)
        assert np.array_equal(first.predicted_labels, second.predicted_labels)
        assert np.array_equal(first.projection, second.projection)
        assert [r.objective for r in first.iterations] == [r.objective for r in second.iterations]
        assert [r.eigenvalues for r in first.iterations] == [
            r.eigenvalues for r in second.iterations
        ]

    @pytest.mark.parametrize("kind", ["JDA", "MEDA"])
    def test_integral_float_fields_run_as_ints(self, kind):
        ds = small_dataset(seed=17)
        floats = AdaptConfig(k=2.0, lam=1.0, max_iter=2.0, kernel="rbf", neighborhood_p=3.0)
        ints = AdaptConfig(k=2, lam=1.0, max_iter=2, kernel="rbf", neighborhood_p=3)
        assert floats == ints
        got = run_adaptation(ds.pair, floats, ModelKind(kind), ds.target_truth)
        want = run_adaptation(ds.pair, ints, ModelKind(kind), ds.target_truth)
        assert len(got.iterations) == len(want.iterations) >= 1
        assert np.array_equal(got.predicted_labels, want.predicted_labels)
        assert [r.objective for r in got.iterations] == [r.objective for r in want.iterations]

    def test_truth_never_feeds_back(self):
        ds = small_dataset(seed=13)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=4)
        kind = ModelKind("CDDA")
        with_truth = run_adaptation(ds.pair, cfg, kind, ds.target_truth)
        without = run_adaptation(ds.pair, cfg, kind, None)
        assert np.array_equal(with_truth.predicted_labels, without.predicted_labels)
        assert without.baseline_accuracy is None
        assert all(r.accuracy is None for r in without.iterations)

    def test_input_pair_is_not_mutated(self):
        ds = small_dataset(seed=17)
        labels_before = ds.pair.source.labels.copy()
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=3)
        run_adaptation(ds.pair, cfg, ModelKind("JDA"))
        assert np.array_equal(ds.pair.source.labels, labels_before)
        assert ds.pair.target.pseudo_labels is None

    def test_records_are_complete(self):
        ds = small_dataset(seed=19)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=4)
        report = run_adaptation(ds.pair, cfg, ModelKind("CDDA", "CG"), ds.target_truth)
        assert report.iterations
        for i, rec in enumerate(report.iterations, start=1):
            assert rec.iteration == i
            assert np.isfinite(rec.objective)
            assert len(rec.eigenvalues) == cfg.k
            assert rec.pseudo_labels.shape == (ds.pair.n_target,)
        last = report.iterations[-1]
        assert report.final_accuracy == last.accuracy
        assert np.array_equal(report.predicted_labels, last.pseudo_labels)
        if report.fixed_point_iteration is not None:
            assert report.iterations[-1].churn == 0
        assert report.embedding.shape == (cfg.k, ds.pair.n_total)

    def test_unit_affinity_db_trajectory_matches_plain(self):
        ds = small_dataset(seed=23)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=5, **UNIT_AFFINITY)
        plain = run_adaptation(ds.pair, cfg, ModelKind("CDDA"), ds.target_truth)
        reweighted = run_adaptation(ds.pair, cfg, ModelKind("CDDA", "DB"), ds.target_truth)
        assert len(plain.iterations) == len(reweighted.iterations)
        for a, b in zip(plain.iterations, reweighted.iterations):
            assert np.array_equal(a.pseudo_labels, b.pseudo_labels)
            assert a.objective == b.objective
            assert a.eigenvalues == b.eigenvalues
        assert np.array_equal(plain.projection, reweighted.projection)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_feature_scaling_leaves_labels_unchanged(self, scale):
        ds = small_dataset(seed=29)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=5)
        base = run_adaptation(ds.pair, cfg, ModelKind("CDDA", "DB"), ds.target_truth)
        src = LabeledDomain(scale * ds.pair.source.features, ds.pair.source.labels, name="source")
        tgt = UnlabeledDomain(scale * ds.pair.target.features, name="target")
        scaled = run_adaptation(make_pair(src, tgt), cfg, ModelKind("CDDA", "DB"), ds.target_truth)
        assert len(base.iterations) == len(scaled.iterations)
        for a, b in zip(base.iterations, scaled.iterations):
            assert np.array_equal(a.pseudo_labels, b.pseudo_labels)

    def test_dga_da_runs_and_propagates(self):
        ds = small_dataset(seed=31)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=5, neighborhood_p=5)
        report = run_adaptation(ds.pair, cfg, ModelKind("DGA-DA"), ds.target_truth)
        assert report.predicted_labels.shape == (ds.pair.n_target,)
        assert set(np.unique(report.predicted_labels)) <= {0, 1, 2}
        assert report.final_accuracy is not None

    def test_kernel_linear_runs(self):
        ds = small_dataset(seed=37)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=4, kernel="linear")
        report = run_adaptation(ds.pair, cfg, ModelKind("JDA"), ds.target_truth)
        # kernel mode solves over the n-dim expansion, one row per sample
        assert report.projection.shape == (ds.pair.n_total, cfg.k)

    def test_kernel_projection_in_range_of_k(self):
        ds = small_dataset(seed=37)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=4, kernel="rbf")
        report = run_adaptation(ds.pair, cfg, ModelKind("JDA", "CG"), ds.target_truth)
        x = ds.pair.packed_features()
        sigma = median_pairwise_distance(x)
        kmat = kernel_matrix(x, "rbf", sigma=sigma)
        a = report.projection
        assert_allclose(report.embedding, a.T @ kmat, atol=1e-10 * np.abs(report.embedding).max())
        basis, _ = kernel_range(x, "rbf", sigma=sigma)
        assert_allclose(basis @ (basis.T @ a), a, atol=1e-10 * np.abs(a).max())
        # the sign convention of gen_eig_smallest holds on the expansion
        assert (a[np.argmax(np.abs(a), axis=0), np.arange(cfg.k)] > 0).all()

    def test_kernel_k_above_numerical_rank_raises(self):
        # a linear kernel on d=2 features has rank 2: a third direction
        # could only come from the null space of K
        ds = small_dataset(seed=37)
        cfg = AdaptConfig(k=3, lam=1.0, max_iter=2, kernel="linear")
        with pytest.raises(ParameterError, match=r"numerical rank r=2\b"):
            run_adaptation(ds.pair, cfg, ModelKind("JDA"), ds.target_truth)

    def test_coincident_points_raise_a_numeric_error(self):
        # the centered scatter of 12 points at (1, 1) is zero up to round-off
        pair = make_pair(LabeledDomain(np.ones((2, 6)), np.array([0, 0, 0, 1, 1, 1])),
                         UnlabeledDomain(np.ones((2, 6))))
        cfg = AdaptConfig(k=1, lam=1.0, max_iter=2)
        with pytest.raises(NumericError, match="centered scatter has trace"):
            run_adaptation(pair, cfg, ModelKind("JDA"))

    def test_meda_dispatch(self):
        ds = small_dataset(seed=41)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=4, kernel="linear")
        report = run_adaptation(ds.pair, cfg, ModelKind("MEDA"), ds.target_truth)
        assert report.model == "MEDA"
        assert report.iterations[0].eigenvalues == ()

    @pytest.mark.parametrize("k, nn_labelings, dga_labelings", [(8, 1, 1), (3, 5, 3)])
    def test_k_equal_to_d_hides_the_mmd_operator(self, k, nn_labelings, dga_labelings):
        # With k = d the whitening A^T B A = I fixes A up to an orthogonal
        # factor Q, and only Q sees the MMD term. 1-NN distances and the
        # median-sigma propagation graph do not see Q, so every model of a
        # family gives the same labels; at k < d they all differ.
        recipe = SyntheticRecipe(class_count=5, samples_per_class=40, feature_dim=8,
                                 shift="rotation", shift_param=45.0, noise_sigma=1.0, seed=101)
        ds = generate_synthetic(recipe)
        cfg = AdaptConfig(k=k, max_iter=1)
        ops = InputOperands(ds.pair, cfg)

        def labelings(names):
            return {run_adaptation(ds.pair, cfg, ModelKind.parse(name), operands=ops)
                    .predicted_labels.tobytes() for name in names}

        assert len(labelings(["JDA", "JDA+CG", "CDDA", "CDDA+CG", "CDDA+DB"])) == nn_labelings
        assert len(labelings(["DGA-DA", "DGA-DA+CG", "DGA-DA+DB"])) == dga_labelings


class TestMedaCg:
    def test_primal_rejected(self):
        ds = small_dataset(seed=43)
        cfg = AdaptConfig(k=2, lam=1.0, kernel="primal")
        with pytest.raises(ParameterError):
            run_meda_cg(ds.pair, cfg, ModelKind("MEDA", "CG"))

    def test_wrong_base_rejected(self):
        ds = small_dataset(seed=43)
        cfg = AdaptConfig(k=2, lam=1.0, kernel="linear")
        with pytest.raises(UnsupportedModelError):
            run_meda_cg(ds.pair, cfg, ModelKind("JDA"))

    def test_zero_alpha_rho_is_kernel_ridge_on_source(self):
        # with alpha = rho = 0 the closed form decouples: target coefficients
        # vanish and the source block solves (K_SS + eta I) beta_S = Y_S
        ds = small_dataset(seed=47)
        cfg = AdaptConfig(
            k=2, lam=1.0, max_iter=4, kernel="linear",
            meda_alpha=0.0, meda_rho=0.0, meda_eta=1.0,
        )
        report = run_meda_cg(ds.pair, cfg, ModelKind("MEDA"))
        x = ds.pair.packed_features()
        kmat = x.T @ x
        ns = ds.pair.n_source
        y_s = np.zeros((ns, 3))
        y_s[np.arange(ns), ds.pair.source.labels] = 1.0
        beta_s = np.linalg.solve(kmat[:ns, :ns] + np.eye(ns), y_s)
        assert_allclose(report.projection[ns:], 0.0, atol=1e-8)
        assert_allclose(report.projection[:ns], beta_s, atol=1e-8)
        assert report.fixed_point_iteration is not None
        assert report.fixed_point_iteration <= 2

    def test_unit_affinity_cg_matches_plain(self):
        ds = small_dataset(seed=53)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=5, kernel="linear", **UNIT_AFFINITY)
        plain = run_meda_cg(ds.pair, cfg, ModelKind("MEDA"), ds.target_truth)
        reweighted = run_meda_cg(ds.pair, cfg, ModelKind("MEDA", "CG"), ds.target_truth)
        assert len(plain.iterations) == len(reweighted.iterations)
        for a, b in zip(plain.iterations, reweighted.iterations):
            assert np.array_equal(a.pseudo_labels, b.pseudo_labels)
            assert a.objective == b.objective
        assert np.array_equal(plain.projection, reweighted.projection)

    def test_objective_recorded_finite(self):
        ds = small_dataset(seed=59)
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=3, kernel="rbf")
        report = run_meda_cg(ds.pair, cfg, ModelKind("MEDA", "CG"), ds.target_truth)
        assert all(np.isfinite(r.objective) for r in report.iterations)
        assert report.embedding.shape == (3, ds.pair.n_total)


def signed_zero_matrix(rng, n):
    """Random entries with a share of exact +0.0 and -0.0."""
    a = rng.normal(size=(n, n))
    a[rng.random((n, n)) < 0.2] = 0.0
    a[rng.random((n, n)) < 0.2] = -0.0
    return a


def dense_meda_replay(pair, cfg, kind, report):
    """Each round of ``report`` redone on the full K: dense M, n x n system, LU.

    Round t starts from the labels the library's round t - 1 gave (or the
    initial 1-NN labels), so every round is compared on the same input.
    Returns per round (labels, churn, objective, beta, scores).
    """
    ops = InputOperands(pair, cfg)
    kmat = dense_kernel(pair.packed_features(), cfg)
    lap = dense_build_laplacian(dense_build_affinity(pair.packed_features(), cfg.sigma,
                                                     cfg.neighborhood_p))
    n, ns, c = pair.n_total, pair.n_source, pair.class_count
    alpha, rho, eta = cfg.meda_alpha, cfg.meda_rho, cfg.meda_eta
    y = np.zeros((n, c))
    y[:ns] = one_hot(pair.source.labels, c)
    pseudo = nn_classify(pair.source.features, pair.source.labels, pair.target.features)
    rounds = []
    for rec in report.iterations:
        p = pair.with_pseudo_labels(pseudo)
        cross = None if kind.boundary == "none" else ops.cross_term()
        m = dense_operator(assemble_db(build_all(p), cross, kind))
        beta = dense_meda_solve(dense_meda_system(m, lap, kmat, ns, alpha, rho, eta), y)
        scores = kmat @ beta
        new = hard_labels(scores[ns:])
        objective = (np.sum((y[:ns] - scores[:ns]) ** 2)
                     + eta * np.trace(beta.T @ kmat @ beta)
                     + alpha * np.trace(scores.T @ m @ scores)
                     + rho * np.trace(scores.T @ lap @ scores))
        rounds.append((new, int(np.sum(new != pseudo)), float(objective), beta, scores))
        pseudo = rec.pseudo_labels
    return rounds


class TestMedaRangeSolve:
    """run_meda_cg's r x r solve against the n x n system over the full K."""

    # (config, numerical rank r, relative objective tolerance)
    CASES = {
        # at this sigma every eigenvalue of K survives the n * eps cut
        "rbf-full-rank": (dict(kernel="rbf", sigma=2.5), "n", 1e-12),
        # Affinities below W_FLOOR give CG weights of 1e6, and the MEDA+CG
        # system has condition number 7e7. Against a 40-digit solve of the
        # same float inputs the range solve's objectives are off by up to
        # 1.4e-12 relative, the n x n LU's by 1.1e-13.
        "rbf-floored-graph": (dict(kernel="rbf", sigma=1.5), "n", 1e-11),
        "linear": (dict(kernel="linear"), 2, 1e-12),
        "poly": (dict(kernel="poly", degree=2), 6, 1e-12),
    }

    @pytest.mark.parametrize("model", ["MEDA", "MEDA+CG"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_system(self, case, model):
        kwargs, rank, objective_rel = self.CASES[case]
        ds = small_dataset(seed=61, per_class=8, noise=0.8)
        pair = ds.pair
        cfg = AdaptConfig(k=2, lam=1.0, max_iter=5, **kwargs)
        kind = ModelKind.parse(model)
        basis, _ = InputOperands(pair, cfg).kernel_range()
        assert basis.shape[1] == (pair.n_total if rank == "n" else rank)
        report = run_meda_cg(pair, cfg, kind, ds.target_truth)
        rounds = dense_meda_replay(pair, cfg, kind, report)
        assert len(rounds) == len(report.iterations)
        for rec, (labels, churn, objective, _, _) in zip(report.iterations, rounds):
            assert np.array_equal(rec.pseudo_labels, labels)
            assert rec.churn == churn
            assert rec.objective == pytest.approx(objective, rel=objective_rel, abs=0)
        _, _, _, beta, scores = rounds[-1]
        assert_allclose(report.embedding, scores.T, rtol=0, atol=1e-10 * np.abs(scores).max())
        assert_allclose(report.projection, beta, rtol=0, atol=1e-10 * np.abs(beta).max())

    @pytest.mark.parametrize("case", ["rbf-full-rank", "rbf-floored-graph"])
    def test_full_rank_range_is_the_dense_oracle(self, case):
        ds = small_dataset(seed=61, per_class=8, noise=0.8)
        ops = InputOperands(ds.pair, AdaptConfig(k=2, lam=1.0, max_iter=5, **self.CASES[case][0]))
        basis, w_r = ops.kernel_range()
        want_u, want_w = dense_kernel_range(dense_kernel(ds.pair.packed_features(), ops.cfg))
        assert basis.tobytes() == want_u.tobytes() and w_r.tobytes() == want_w.tobytes()

    def test_zero_kernel_has_an_empty_range(self):
        # all features zero: K = 0, r = 0, so scores vanish and beta = Y / eta
        ys = np.array([0, 0, 1, 1, 2, 2])
        pair = make_pair(LabeledDomain(np.zeros((2, 6)), ys), UnlabeledDomain(np.zeros((2, 5))))
        cfg = AdaptConfig(kernel="linear", sigma=1.0, max_iter=2,
                          meda_eta=2.0)
        report = run_meda_cg(pair, cfg, ModelKind("MEDA"))
        want = np.zeros((11, 3))
        want[np.arange(6), ys] = 0.5
        assert np.array_equal(report.projection, want)
        assert not np.any(report.embedding)
        assert [r.objective for r in report.iterations] == [6.0]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_meda_range_solve_holds_on_nehalem_kernels():
    # OpenBLAS's Nehalem kernels have no FMA, so their products round
    # differently; TestMedaRangeSolve's 1e-12 objective pins must hold there
    # too. A fresh interpreter, since the core type is read at load time.
    root = Path(__file__).parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).relative_to(root)}::TestMedaRangeSolve"],
        capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]


class TestSolveWithEscalation:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_jitter_zero_byte_equal_and_input_untouched(self, order):
        rng = np.random.default_rng(67)
        n = 31
        g = np.asarray(signed_zero_matrix(rng, n) + n * np.eye(n), order=order)
        rhs = rng.normal(size=(n, 3))
        g_before, rhs_before = g.tobytes(order="A"), rhs.tobytes()
        out = _solve_with_escalation(g, rhs)
        assert out.tobytes() == dense_meda_solve(g, rhs).tobytes()
        assert g.tobytes(order="A") == g_before and rhs.tobytes() == rhs_before
        assert g.flags.c_contiguous == (order == "C")

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_singular_system_escalates_to_a_finite_result(self, order):
        rng = np.random.default_rng(71)
        n = 12
        g = rng.normal(size=(n, n))
        g[4, :] = 0.0
        g[:, 4] = 0.0
        g = np.asarray(g, order=order)
        rhs = rng.normal(size=(n, 2))
        g_before = g.tobytes(order="A")
        out = _solve_with_escalation(g, rhs)
        assert np.isfinite(out).all()
        jitter = 1e-10 * float(np.linalg.norm(g))
        assert out.tobytes() == dense_meda_solve(g, rhs, jitter).tobytes()
        assert g.tobytes(order="A") == g_before

    def test_zero_system_escalates_from_unit_scale(self):
        out = _solve_with_escalation(np.zeros((3, 3)), np.ones((3, 1)))
        assert_allclose(out, 1e10, rtol=1e-12)


class TestPropagationMemory:
    def test_one_n_by_n_array_at_a_time(self):
        # the distances stream by row blocks, so no n x n array is traced:
        # the graph phase peaks at a row block of the neighbor pass, the
        # edge list and (n, C) arrays (10.2 n^2 bytes while the distances
        # were held whole). The band of mu I + L is made once the distance
        # blocks are freed, so the whole call peaks at most at the two
        # together.
        ds = small_dataset(seed=41, per_class=200)
        pair = ds.pair.with_pseudo_labels(ds.target_truth)
        n = pair.n_total
        assert n == 1200
        z = np.random.default_rng(41).normal(size=(10, n))
        cfg = AdaptConfig()
        tracemalloc.start()
        try:
            peaks = []
            for call in (lambda: build_laplacian(build_affinity(z, None, cfg.neighborhood_p)[0]),
                         lambda: _propagated_target_labels(pair, z, cfg)):
                tracemalloc.reset_peak()
                out = call()
                peaks.append(tracemalloc.get_traced_memory()[1])
                del out
        finally:
            tracemalloc.stop()
        graph, whole = peaks
        assert graph <= 2.8 * n * n, graph / (n * n)
        assert whole <= 6.5 * n * n, whole / (n * n)

    def test_cells_leave_scipy_sparse_unimported(self):
        # importing scipy.sparse costs megabytes of resident memory; a fresh
        # interpreter runs one propagating and one MEDA+CG cell
        code = (
            "import sys\n"
            "from dbmmd.adapt import ModelKind, run_adaptation\n"
            "from dbmmd.datamodel import AdaptConfig\n"
            "from dbmmd.synthetic import SyntheticRecipe, generate_synthetic\n"
            "pair = generate_synthetic(SyntheticRecipe(class_count=3, samples_per_class=20,\n"
            "                                          feature_dim=2, seed=1)).pair\n"
            "run_adaptation(pair, AdaptConfig(k=2, max_iter=2), ModelKind.parse('DGA-DA'))\n"
            "run_adaptation(pair, AdaptConfig(k=2, max_iter=2, kernel='rbf'),\n"
            "               ModelKind.parse('MEDA+CG'))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
        )
        src = str(Path(dbmmd.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
