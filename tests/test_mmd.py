from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dbmmd.datamodel import DomainPair, LabeledDomain, UnlabeledDomain, make_pair
from dbmmd.errors import ParameterError, StateError
from dbmmd.mmd import build_all, group_index, group_sums

from dense_reference import (
    build_conditional,
    build_marginal,
    build_repulsive,
    class_cross_masks,
    cross_mask,
)


def random_pair(seed, n_s=8, n_t=7, class_count=3, dim=2):
    """Seeded pair with every class present on both sides."""
    rng = np.random.default_rng(seed)
    ys = np.concatenate([np.arange(class_count), rng.integers(0, class_count, n_s - class_count)])
    yt = np.concatenate([np.arange(class_count), rng.integers(0, class_count, n_t - class_count)])
    src = LabeledDomain(rng.normal(size=(dim, n_s)), ys, name="source")
    tgt = UnlabeledDomain(rng.normal(size=(dim, n_t)), name="target")
    return make_pair(src, tgt).with_pseudo_labels(yt)


def single_class_pair(seed=4, n_s=5, n_t=4):
    rng = np.random.default_rng(seed)
    src = LabeledDomain(rng.normal(size=(2, n_s)), np.zeros(n_s, dtype=int), name="source")
    tgt = UnlabeledDomain(
        rng.normal(size=(2, n_t)), pseudo_labels=np.zeros(n_t, dtype=int), name="target"
    )
    return DomainPair(src, tgt, class_count=1)


def expand(mats, table):
    """The (n, n) matrix a 2C x 2C table stands for: P B P^T."""
    return table[np.ix_(mats.groups, mats.groups)]


def engine_trace(z, mats, table):
    """tr(Z P B P^T Z^T) from the group sums Z P, as the engine evaluates it."""
    zp = group_sums(z, mats.groups, table.shape[0])
    return float(np.trace(zp @ table @ zp.T))


def marginal_trace_oracle(z, n_s):
    """tr(Z M0 Z^T) == ||mean(Z_s) - mean(Z_t)||^2 computed directly."""
    diff = z[:, :n_s].mean(axis=1) - z[:, n_s:].mean(axis=1)
    return float(diff @ diff)


def conditional_trace_oracle(z, pair):
    total = 0.0
    n_s = pair.n_source
    ys = pair.source.labels
    yt = pair.target.pseudo_labels
    for c in range(pair.class_count):
        zs = z[:, :n_s][:, ys == c]
        zt = z[:, n_s:][:, yt == c]
        if zs.shape[1] == 0 or zt.shape[1] == 0:
            continue
        diff = zs.mean(axis=1) - zt.mean(axis=1)
        total += float(diff @ diff)
    return total


def repulsive_trace_oracle(z, pair, direction):
    total = 0.0
    n_s = pair.n_source
    ys = pair.source.labels
    yt = pair.target.pseudo_labels
    for c in range(pair.class_count):
        for r in range(pair.class_count):
            if r == c:
                continue
            if direction == "source_to_target":
                za = z[:, :n_s][:, ys == c]
                zb = z[:, n_s:][:, yt == r]
            else:
                za = z[:, n_s:][:, yt == c]
                zb = z[:, :n_s][:, ys == r]
            if za.shape[1] == 0 or zb.shape[1] == 0:
                continue
            diff = za.mean(axis=1) - zb.mean(axis=1)
            total += float(diff @ diff)
    return total


class TestMarginal:
    def test_one_and_one(self):
        src = LabeledDomain(np.zeros((1, 1)), np.array([0]), name="source")
        tgt = UnlabeledDomain(np.zeros((1, 1)), pseudo_labels=np.array([0]), name="target")
        pair = DomainPair(src, tgt, class_count=1)
        mats = build_all(pair)
        assert_allclose(expand(mats, mats.marginal), [[1.0, -1.0], [-1.0, 1.0]], atol=0)

    def test_two_source_one_target(self):
        src = LabeledDomain(np.zeros((1, 2)), np.array([0, 0]), name="source")
        tgt = UnlabeledDomain(np.zeros((1, 1)), pseudo_labels=np.array([0]), name="target")
        pair = DomainPair(src, tgt, class_count=1)
        expect = np.array(
            [
                [0.25, 0.25, -0.5],
                [0.25, 0.25, -0.5],
                [-0.5, -0.5, 1.0],
            ]
        )
        mats = build_all(pair)
        assert_allclose(expand(mats, mats.marginal), expect, atol=0)

    def test_entries_sum_to_zero(self):
        mats = build_all(random_pair(1))
        assert abs(expand(mats, mats.marginal).sum()) < 1e-12

    def test_rank_one_eigenvalue(self):
        mats = build_all(random_pair(2, n_s=5, n_t=4))
        vals = np.sort(np.linalg.eigvalsh(expand(mats, mats.marginal)))
        assert_allclose(vals[:-1], 0.0, atol=1e-12)
        assert_allclose(vals[-1], 1.0 / 5 + 1.0 / 4, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_trace_oracle(self, seed):
        pair = random_pair(seed)
        rng = np.random.default_rng(seed + 1)
        z = rng.normal(size=(3, pair.n_total))
        mats = build_all(pair)
        got = engine_trace(z, mats, mats.marginal)
        assert abs(got - marginal_trace_oracle(z, pair.n_source)) < 1e-10


class TestConditional:
    def test_requires_pseudo_labels(self):
        pair = random_pair(0)
        bare = make_pair(pair.source, UnlabeledDomain(pair.target.features, name="target"))
        with pytest.raises(StateError):
            build_all(bare)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_trace_oracle(self, seed):
        pair = random_pair(seed)
        rng = np.random.default_rng(seed + 7)
        z = rng.normal(size=(2, pair.n_total))
        mats = build_all(pair)
        got = engine_trace(z, mats, mats.conditional)
        assert abs(got - conditional_trace_oracle(z, pair)) < 1e-10

    def test_absent_target_class_contributes_zero(self):
        pair = random_pair(3, class_count=3)
        # force every target point into class 0: classes 1, 2 lose target mass
        collapsed = pair.with_pseudo_labels(np.zeros(pair.n_target, dtype=int))
        mats = build_all(collapsed)
        rng = np.random.default_rng(9)
        z = rng.normal(size=(2, pair.n_total))
        got = engine_trace(z, mats, mats.conditional)
        assert abs(got - conditional_trace_oracle(z, collapsed)) < 1e-10
        # only the class-0 term survives
        n_s = pair.n_source
        zs = z[:, :n_s][:, pair.source.labels == 0]
        diff = zs.mean(axis=1) - z[:, n_s:].mean(axis=1)
        assert abs(got - float(diff @ diff)) < 1e-10

    def test_single_class_equals_marginal(self):
        # C=1 collapses the class sum onto the marginal coefficients exactly
        mats = build_all(single_class_pair())
        assert np.array_equal(mats.conditional, mats.marginal)
        assert np.array_equal(expand(mats, mats.conditional), expand(mats, mats.marginal))


def printed_trace_oracle(z, pair):
    """tr(Z R Z^T) of the printed repulsive rule R, from the group means.

    Over the ordered pairs (source k, target r != k) with both groups
    non-empty: sum_k ||mu_s^k||^2 + sum_r ||mu_t^r||^2 - 2 sum mu_s^k . mu_t^r,
    k and r over the classes that appear in some pair.
    """
    n_s = pair.n_source
    ys, yt = pair.source.labels, pair.target.pseudo_labels
    pairs = [(k, r) for k in range(pair.class_count) for r in range(pair.class_count)
             if k != r and (ys == k).any() and (yt == r).any()]
    mu_s = {k: z[:, :n_s][:, ys == k].mean(axis=1) for k, _ in pairs}
    mu_t = {r: z[:, n_s:][:, yt == r].mean(axis=1) for _, r in pairs}
    return float(sum(m @ m for m in mu_s.values()) + sum(m @ m for m in mu_t.values())
                 - 2.0 * sum(mu_s[k] @ mu_t[r] for k, r in pairs))


class TestRepulsive:
    """The engine's separation table, and both readings of the dense oracle."""

    def test_single_class_zero_both_modes(self):
        pair = single_class_pair(seed=5, n_s=4, n_t=3)
        assert np.count_nonzero(build_all(pair).separation) == 0
        for mode in ("literal", "rank_one_sum"):
            for direction in ("source_to_target", "target_to_source"):
                assert np.count_nonzero(build_repulsive(pair, direction, mode)) == 0

    def test_literal_fixture_one_per_class(self):
        # one source and one target point per class, C=2, packed order
        # s0(c0), s1(c1), t0(c0), t1(c1): pairs (c=0,r=1) and (c=1,r=0)
        # write +1 blocks on each participant and -1 on their cross entries
        src = LabeledDomain(np.zeros((1, 2)), np.array([0, 1]), name="source")
        tgt = UnlabeledDomain(np.zeros((1, 2)), pseudo_labels=np.array([0, 1]), name="target")
        pair = DomainPair(src, tgt, class_count=2)
        expect = np.array(
            [
                [1.0, 0.0, 0.0, -1.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0, 1.0],
            ]
        )
        mats = build_all(pair)
        assert_allclose(expand(mats, mats.separation), 2.0 * expect, atol=0)
        for mode in ("literal", "rank_one_sum"):
            # with one point per class the set-once and accumulate readings
            # agree on the cross entries; diagonals differ only for C > 2
            assert_allclose(build_repulsive(pair, "source_to_target", mode), expect, atol=0)

    def test_literal_vs_rank_one_diagonal_multiplicity(self):
        # with C=3 each class meets two counterparts, so the accumulating
        # reading doubles the same-class diagonal blocks while literal
        # writes them once
        src = LabeledDomain(np.zeros((1, 3)), np.array([0, 1, 2]), name="source")
        tgt = UnlabeledDomain(np.zeros((1, 3)), pseudo_labels=np.array([0, 1, 2]), name="target")
        pair = DomainPair(src, tgt, class_count=3)
        lit = build_repulsive(pair, "source_to_target", "literal")
        acc = build_repulsive(pair, "source_to_target", "rank_one_sum")
        assert_allclose(np.diag(acc), 2.0 * np.diag(lit), atol=1e-15)
        off = ~np.eye(6, dtype=bool)
        assert_allclose(acc[off], lit[off], atol=1e-15)

    def test_literal_directions_coincide(self):
        # both directions cover the same ordered (source, target) class
        # pairs, so the printed rule gives one matrix; separation is its double
        for seed in range(6):
            pair = random_pair(seed, class_count=4)
            yt = pair.target.pseudo_labels
            for p in (pair, pair.with_pseudo_labels(np.where(yt == 3, 0, yt))):
                forward = build_repulsive(p, "source_to_target")
                backward = build_repulsive(p, "target_to_source")
                assert forward.tobytes() == backward.tobytes()
                mats = build_all(p)
                assert expand(mats, mats.separation).tobytes() == (forward + backward).tobytes()

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_printed_trace_oracle(self, seed):
        # half the separation table is R; a target class may be missing
        pair = random_pair(seed, class_count=3)
        if seed % 2:
            yt = pair.target.pseudo_labels
            pair = pair.with_pseudo_labels(np.where(yt == 2, 1, yt))
        z = np.random.default_rng(seed + 17).normal(size=(2, pair.n_total))
        mats = build_all(pair)
        got = 0.5 * engine_trace(z, mats, mats.separation)
        assert abs(got - printed_trace_oracle(z, pair)) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_rank_one_sum_trace_oracle(self, seed):
        pair = random_pair(seed, class_count=3)
        rng = np.random.default_rng(seed + 13)
        z = rng.normal(size=(2, pair.n_total))
        for direction in ("source_to_target", "target_to_source"):
            m = build_repulsive(pair, direction, "rank_one_sum")
            got = float(np.trace(z @ m @ z.T))
            assert abs(got - repulsive_trace_oracle(z, pair, direction)) < 1e-10

    def test_rank_one_sum_psd(self):
        m = build_repulsive(random_pair(11), "source_to_target", "rank_one_sum")
        assert np.linalg.eigvalsh(m).min() >= -1e-12

    def test_both_modes_symmetric(self):
        pair = random_pair(12)
        table = build_all(pair).separation
        assert np.array_equal(table, table.T)
        for mode in ("literal", "rank_one_sum"):
            m = build_repulsive(pair, "target_to_source", mode)
            assert np.array_equal(m, m.T)

    def test_bad_direction_and_mode(self):
        # the engine builds one table and takes neither argument; the dense
        # reference keeps its argument checks
        pair = random_pair(0)
        with pytest.raises(ParameterError):
            build_repulsive(pair, "sideways")
        with pytest.raises(ParameterError):
            build_repulsive(pair, "source_to_target", mode="fast")


class TestMasks:
    def test_masks_match_bruteforce(self):
        pair = random_pair(21)
        groups = group_index(pair)
        n_s = pair.n_source
        n = pair.n_total
        c_count = pair.class_count
        ys = pair.source.labels
        yt = pair.target.pseudo_labels

        def label_of(i):
            return ys[i] if i < n_s else yt[i - n_s]

        def cross(i, j):
            return (i < n_s) != (j < n_s)

        for i in range(n):
            assert groups[i] == label_of(i) + (0 if i < n_s else c_count), i
        masks = class_cross_masks(pair)
        for c, mask in masks.items():
            src, tgt = groups == c, groups == c_count + c
            from_groups = np.outer(src, tgt) | np.outer(tgt, src)
            assert np.array_equal(from_groups, mask), c
            for i in range(n):
                for j in range(n):
                    expect = cross(i, j) and label_of(i) == c and label_of(j) == c
                    assert mask[i, j] == expect, (c, i, j)

    def test_cg_sg_partition_cross_block(self):
        # same-class cross pairs are the group pairs (c, C + c); the rest of
        # the cross block is different-class, and together they tile it
        pair = random_pair(22)
        groups = group_index(pair)
        n_s, c_count = pair.n_source, pair.class_count
        same = groups[:n_s, None] == groups[None, n_s:] - c_count
        cg = np.zeros((pair.n_total, pair.n_total), dtype=bool)
        cg[:n_s, n_s:] = same
        cg[n_s:, :n_s] = same.T
        sg = cross_mask(pair) & ~cg
        oracle_cg = np.logical_or.reduce(list(class_cross_masks(pair).values()))
        assert np.array_equal(cg, oracle_cg)
        assert not np.any(cg & sg)
        assert np.array_equal(cg | sg, cross_mask(pair))

    def test_masks_scale_invariant(self):
        pair = random_pair(23)
        src = LabeledDomain(10.0 * pair.source.features, pair.source.labels, name="source")
        tgt = UnlabeledDomain(
            10.0 * pair.target.features, pseudo_labels=pair.target.pseudo_labels, name="target"
        )
        scaled = make_pair(src, tgt)
        assert np.array_equal(group_index(pair), group_index(scaled))


class TestRelabelingCommutes:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_class_permutation_leaves_sums_invariant(self, seed):
        # permuting class identities permutes the per-class terms, so the
        # summed conditional and repulsive matrices cannot change
        pair = random_pair(seed, class_count=3)
        perm = np.array([2, 0, 1])
        src = LabeledDomain(pair.source.features, perm[pair.source.labels], name="source")
        tgt = UnlabeledDomain(
            pair.target.features,
            pseudo_labels=perm[pair.target.pseudo_labels],
            name="target",
        )
        relabeled = make_pair(src, tgt)
        a, b = build_all(pair), build_all(relabeled)
        assert_allclose(expand(a, a.conditional), expand(b, b.conditional), atol=1e-15)
        assert_allclose(expand(a, a.separation), expand(b, b.separation), atol=1e-15)


class TestBuildAll:
    def test_bundles_consistent(self):
        # expanding each table gives the dense per-sample matrix bit for bit,
        # also with a class missing from the target
        pair = random_pair(30)
        collapsed = pair.with_pseudo_labels(np.minimum(pair.target.pseudo_labels, 1))
        for p in (pair, collapsed):
            mats = build_all(p)
            assert np.array_equal(expand(mats, mats.marginal), build_marginal(p))
            assert np.array_equal(expand(mats, mats.conditional), build_conditional(p))
            rep = build_repulsive(p, "source_to_target")
            assert np.array_equal(expand(mats, mats.separation), rep + rep)
            assert set(np.unique(mats.groups)) <= set(range(2 * p.class_count))
            assert mats.marginal.shape == (2 * p.class_count, 2 * p.class_count)
