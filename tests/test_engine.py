"""The block-structured MMD operator against the dense n x n reference.

For seeded random pairs (C from 1 to 5, with a class missing from the
target pseudo-labels and the single-class pair among them, plus a pair
whose targets all carry one pseudo-class), every base x boundary model
must hold the dense reference exactly:
its table expands to the plain model's matrix, and a reweighted model's
cross block D, built from the operator's W and group counts
(``dense_reference.boundary_block``), is (G - 1) times the
reweighted part S of the dense terms
(``dense_reference.dense_boundary_block``): bit for bit on the
class-diagonal blocks, and equal elsewhere, where the dense CG block holds
signed zeros. Under CG the blocks the operator reads D from are the dense
class-diagonal blocks bit for bit. Its left operand s M s^T must match
the dense products for primal and kernel data operands, each read from
an operator whose ``mmd.CrossTerm`` holds T for that operand, and its
product M x for a block of vectors, except under CDDA+DB and DGA-DA+DB,
whose operators do not define it.
"""
from __future__ import annotations

import numpy as np
import pytest

from dbmmd.adapt import BASE_MODELS, BOUNDARY_TERMS, ModelKind, assemble_db
from dbmmd.datamodel import DomainPair, LabeledDomain, UnlabeledDomain
from dbmmd.linalg import kernel_matrix
from dbmmd.mmd import build_all

from dense_reference import (boundary_block, class_diagonal, cross_block, cross_term,
                             dense_assemble_db, dense_boundary_block, dense_build_affinity,
                             dense_build_all, dense_build_graphs)

KINDS = [
    ModelKind(base, boundary)
    for base in BASE_MODELS
    for boundary in BOUNDARY_TERMS
    if not (base == "MEDA" and boundary == "DB")
]


def random_pair(seed: int) -> DomainPair:
    """C in 1..5; every third seed leaves the last class out of the target."""
    rng = np.random.default_rng(seed)
    c = 1 + seed % 5
    ns = int(rng.integers(c, 14))
    nt = int(rng.integers(2, 14))
    ys = np.concatenate([np.arange(c), rng.integers(0, c, ns - c)])
    target_classes = c - 1 if seed % 3 == 0 and c > 1 else c
    yt = rng.integers(0, target_classes, nt)
    src = LabeledDomain(rng.normal(size=(3, ns)), ys, name="source")
    tgt = UnlabeledDomain(rng.normal(size=(3, nt)), pseudo_labels=yt, name="target")
    return DomainPair(src, tgt, class_count=c)


def one_pseudo_class_pair(seed: int) -> DomainPair:
    """C = 3 with every target pseudo-labeled 1: one class-diagonal block spans the target."""
    rng = np.random.default_rng(seed)
    src = LabeledDomain(rng.normal(size=(3, 40)), np.arange(40) % 3, name="source")
    tgt = UnlabeledDomain(rng.normal(size=(3, 30)), pseudo_labels=np.ones(30, dtype=int),
                          name="target")
    return DomainPair(src, tgt, class_count=3)


@pytest.mark.parametrize("seed", range(15))
def test_operator_matches_dense_reference(seed):
    assert_matches_dense_reference(random_pair(seed), seed)


def test_operator_matches_dense_reference_with_one_pseudo_class():
    assert_matches_dense_reference(one_pseudo_class_pair(20), 20)


def assert_matches_dense_reference(pair: DomainPair, seed: int):
    x = pair.packed_features()
    operands = {"primal": x, "kernel": kernel_matrix(x, "rbf", sigma=1.5)}
    vectors = np.random.default_rng(100 + seed).normal(size=(pair.n_total, 3))
    aff = dense_build_affinity(x)
    mats = build_all(pair)
    dense_mats = dense_build_all(pair)
    cross = cross_block(pair, aff)
    terms = {name: cross_term(pair, cross, s) for name, s in operands.items()}
    dense_graphs = dense_build_graphs(pair, aff)
    for kind in KINDS:
        reweighted = kind.boundary != "none"
        operators = {name: assemble_db(mats, term if reweighted else None, kind)
                     for name, term in terms.items()}
        op = operators["primal"]
        want = dense_assemble_db(dense_mats, dense_graphs if reweighted else None, kind)
        case = (seed, kind.name)
        plain = dense_assemble_db(dense_mats, None, ModelKind(kind.base))
        table = op.table[op.groups][:, op.groups]
        assert table.tobytes() == plain.tobytes(), case
        if reweighted:
            want_d, got_d = dense_boundary_block(pair, aff, kind), boundary_block(op)
            same = class_diagonal(op)
            assert got_d[same].tobytes() == want_d[same].tobytes(), case
            assert np.array_equal(got_d, want_d), case
            if not op.repulsive:
                for at, cols, d in op._class_blocks():
                    assert d.tobytes() == want_d[np.ix_(at, cols)].tobytes(), case
        else:
            assert boundary_block(op) is None, case
        for name, s in operands.items():
            got, ref = operators[name].sandwich(s), s @ want @ s.T
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (case, name)
        if not op.repulsive:
            got, ref = op.matvec(vectors), want @ vectors
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (case, "matvec")


def test_cases_cover_missing_class_and_single_class():
    pairs = [random_pair(seed) for seed in range(15)]
    assert {p.class_count for p in pairs} == {1, 2, 3, 4, 5}
    assert any(
        len(np.unique(p.target.pseudo_labels)) < p.class_count for p in pairs if p.class_count > 1
    )
