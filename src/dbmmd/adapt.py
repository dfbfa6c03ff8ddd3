"""Model assembly and the pseudo-label refinement loop.

The zoo is spanned by a base model and a boundary term:

  base      compact term           separation term
  JDA       sum_c M_c              (none)
  CDDA      sum_c M_c              repulsive, both directions
  DGA-DA    as CDDA, but labels come from graph propagation
  MEDA      structural-risk solver over a kernel expansion

  boundary  none | CG (reweight the compact term by the compacting graph)
            | DB (CG plus reweighting the separation term by the
              separation graph). MEDA has no separation term, so MEDA+DB
              is rejected.

The assembled coefficient operator is M0 + compact - separation, held as
the plain model's 2C x 2C group table plus, for a reweighted model, one
cross-domain block D, read from blocks of W made afresh from x whenever
the operator is read (``mmd.MmdOperator``).
Each round projects, re-labels the target, and repeats until the pseudo-labels
stop changing or the iteration cap is reached.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from .classify import accuracy, hard_labels, nn_classify, one_hot, propagate_labels
from .datamodel import AdaptConfig, AdaptationReport, DomainPair, IterationRecord
from .errors import (
    DimensionError,
    NumericError,
    ParameterError,
    StateError,
    UnsupportedModelError,
)
from .graphs import build_affinity, build_laplacian
from .linalg import centering_matrix, gen_eig_smallest, matmul, sign_flips
from .mmd import CrossTerm, MmdOperator, MmdTables, build_all
from .operands import InputOperands

BASE_MODELS = ("JDA", "CDDA", "DGA-DA", "MEDA")
BOUNDARY_TERMS = ("none", "CG", "DB")


@dataclass(frozen=True)
class ModelKind:
    """Base model plus boundary term, e.g. ModelKind("CDDA", "DB")."""

    base: str
    boundary: str = "none"

    def __post_init__(self):
        if self.base not in BASE_MODELS:
            raise UnsupportedModelError(f"unknown base model {self.base!r}")
        if self.boundary not in BOUNDARY_TERMS:
            raise UnsupportedModelError(f"unknown boundary term {self.boundary!r}")
        if self.base == "MEDA" and self.boundary == "DB":
            raise UnsupportedModelError(
                "MEDA has no separation term to reweight; MEDA+DB is not defined"
            )

    @property
    def name(self) -> str:
        return self.base if self.boundary == "none" else f"{self.base}+{self.boundary}"

    @property
    def reweights_separation(self) -> bool:
        """DB on a model with a separation term: the separation graph reweights it."""
        return self.boundary == "DB" and self.base in ("CDDA", "DGA-DA")

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        parts = text.strip().split("+")
        if len(parts) == 1:
            return cls(parts[0], "none")
        if len(parts) == 2:
            return cls(parts[0], parts[1])
        raise UnsupportedModelError(f"cannot parse model name {text!r}")


def assemble_db(mats: MmdTables, affinity, kind: ModelKind) -> MmdOperator:
    """Coefficient operator M0 + compact - separation for one model.

    ``affinity`` is the (n_s, n_t) source-by-target block W of the input
    affinity, read a block at a time (``graphs.CrossAffinity``, or an
    array), or a ``mmd.CrossTerm`` holding it; it is ignored by an
    unreweighted model, and its shape is checked here, since nothing
    reads it before the operator does. The graphs scale only cross-domain
    entries: those of the compact term (CG), or of compact minus
    separation (DB). The two terms never share a cross-domain group pair,
    so the operator's table is the plain model's and the graphs enter
    only through D, which the operator reads from W on each read. Its
    source-by-target scale is the conditional table's on the class
    diagonal, where the separation table is 0, for CG and DB alike; off
    it, DB's is the eta_b g_a of ``mmd.off_class_factors``. A unit
    affinity reproduces the unreweighted model exactly.
    """
    if kind.boundary != "none" and affinity is None:
        raise StateError(f"{kind.name} needs boundary graphs")
    table = mats.marginal + mats.conditional
    if kind.base in ("CDDA", "DGA-DA"):
        table = table - mats.separation
    if kind.boundary == "none":
        return MmdOperator(mats.groups, mats.n_source, table)
    ns, c = mats.n_source, table.shape[0] // 2
    cross = affinity if isinstance(affinity, CrossTerm) else (
        CrossTerm.of(affinity, mats.groups[:ns], c))
    if cross.affinity.shape != (ns, mats.groups.size - ns):
        raise DimensionError(f"cross block shape {cross.affinity.shape} does not match the "
                             f"pair's {(ns, mats.groups.size - ns)}")
    diagonal = mats.conditional[np.arange(c), c + np.arange(c)]
    return MmdOperator(mats.groups, ns, table, cross, diagonal, kind.reweights_separation)


def solve_projection(s: np.ndarray, db: MmdOperator, k: int,
                     lam: float) -> tuple[np.ndarray, tuple[float, ...], float]:
    """Projection from the generalized eigenproblem of the assembled operator.

    s is the (dim, n) data operand: the raw features in primal mode, or in
    kernel mode the reduced operand S_r = diag(w_r) U_r^T of
    ``linalg.kernel_range``, whose pencil is the n x n kernel pencil
    restricted to the numerical range of K (the expansion is U_r A). Solves

        (s M s^T + lam I) a = phi (s H s^T) a

    for the k smallest eigenpairs; the centered right operand, formed as
    (s H) s^T without H, is ridged inside the eigensolver. s M s^T comes
    from the group sums of s (see ``MmdOperator.sandwich``). Returns
    (A, eigenvalues, objective) with A columnwise normalized against the
    ridged right operand and the objective tr(A^T (s M s^T + lam I) A)
    taken from the same left operand.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2:
        raise ParameterError("data operand must be 2-D")
    if not lam > 0.0:
        raise ParameterError(f"lam must be positive, got {lam}")
    n = s.shape[1]
    if db.groups.shape != (n,):
        raise ParameterError(f"operator covers {db.groups.size} samples, not n={n}")
    left = db.sandwich(s)
    left = 0.5 * (left + left.T) + lam * np.eye(s.shape[0])
    right = matmul(centering_matrix(s), s.T)
    right = 0.5 * (right + right.T)
    eigvals, a = gen_eig_smallest(left, right, k)
    objective = float(np.trace(matmul(matmul(a.T, left), a)))
    return a, tuple(eigvals.tolist()), objective


def _data_operand(cfg: AdaptConfig, ops: InputOperands) -> tuple[np.ndarray | None, np.ndarray]:
    """(basis, s): s is the operand the pencil sees; the projection is basis A.

    Primal mode has no basis. Kernel mode solves in the numerical range of
    K, so the right operand is not held together by the ridge alone and a
    projection never points into the null space of K.
    """
    if cfg.kernel == "primal":
        return None, ops.pencil_operand()
    basis, w = ops.kernel_range()
    if cfg.k > w.size:
        raise ParameterError(
            f"k={cfg.k} exceeds the numerical rank r={w.size} of the {cfg.kernel} "
            f"kernel matrix (n={basis.shape[0]}); kernel mode has only r projection directions"
        )
    return basis, ops.pencil_operand()


def _expand(basis: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U_r C, C), with column signs pinned on the expansion U_r C.

    The eigenvectors of K carry arbitrary signs of their own.
    """
    a = matmul(basis, c)
    flip = sign_flips(a)
    return a * flip, c * flip


def _propagated_target_labels(pair: DomainPair, z: np.ndarray, cfg: AdaptConfig) -> np.ndarray:
    """DGA-style labeling: propagate source labels over the embedded graph.

    The graph always uses the median bandwidth of the embedded points; a
    fixed sigma tuned for input space would be meaningless after
    projection.
    """
    ns = pair.n_source
    y0 = np.zeros((pair.n_total, pair.class_count))
    y0[:ns] = one_hot(pair.source.labels, pair.class_count)
    # The kNN graph is held on its edges, built from distances taken a row block at a time.
    lap = build_laplacian(build_affinity(z, None, cfg.neighborhood_p)[0])
    f = propagate_labels(lap, y0, cfg.mu)
    return hard_labels(f[ns:])


def _refine(ops: InputOperands, kind: ModelKind, target_truth, solve,
            t0: float) -> AdaptationReport:
    """The pseudo-label refinement loop both solvers share.

    Each round assembles the operator for the current pseudo-labels and
    passes it to ``solve(p, db)``, which returns (new labels, objective,
    eigenvalues, projection, embedding). The loop stops at the first round
    that changes no label, or after max_iter rounds. Boundary graphs
    always see the cross block of the input affinity.
    """
    pair, cfg = ops.pair, ops.cfg
    cross = None if kind.boundary == "none" else ops.cross_term(kind.reweights_separation)
    truth = None if target_truth is None else np.asarray(target_truth)
    pseudo = ops.initial_labels()
    baseline = None if truth is None else accuracy(pseudo, truth)
    records: list[IterationRecord] = []
    fixed_point = None
    for t in range(1, cfg.max_iter + 1):
        p = pair.with_pseudo_labels(pseudo)
        projection = embedding = None  # the last round's arrays are not kept through a solve
        # D is never held: the operator reads W's blocks from x on each read.
        new, objective, eigvals, projection, embedding = solve(
            p, assemble_db(build_all(p), cross, kind))
        churn = int(np.sum(new != pseudo))
        acc = None if truth is None else accuracy(new, truth)
        records.append(IterationRecord(t, churn, objective, eigvals, new, acc))
        pseudo = new
        if churn == 0:
            fixed_point = t
            break
    return AdaptationReport(
        model=kind.name,
        config=cfg,
        baseline_accuracy=baseline,
        iterations=records,
        predicted_labels=np.asarray(pseudo),
        projection=projection,
        fixed_point_iteration=fixed_point,
        wall_time=time.perf_counter() - t0,
        embedding=embedding,
        kernel_rank=None if cfg.kernel == "primal" else ops.kernel_range()[1].size,
    )


def run_adaptation(pair: DomainPair, cfg: AdaptConfig, kind: ModelKind,
                   target_truth=None, operands: InputOperands | None = None) -> AdaptationReport:
    """Run one model's refinement loop on a pair.

    target_truth, when given, is used only to score each round; it never
    feeds back into the loop. operands, when given, holds the input-space
    operands of this pair and config shared with other cells; without it
    the run builds its own. MEDA variants are dispatched to the
    structural-risk solver, everything else follows the projection loop.
    """
    if kind.base == "MEDA":
        return run_meda_cg(pair, cfg, kind, target_truth, operands)
    t0 = time.perf_counter()
    ops = InputOperands.for_cell(pair, cfg, operands)
    ns = pair.n_source
    basis, s = _data_operand(cfg, ops)

    def solve(p: DomainPair, db: MmdOperator):
        c, eigvals, objective = solve_projection(s, db, cfg.k, cfg.lam)
        a, c = (c, c) if basis is None else _expand(basis, c)
        z = matmul(c.T, s)
        if kind.base == "DGA-DA":
            new = _propagated_target_labels(p, z, cfg)
        else:
            new = nn_classify(z[:, :ns], pair.source.labels, z[:, ns:])
        return new, objective, eigvals, a, z

    return _refine(ops, kind, target_truth, solve, t0)


def _solve_with_escalation(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve g x = rhs, adding a growing jitter to the diagonal while it fails.

    Each attempt factors a fresh Fortran-ordered copy in place; g itself
    is never modified. Adding 0.0 turns a -0.0 into 0.0, as g + jitter I
    does, so every attempt sees the entries that sum would give.
    """
    # the Frobenius norm as np.linalg.norm takes it, from scipy's ddot
    # (which rejects the empty vector of an empty range)
    v = g.ravel(order="K")
    scale = (math.sqrt(blas.ddot(v, v)) if v.size else 0.0) or 1.0
    for jitter in (0.0, 1e-10 * scale, 1e-6 * scale):
        a = np.add(g, 0.0, order="F")
        a[np.diag_indices_from(a)] += jitter
        try:
            out = scipy.linalg.solve(a, rhs, overwrite_a=True)
        except scipy.linalg.LinAlgError:
            continue
        if np.isfinite(out).all():
            return out
    raise NumericError("structural-risk system stayed singular after ridge escalation")


def run_meda_cg(pair: DomainPair, cfg: AdaptConfig, kind: ModelKind,
                target_truth=None, operands: InputOperands | None = None) -> AdaptationReport:
    """MEDA-style structural risk minimization, optionally CG-reweighted.

    Learns f = sum_i beta_i k(x_i, .) from ((E + alpha M + rho L) K + eta I)
    beta = Y, with E the source indicator, M the (possibly CG-reweighted)
    MMD operator, L the normalized kNN Laplacian of the inputs and Y the
    one-hot source labels, zero on the target rows. The scores K beta see K
    only through its numerical range U_r diag(w_r) U_r^T
    (``linalg.kernel_range``). So with A = E + alpha M + rho L and
    A_r = U_r[:ns]^T U_r[:ns] + alpha U_r^T M U_r + rho U_r^T L U_r, each
    round solves the r x r system

        (eta I + diag(w_r) A_r) gamma = diag(w_r) U_r^T Y

    and takes scores = U_r gamma, beta = (Y - A scores) / eta. L enters
    only as L U_r (``InputOperands.range_terms``, shared by the cells of
    one pair and config), so L scores = (L U_r) gamma. The objective
    ||Y_s - scores_s||^2 + eta tr(beta^T K beta) +
    alpha tr(scores^T M scores) + rho tr(scores^T L scores) reuses
    beta^T scores = beta^T K beta, M scores and L scores. Requires a kernel
    config; there is no primal MEDA. operands is as for ``run_adaptation``.
    """
    if kind.base != "MEDA":
        raise UnsupportedModelError(f"run_meda_cg got base model {kind.base!r}")
    if cfg.kernel == "primal":
        raise ParameterError("MEDA needs a kernel; set kernel to linear, rbf, or poly")
    t0 = time.perf_counter()
    ops = InputOperands.for_cell(pair, cfg, operands)
    n, ns, c = pair.n_total, pair.n_source, pair.class_count
    alpha, rho, eta = cfg.meda_alpha, cfg.meda_rho, cfg.meda_eta
    basis, w = ops.kernel_range()
    e_r, l_basis = ops.range_terms()
    l_r = matmul(basis.T, l_basis)
    y = np.zeros((n, c))
    y[:ns] = one_hot(pair.source.labels, c)
    rhs = w[:, None] * matmul(basis[:ns].T, y[:ns])

    def solve(p: DomainPair, db: MmdOperator):
        g = e_r + alpha * db.sandwich(basis.T) + rho * l_r
        g *= w[:, None]
        g[np.diag_indices_from(g)] += eta
        gamma = _solve_with_escalation(g, rhs)
        scores = matmul(basis, gamma)
        m_scores = db.matvec(scores)
        l_scores = matmul(l_basis, gamma)
        a_scores = alpha * m_scores + rho * l_scores
        a_scores[:ns] += scores[:ns]
        beta = (y - a_scores) / eta
        objective = float(
            np.sum((y[:ns] - scores[:ns]) ** 2)
            + eta * np.sum(beta * scores)
            + alpha * np.sum(scores * m_scores)
            + rho * np.sum(scores * l_scores)
        )
        return hard_labels(scores[ns:]), objective, (), beta, scores.T

    return _refine(ops, kind, target_truth, solve, t0)
