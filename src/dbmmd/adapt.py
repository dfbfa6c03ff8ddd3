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
2C x 2C group tables plus one cross-domain graph block (``MmdOperator``).
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
    NumericError,
    ParameterError,
    StateError,
    UnsupportedModelError,
)
from .graphs import BoundaryGraphs, build_affinity, build_graphs, build_laplacian
from .linalg import centering_matrix, gen_eig_smallest, matmul, sign_flips
from .mmd import MmdTables, build_all, group_sums
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

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        parts = text.strip().split("+")
        if len(parts) == 1:
            return cls(parts[0], "none")
        if len(parts) == 2:
            return cls(parts[0], parts[1])
        raise UnsupportedModelError(f"cannot parse model name {text!r}")


@dataclass(frozen=True)
class MmdOperator:
    """M = P B P^T + [[0, D], [D^T, 0]] over the packed order [source | target].

    Within each domain M expands the table ``fixed``. On the cross-domain
    block it is ``fixed + graph * scaled`` entrywise, with ``graph`` the
    (n_s, n_t) boundary-graph block; so B = fixed + scaled and
    D = scaled * (graph - 1) there. Unreweighted models have neither
    ``scaled`` nor ``graph`` and D is None.
    """

    groups: np.ndarray
    n_source: int
    fixed: np.ndarray
    scaled: np.ndarray | None = None
    graph: np.ndarray | None = None

    @property
    def table(self) -> np.ndarray:
        """B: the 2C x 2C table of P B P^T."""
        return self.fixed if self.scaled is None else self.fixed + self.scaled

    def correction(self) -> np.ndarray | None:
        """D, the (n_s, n_t) graph correction, or None without a graph."""
        if self.graph is None:
            return None
        ns = self.n_source
        return self.scaled[self.groups[:ns]][:, self.groups[ns:]] * (self.graph - 1.0)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x for an (n, m) x, from the group sums P^T x and, with a graph, D."""
        sums = group_sums(x.T, self.groups, self.fixed.shape[0]).T
        out = matmul(self.table, sums)[self.groups]
        d = self.correction()
        if d is not None:
            ns = self.n_source
            out[:ns] += matmul(d, x[ns:])
            out[ns:] += matmul(d.T, x[:ns])
        return out

    def sandwich(self, s: np.ndarray) -> np.ndarray:
        """s M s^T from the group sums sP and, with a graph, the D block."""
        sp = group_sums(s, self.groups, self.fixed.shape[0])
        out = matmul(matmul(sp, self.table), sp.T)
        d = self.correction()
        if d is not None:
            ns = self.n_source
            half = matmul(matmul(s[:, :ns], d), s[:, ns:].T)
            out += half + half.T
        return out


def assemble_db(mats: MmdTables, graphs: BoundaryGraphs | None, kind: ModelKind) -> MmdOperator:
    """Coefficient operator M0 + compact - separation for one model.

    The graph scales only cross-domain entries: those of the compact term
    (CG), or of compact minus separation (DB); the two terms never share a
    cross-domain group pair. In spirit mode the within-domain entries pass
    through unchanged, so a unit affinity reproduces the unreweighted
    model exactly. Literal mode multiplies elementwise as printed, which
    zeroes the reweighted terms within each domain.
    """
    if kind.boundary != "none" and graphs is None:
        raise StateError(f"{kind.name} needs boundary graphs")
    sep = None
    if kind.base in ("CDDA", "DGA-DA"):
        sep = mats.repulsive_st + mats.repulsive_ts
    plain = mats.marginal + mats.conditional
    if sep is not None:
        plain = plain - sep
    if kind.boundary == "none":
        return MmdOperator(mats.groups, mats.n_source, plain)
    # On the cross block the graph multiplies ``scaled`` and leaves ``kept``.
    kept, scaled = mats.marginal, mats.conditional
    if sep is not None:
        if kind.boundary == "DB":
            scaled = scaled - sep
        else:
            kept = kept - sep
    within = plain if graphs.mode == "spirit" else kept
    is_target = np.arange(2 * mats.class_count) >= mats.class_count
    cross = is_target[:, None] != is_target[None, :]
    return MmdOperator(
        mats.groups,
        mats.n_source,
        fixed=np.where(cross, kept, within),
        scaled=np.where(cross, scaled, 0.0),
        graph=graphs.weights,
    )


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
        return None, ops.x
    basis, w = ops.kernel_range()
    if cfg.k > w.size:
        raise ParameterError(
            f"k={cfg.k} exceeds the numerical rank r={w.size} of the {cfg.kernel} "
            f"kernel matrix (n={basis.shape[0]}); kernel mode has only r projection directions"
        )
    return basis, w[:, None] * basis.T


def _expand(basis: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U_r C, C), with column signs pinned on the expansion U_r C.

    The eigenvectors of K carry arbitrary signs of their own.
    """
    a = matmul(basis, c)
    flip = sign_flips(a)
    return a * flip, c * flip


def _initial_pseudo(pair: DomainPair) -> np.ndarray:
    if pair.target.pseudo_labels is not None:
        return np.asarray(pair.target.pseudo_labels)
    return nn_classify(pair.source.features, pair.source.labels, pair.target.features)


def _propagated_target_labels(pair: DomainPair, z: np.ndarray, cfg: AdaptConfig) -> np.ndarray:
    """DGA-style labeling: propagate source labels over the embedded graph.

    The graph always uses the median bandwidth of the embedded points; a
    fixed sigma tuned for input space would be meaningless after
    projection.
    """
    ns = pair.n_source
    y0 = np.zeros((pair.n_total, pair.class_count))
    y0[:ns] = one_hot(pair.source.labels, pair.class_count)
    # One (n, n) array carries distances, affinity, L, mu I + L and its factor.
    lap = build_laplacian(build_affinity(z, None, cfg.neighborhood_p))
    f = propagate_labels(lap, y0, cfg.mu, clamp_rows=np.arange(ns))
    return hard_labels(f[ns:])


def _refine(pair: DomainPair, cfg: AdaptConfig, kind: ModelKind, target_truth,
            affinity, solve, t0: float) -> AdaptationReport:
    """The pseudo-label refinement loop both solvers share.

    Each round assembles the operator for the current pseudo-labels and
    passes it to ``solve(p, db)``, which returns (new labels, objective,
    eigenvalues, projection, embedding). The loop stops at the first round
    that changes no label, or after max_iter rounds.
    """
    truth = None if target_truth is None else np.asarray(target_truth)
    pseudo = _initial_pseudo(pair)
    baseline = None if truth is None else accuracy(pseudo, truth)
    records: list[IterationRecord] = []
    fixed_point = None
    for t in range(1, cfg.max_iter + 1):
        p = pair.with_pseudo_labels(pseudo)
        mats = build_all(p, cfg.matrix_mode)
        graphs = None
        if kind.boundary != "none":
            graphs = build_graphs(p, affinity, cfg.graph_mode)
        projection = embedding = None  # the last round's arrays are not kept through a solve
        new, objective, eigvals, projection, embedding = solve(p, assemble_db(mats, graphs, kind))
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
    # Boundary graphs always see the cross block of the dense input affinity.
    affinity = ops.affinity() if kind.boundary != "none" else None

    def solve(p: DomainPair, db: MmdOperator):
        c, eigvals, objective = solve_projection(s, db, cfg.k, cfg.lam)
        a, c = (c, c) if basis is None else _expand(basis, c)
        z = matmul(c.T, s)
        if kind.base == "DGA-DA":
            new = _propagated_target_labels(p, z, cfg)
        else:
            new = nn_classify(z[:, :ns], pair.source.labels, z[:, ns:])
        return new, objective, eigvals, a, z

    return _refine(pair, cfg, kind, target_truth, affinity, solve, t0)


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


def run_meda_cg(pair: DomainPair, cfg: AdaptConfig, kind: ModelKind | None = None,
                target_truth=None, operands: InputOperands | None = None) -> AdaptationReport:
    """MEDA-style structural risk minimization, optionally CG-reweighted.

    Learns f = sum_i beta_i k(x_i, .) from ((E + alpha M + rho L) K + eta I)
    beta = Y, with E the source indicator, M the (possibly CG-reweighted)
    MMD operator, L the normalized kNN Laplacian of the inputs and Y the
    one-hot source labels, zero on the target rows. The scores K beta see K
    only through its numerical range U_r diag(w_r) U_r^T
    (``linalg.kernel_range``). So with A = E + alpha M + rho L and
    A_r = U_r[:ns]^T U_r[:ns] + alpha U_r^T M U_r + rho U_r^T L U_r (the
    first and last shared by the cells of one pair and config), each round
    solves the r x r system

        (eta I + diag(w_r) A_r) gamma = diag(w_r) U_r^T Y

    and takes scores = U_r gamma, beta = (Y - A scores) / eta. The
    objective ||Y_s - scores_s||^2 + eta tr(beta^T K beta) +
    alpha tr(scores^T M scores) + rho tr(scores^T L scores) reuses
    beta^T scores = beta^T K beta, M scores and L scores. Requires a kernel
    config; there is no primal MEDA. operands is as for ``run_adaptation``.
    """
    if kind is None:
        kind = ModelKind("MEDA", "CG")
    if kind.base != "MEDA":
        raise UnsupportedModelError(f"run_meda_cg got base model {kind.base!r}")
    if cfg.kernel == "primal":
        raise ParameterError("MEDA needs a kernel; set kernel to linear, rbf, or poly")
    t0 = time.perf_counter()
    ops = InputOperands.for_cell(pair, cfg, operands)
    n, ns, c = pair.n_total, pair.n_source, pair.class_count
    alpha, rho, eta = cfg.meda_alpha, cfg.meda_rho, cfg.meda_eta
    basis, w = ops.kernel_range()
    e_r, l_r = ops.range_terms()
    lap = ops.laplacian()
    affinity = ops.affinity() if kind.boundary != "none" else None
    y = np.zeros((n, c))
    y[:ns] = one_hot(pair.source.labels, c)
    rhs = w[:, None] * matmul(basis[:ns].T, y[:ns])

    def solve(p: DomainPair, db: MmdOperator):
        g = e_r + alpha * db.sandwich(basis.T) + rho * l_r
        g *= w[:, None]
        g[np.diag_indices_from(g)] += eta
        scores = matmul(basis, _solve_with_escalation(g, rhs))
        m_scores = db.matvec(scores)
        l_scores = matmul(lap, scores)
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

    return _refine(pair, cfg, kind, target_truth, affinity, solve, t0)
