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

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .classify import accuracy, hard_labels, nn_classify, one_hot, propagate_labels
from .datamodel import AdaptConfig, AdaptationReport, DomainPair, IterationRecord
from .errors import (
    BandwidthError,
    NumericError,
    ParameterError,
    StateError,
    UnsupportedModelError,
)
from .graphs import BoundaryGraphs, build_affinity, build_graphs, build_laplacian
from .linalg import (
    centering_matrix,
    gen_eig_smallest,
    kernel_matrix,
    kernel_range,
    median_pairwise_distance,
)
from .mmd import MmdTables, build_all, group_sums

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

    def _scaled_cross(self) -> np.ndarray:
        ns = self.n_source
        return self.scaled[self.groups[:ns]][:, self.groups[ns:]]

    def correction(self) -> np.ndarray | None:
        """D, the (n_s, n_t) graph correction, or None without a graph."""
        if self.graph is None:
            return None
        return self._scaled_cross() * (self.graph - 1.0)

    def dense(self) -> np.ndarray:
        """The (n, n) matrix M, entry for entry as the per-sample builders give it."""
        out = self.fixed[self.groups][:, self.groups]
        if self.graph is not None:
            ns = self.n_source
            cross = out[:ns, ns:] + self.graph * self._scaled_cross()
            out[:ns, ns:] = cross
            out[ns:, :ns] = cross.T
        return out

    def sandwich(self, s: np.ndarray) -> np.ndarray:
        """s M s^T from the group sums sP and, with a graph, the D block."""
        sp = group_sums(s, self.groups, self.fixed.shape[0])
        out = sp @ self.table @ sp.T
        d = self.correction()
        if d is not None:
            ns = self.n_source
            half = s[:, :ns] @ d @ s[:, ns:].T
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


def solve_projection(s: np.ndarray, db: MmdOperator, k: int, lam: float,
                     ridge: float | None = None) -> tuple[np.ndarray, tuple[float, ...], float]:
    """Projection from the generalized eigenproblem of the assembled operator.

    s is the (dim, n) data operand: the raw features in primal mode, or in
    kernel mode the reduced operand S_r = diag(w_r) U_r^T of
    ``linalg.kernel_range``, whose pencil is the n x n kernel pencil
    restricted to the numerical range of K (the expansion is U_r A). Solves

        (s M s^T + lam I) a = phi (s H s^T) a

    for the k smallest eigenpairs; the centered right operand is ridged
    inside the eigensolver. s M s^T comes from the group sums of s (see
    ``MmdOperator.sandwich``). Returns (A, eigenvalues, objective) with A
    columnwise normalized against the ridged right operand and the
    objective tr(A^T (s M s^T + lam I) A) taken from the same left operand.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2:
        raise ParameterError("data operand must be 2-D")
    if not lam > 0.0:
        raise ParameterError(f"lam must be positive, got {lam}")
    n = s.shape[1]
    if db.groups.shape != (n,):
        raise ParameterError(f"operator covers {db.groups.size} samples, not n={n}")
    h = centering_matrix(n)
    left = db.sandwich(s)
    left = 0.5 * (left + left.T) + lam * np.eye(s.shape[0])
    right = s @ h @ s.T
    right = 0.5 * (right + right.T)
    pairs = gen_eig_smallest(left, right, k, ridge)
    a = np.column_stack([p.vector for p in pairs])
    objective = float(np.trace(a.T @ left @ a))
    return a, tuple(p.value for p in pairs), objective


def _resolve_kernel_sigma(cfg: AdaptConfig, x: np.ndarray) -> float | None:
    if cfg.kernel != "rbf":
        return None
    if cfg.sigma_mode == "fixed":
        return cfg.sigma
    sigma = median_pairwise_distance(x)
    if sigma == 0.0:
        raise BandwidthError("all points coincide; median kernel bandwidth is zero")
    return sigma


def _data_operand(cfg: AdaptConfig, x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(basis, s): s is the operand the pencil sees; the projection is basis @ A.

    Primal mode has no basis. Kernel mode factors K once and solves in its
    numerical range, so the right operand is not held together by the ridge
    alone and a projection never points into the null space of K.
    """
    if cfg.kernel == "primal":
        return None, x
    kmat = kernel_matrix(x, cfg.kernel, sigma=_resolve_kernel_sigma(cfg, x), degree=cfg.degree)
    basis, s = kernel_range(kmat)
    if cfg.k > s.shape[0]:
        raise ParameterError(
            f"k={cfg.k} exceeds the numerical rank r={s.shape[0]} of the {cfg.kernel} "
            f"kernel matrix (n={kmat.shape[0]}); kernel mode has only r projection directions"
        )
    return basis, s


def _expand(basis: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U_r C, C) with each column's largest-magnitude entry of U_r C positive.

    The eigenvectors of K carry arbitrary signs; pinning them on the
    expansion keeps the reported projection independent of the LAPACK build.
    """
    a = basis @ c
    flip = np.where(a[np.argmax(np.abs(a), axis=0), np.arange(a.shape[1])] < 0.0, -1.0, 1.0)
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
    # The affinity is dropped as soon as its Laplacian exists, before the solve.
    lap = build_laplacian(build_affinity(z, "median", None, cfg.neighborhood_p), normalized=True)
    y0 = np.zeros((pair.n_total, pair.class_count))
    y0[:ns] = one_hot(pair.source.labels, pair.class_count)
    f = propagate_labels(lap, y0, cfg.mu, clamp_rows=np.arange(ns))
    return hard_labels(f[ns:])


def run_adaptation(pair: DomainPair, cfg: AdaptConfig, kind: ModelKind,
                   target_truth=None) -> AdaptationReport:
    """Run one model's refinement loop on a pair.

    target_truth, when given, is used only to score each round; it never
    feeds back into the loop. MEDA variants are dispatched to the
    structural-risk solver, everything else follows the projection loop.
    """
    if kind.base == "MEDA":
        return run_meda_cg(pair, cfg, kind, target_truth)
    t0 = time.perf_counter()
    truth = None if target_truth is None else np.asarray(target_truth)
    x = pair.packed_features()
    ns = pair.n_source
    basis, s = _data_operand(cfg, x)
    affinity = None
    if kind.boundary != "none":
        # Boundary graphs always see the dense affinity of the input points.
        affinity = build_affinity(x, cfg.sigma_mode, cfg.sigma, 0)
    pseudo = _initial_pseudo(pair)
    baseline = None if truth is None else accuracy(pseudo, truth)
    records: list[IterationRecord] = []
    fixed_point = None
    a = np.zeros((x.shape[0] if basis is None else x.shape[1], cfg.k))
    z = None
    for t in range(1, cfg.max_iter + 1):
        p = pair.with_pseudo_labels(pseudo)
        mats = build_all(p, cfg.matrix_mode)
        graphs = None
        if kind.boundary != "none":
            graphs = build_graphs(p, affinity, cfg.graph_mode)
        db = assemble_db(mats, graphs, kind)
        c, eigvals, objective = solve_projection(s, db, cfg.k, cfg.lam)
        a, c = (c, c) if basis is None else _expand(basis, c)
        z = c.T @ s
        if kind.base == "DGA-DA":
            new = _propagated_target_labels(p, z, cfg)
        else:
            new = nn_classify(z[:, :ns], pair.source.labels, z[:, ns:])
        churn = int(np.sum(new != pseudo))
        acc = None if truth is None else accuracy(new, truth)
        records.append(
            IterationRecord(t, churn, objective, eigvals, new, acc)
        )
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
        projection=a,
        fixed_point_iteration=fixed_point,
        wall_time=time.perf_counter() - t0,
        embedding=z,
    )


def _solve_with_escalation(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    scale = float(np.linalg.norm(g)) or 1.0
    for jitter in (0.0, 1e-10 * scale, 1e-6 * scale):
        try:
            out = scipy.linalg.solve(g + jitter * np.eye(g.shape[0]), rhs)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
            continue
        if np.isfinite(out).all():
            return out
    raise NumericError("structural-risk system stayed singular after ridge escalation")


def run_meda_cg(pair: DomainPair, cfg: AdaptConfig, kind: ModelKind | None = None,
                target_truth=None) -> AdaptationReport:
    """MEDA-style structural risk minimization, optionally CG-reweighted.

    Learns f = sum_i beta_i k(x_i, .) by the closed-form solve

        beta = ((E + alpha M + rho L) K + eta I)^-1 E Y

    with E the source indicator, M the (possibly CG-reweighted) MMD
    coefficient matrix, and L the normalized Laplacian of the input
    neighborhood graph. Requires a kernel config; there is no primal MEDA.
    """
    if kind is None:
        kind = ModelKind("MEDA", "CG")
    if kind.base != "MEDA":
        raise UnsupportedModelError(f"run_meda_cg got base model {kind.base!r}")
    if cfg.kernel == "primal":
        raise ParameterError("MEDA needs a kernel; set kernel to linear, rbf, or poly")
    t0 = time.perf_counter()
    truth = None if target_truth is None else np.asarray(target_truth)
    x = pair.packed_features()
    n, ns, c = pair.n_total, pair.n_source, pair.class_count
    kmat = kernel_matrix(x, cfg.kernel, sigma=_resolve_kernel_sigma(cfg, x), degree=cfg.degree)
    lap = build_laplacian(
        build_affinity(x, cfg.sigma_mode, cfg.sigma, cfg.neighborhood_p), normalized=True
    )
    affinity = None
    if kind.boundary != "none":
        affinity = build_affinity(x, cfg.sigma_mode, cfg.sigma, 0)
    e = np.zeros((n, n))
    e[np.arange(ns), np.arange(ns)] = 1.0
    y = np.zeros((n, c))
    y[:ns] = one_hot(pair.source.labels, c)
    pseudo = _initial_pseudo(pair)
    baseline = None if truth is None else accuracy(pseudo, truth)
    records: list[IterationRecord] = []
    fixed_point = None
    beta = np.zeros((n, c))
    scores = np.zeros((n, c))
    for t in range(1, cfg.max_iter + 1):
        p = pair.with_pseudo_labels(pseudo)
        mats = build_all(p, cfg.matrix_mode)
        graphs = None
        if kind.boundary != "none":
            graphs = build_graphs(p, affinity, cfg.graph_mode)
        m = assemble_db(mats, graphs, kind).dense()
        g = (e + cfg.meda_alpha * m + cfg.meda_rho * lap) @ kmat + cfg.meda_eta * np.eye(n)
        beta = _solve_with_escalation(g, e @ y)
        scores = kmat @ beta
        new = hard_labels(scores[ns:])
        churn = int(np.sum(new != pseudo))
        fit = float(np.sum((y[:ns] - scores[:ns]) ** 2))
        kb = kmat @ beta
        objective = float(
            fit
            + cfg.meda_eta * np.trace(beta.T @ kmat @ beta)
            + cfg.meda_alpha * np.trace(kb.T @ m @ kb)
            + cfg.meda_rho * np.trace(kb.T @ lap @ kb)
        )
        acc = None if truth is None else accuracy(new, truth)
        records.append(IterationRecord(t, churn, objective, (), new, acc))
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
        projection=beta,
        fixed_point_iteration=fixed_point,
        wall_time=time.perf_counter() - t0,
        embedding=scores.T,
    )
