"""Dense n x n reference builders, kept only as test oracles.

These are the original per-sample constructions of the MMD matrices, the
class masks, the boundary graphs and the assembled coefficient matrix.
The library now holds every term as a 2C x 2C table over the (domain,
pseudo-class) groups; the tests check that expanding the engine's
operator reproduces these matrices exactly.

The neighborhood-graph oracles below are the original out-of-place
distance, median, affinity, Laplacian and propagation code: a second
distance pass for the median, a copy of the whole upper triangle for its
partition, a stable argsort per row for the kNN graph, and the explicit
identity in the propagation system. The library computes the same values
in one distance pass and in place, through one (n, n) buffer; the tests
require them equal bit for bit. ``dense_centering_matrix`` is the
explicit n x n H, which the library never forms.

``dense_operator`` expands the engine's MMD operator to the (n, n) matrix
M entry for entry; the tests compare it with the per-sample builders and
use it wherever a test needs M itself.

The MEDA oracles are the original assembly of the structural-risk system
over the full K, a dense 0/1 source indicator E and identity, and its
solve on g + jitter I. The library solves the same system in the
numerical range of K as an r x r one; the tests require the same labels
and churns, and objectives within 1e-12 relative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from dbmmd.datamodel import DomainPair
from dbmmd.errors import ParameterError, StateError
from dbmmd.graphs import GRAPH_MODES, W_FLOOR, AffinityMatrix
from dbmmd.linalg import matmul

DIRECTIONS = ("source_to_target", "target_to_source")


def _require_pseudo(pair: DomainPair) -> np.ndarray:
    if pair.target.pseudo_labels is None:
        raise StateError("target pseudo-labels required; classify the target first")
    return pair.target.pseudo_labels


def build_marginal(pair: DomainPair) -> np.ndarray:
    """Rank-one marginal MMD matrix e e^T, e = [1/n_s .. | -1/n_t ..]."""
    ns, nt = pair.n_source, pair.n_target
    e = np.concatenate([np.full(ns, 1.0 / ns), np.full(nt, -1.0 / nt)])
    return np.outer(e, e)


def build_conditional(pair: DomainPair) -> np.ndarray:
    """Sum over classes of the per-class MMD matrices."""
    pseudo = _require_pseudo(pair)
    ns, n = pair.n_source, pair.n_total
    m = np.zeros((n, n))
    for c in range(pair.class_count):
        s_idx = np.flatnonzero(pair.source.labels == c)
        t_idx = np.flatnonzero(pseudo == c)
        if s_idx.size == 0 or t_idx.size == 0:
            continue
        e = np.zeros(n)
        e[s_idx] = 1.0 / s_idx.size
        e[ns + t_idx] = -1.0 / t_idx.size
        m += np.outer(e, e)
    return m


def build_repulsive(pair: DomainPair, direction: str, mode: str = "literal") -> np.ndarray:
    """Cross-class repulsive MMD matrix for one direction."""
    if direction not in DIRECTIONS:
        raise ParameterError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if mode not in ("literal", "rank_one_sum"):
        raise ParameterError(f"mode must be 'literal' or 'rank_one_sum', got {mode!r}")
    pseudo = _require_pseudo(pair)
    ns, n = pair.n_source, pair.n_total
    src_of = [np.flatnonzero(pair.source.labels == c) for c in range(pair.class_count)]
    tgt_of = [ns + np.flatnonzero(pseudo == c) for c in range(pair.class_count)]
    if direction == "source_to_target":
        lead, trail = src_of, tgt_of
        lead_n, trail_n = pair.source_class_counts(), pair.target_class_counts()
    else:
        lead, trail = tgt_of, src_of
        lead_n, trail_n = pair.target_class_counts(), pair.source_class_counts()
    m = np.zeros((n, n))
    for c in range(pair.class_count):
        if lead_n[c] == 0:
            continue
        for r in range(pair.class_count):
            if r == c or trail_n[r] == 0:
                continue
            if mode == "rank_one_sum":
                e = np.zeros(n)
                e[lead[c]] = 1.0 / lead_n[c]
                e[trail[r]] = -1.0 / trail_n[r]
                m += np.outer(e, e)
            else:
                m[np.ix_(lead[c], lead[c])] = 1.0 / (lead_n[c] * lead_n[c])
                m[np.ix_(trail[r], trail[r])] = 1.0 / (trail_n[r] * trail_n[r])
                cross = -1.0 / (lead_n[c] * trail_n[r])
                m[np.ix_(lead[c], trail[r])] = cross
                m[np.ix_(trail[r], lead[c])] = cross
    return m


def class_cross_masks(pair: DomainPair) -> dict[int, np.ndarray]:
    """Boolean (n, n) mask per class of the cross-domain same-class positions."""
    pseudo = _require_pseudo(pair)
    ns, n = pair.n_source, pair.n_total
    masks: dict[int, np.ndarray] = {}
    for c in range(pair.class_count):
        s = np.zeros(n, dtype=bool)
        t = np.zeros(n, dtype=bool)
        s[np.flatnonzero(pair.source.labels == c)] = True
        t[ns + np.flatnonzero(pseudo == c)] = True
        masks[c] = np.outer(s, t) | np.outer(t, s)
    return masks


def cross_mask(pair: DomainPair) -> np.ndarray:
    """Boolean (n, n) mask of every cross-domain position."""
    is_src = np.zeros(pair.n_total, dtype=bool)
    is_src[: pair.n_source] = True
    return np.outer(is_src, ~is_src) | np.outer(~is_src, is_src)


@dataclass(frozen=True)
class DenseMatrices:
    marginal: np.ndarray
    conditional: np.ndarray
    repulsive_st: np.ndarray
    repulsive_ts: np.ndarray


def dense_build_all(pair: DomainPair, mode: str = "literal") -> DenseMatrices:
    return DenseMatrices(
        marginal=build_marginal(pair),
        conditional=build_conditional(pair),
        repulsive_st=build_repulsive(pair, "source_to_target", mode),
        repulsive_ts=build_repulsive(pair, "target_to_source", mode),
    )


@dataclass(frozen=True)
class DenseGraphs:
    g_cg: np.ndarray
    g_sg: np.ndarray
    mode: str
    cg_mask: np.ndarray
    sg_mask: np.ndarray


def dense_build_graphs(pair: DomainPair, affinity: AffinityMatrix,
                       mode: str = "spirit") -> DenseGraphs:
    """CG/SG reweighting values on their (n, n) masks, zero elsewhere."""
    if mode not in GRAPH_MODES:
        raise ParameterError(f"mode must be one of {GRAPH_MODES}, got {mode!r}")
    w = affinity.entries
    cg = np.zeros((pair.n_total, pair.n_total), dtype=bool)
    for m in class_cross_masks(pair).values():
        cg |= m
    sg = cross_mask(pair) & ~cg
    inv_w = 1.0 / np.maximum(w, W_FLOOR)
    if mode == "literal":
        g_cg = np.where(cg, -inv_w, 0.0)
        g_sg = np.where(sg, -inv_w, 0.0)
    else:
        g_cg = np.where(cg, inv_w, 0.0)
        g_sg = np.where(sg, w, 0.0)
    return DenseGraphs(g_cg, g_sg, mode, cg, sg)


def _reweight(m: np.ndarray, g: np.ndarray, mask: np.ndarray, mode: str) -> np.ndarray:
    if mode == "literal":
        # Faithful elementwise product; off-mask entries vanish with the graph.
        return g * m
    out = m.copy()
    out[mask] = g[mask] * m[mask]
    return out


def dense_assemble_db(mats: DenseMatrices, graphs: DenseGraphs | None, kind) -> np.ndarray:
    """Full (n, n) coefficient matrix M0 + compact - separation for one model."""
    if kind.boundary != "none" and graphs is None:
        raise StateError(f"{kind.name} needs boundary graphs")
    compact = mats.conditional
    if kind.boundary in ("CG", "DB"):
        compact = _reweight(compact, graphs.g_cg, graphs.cg_mask, graphs.mode)
    out = mats.marginal + compact
    if kind.base in ("CDDA", "DGA-DA"):
        rep = mats.repulsive_st + mats.repulsive_ts
        if kind.boundary == "DB":
            rep = _reweight(rep, graphs.g_sg, graphs.sg_mask, graphs.mode)
        out = out - rep
    return out


def dense_operator(op) -> np.ndarray:
    """The (n, n) matrix M of an ``adapt.MmdOperator``, entry for entry.

    Equal to the per-sample builders' M: the table expanded over the
    group index, plus the graph-scaled part on the cross-domain block.
    """
    out = op.fixed[op.groups][:, op.groups]
    if op.graph is not None:
        ns = op.n_source
        scaled = op.scaled[op.groups[:ns]][:, op.groups[ns:]]
        cross = out[:ns, ns:] + op.graph * scaled
        out[:ns, ns:] = cross
        out[ns:, :ns] = cross.T
    return out


def cross_block(pair: DomainPair, affinity: AffinityMatrix) -> np.ndarray:
    """The (n_s, n_t) source-by-target block of a dense affinity, the boundary graphs' input."""
    ns = pair.n_source
    return affinity.entries[:ns, ns:]


def dense_centering_matrix(n: int) -> np.ndarray:
    """H = I - (1/n) 11^T, the centering matrix as an explicit n x n array."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def dense_pairwise_sq_dists(x) -> np.ndarray:
    """Squared distances between the columns of x, as one out-of-place expression.

    The Gram matrix is the library's own product: these bytes check the
    arithmetic around it, not the BLAS build under it.
    """
    x = np.asarray(x, dtype=float)
    g = matmul(x.T, x)
    sq = np.diag(g).copy()
    d = sq[:, None] + sq[None, :] - 2.0 * g
    np.maximum(d, 0.0, out=d)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def dense_median_pairwise_distance(d2: np.ndarray) -> float:
    """np.median of the square roots of the positive upper-triangle entries."""
    vals = d2[np.triu_indices_from(d2, k=1)]
    vals = vals[vals > 0.0]
    if vals.size == 0:
        return 0.0
    return float(np.median(np.sqrt(vals)))


def dense_knn_keep(d2: np.ndarray, p: int) -> np.ndarray:
    """Row j marks the first p of a stable argsort of row j, j itself skipped."""
    n = d2.shape[0]
    keep = np.zeros((n, n), dtype=bool)
    order = np.argsort(d2, axis=1, kind="stable")
    for j in range(n):
        neigh = order[j][order[j] != j][:p]
        keep[j, neigh] = True
    return keep


def dense_build_affinity(x, sigma: float | None = None, neighborhood_p: int = 0) -> AffinityMatrix:
    """The Gaussian (kNN) affinity with the median from a second distance pass."""
    d2 = dense_pairwise_sq_dists(x)
    n = d2.shape[0]
    if sigma is None:
        sigma = dense_median_pairwise_distance(dense_pairwise_sq_dists(x))
    p = int(neighborhood_p)
    w = np.exp(d2 / (-2.0 * sigma * sigma))
    if 0 < p < n - 1:
        keep = dense_knn_keep(d2, p)
        keep |= keep.T
        w = np.where(keep, w, 0.0)
    np.fill_diagonal(w, 0.0)
    w = 0.5 * (w + w.T)
    return AffinityMatrix(w, float(sigma), p)


def dense_build_laplacian(affinity: AffinityMatrix) -> np.ndarray:
    """np.diag(deg) - W scaled by D^-1/2 on both sides, then symmetrized."""
    w = affinity.entries
    deg = w.sum(axis=1)
    lap = np.diag(deg) - w
    d = np.where(deg > 0.0, deg, W_FLOOR)
    inv_sqrt = 1.0 / np.sqrt(d)
    lap = lap * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (lap + lap.T)


def dense_propagate_labels(laplacian, y0, mu: float, clamp_rows=None) -> np.ndarray:
    """Propagation solved on mu * eye(n) + L, rows renormalized, clamp rows reset."""
    lap = np.asarray(laplacian, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    n = lap.shape[0]
    f = scipy.linalg.solve(mu * np.eye(n) + lap, mu * y0, assume_a="pos")
    sums = f.sum(axis=1)
    pos = sums > 0.0
    f[pos] = f[pos] / sums[pos, None]
    if clamp_rows is not None:
        f[clamp_rows] = y0[clamp_rows]
    return f


def dense_meda_system(m, lap, kmat, ns: int, alpha: float, rho: float,
                      eta: float) -> np.ndarray:
    """(E + alpha M + rho L) K + eta I with E the dense 0/1 source indicator."""
    n = m.shape[0]
    e = np.zeros((n, n))
    e[np.arange(ns), np.arange(ns)] = 1.0
    return (e + alpha * m + rho * lap) @ kmat + eta * np.eye(n)


def dense_meda_solve(g, rhs, jitter: float = 0.0) -> np.ndarray:
    """One attempt of the ridge escalation: solve on g + jitter * eye(n)."""
    return scipy.linalg.solve(g + jitter * np.eye(g.shape[0]), rhs)
