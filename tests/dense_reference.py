"""Dense n x n reference builders, kept only as test oracles.

These are the original per-sample constructions of the MMD matrices, the
class masks, the boundary graphs and the assembled coefficient matrix.
The library now holds every term as a 2C x 2C table over the (domain,
pseudo-class) groups plus one cross-domain block; the tests check that
the engine's table and block reproduce these matrices exactly.

The neighborhood-graph oracles below are the original out-of-place
distance, median, affinity and Laplacian code: an (n, n) distance array,
a second one for the median, a copy of the whole upper triangle for its
partition, and a stable argsort per row for the kNN graph, with the
affinity and its Laplacian as (n, n) arrays (``DenseAffinity``). Their
Gram products are the library's own, taken by the same row blocks
(``dense_distance_rows``). The library computes the distances a row
block at a time, never holding them whole, and holds the affinity and
the Laplacian as edge lists (``graphs.EdgeGraph``). The tests require
the distances, the median and the edge weights equal to these bit for
bit, and the edge Laplacian within 1e-13 relative: its degrees are
summed over the edges, in another order than a row sum. The propagation oracle
is the dense solve on mu * eye(n) + L. The library solves that system
in band form over the graph's edges, in another order of operations, so
the tests hold it to ``propagation_tolerance``; ``edge_graph`` hands a
dense matrix to it. ``dense_centering_matrix`` is the
explicit n x n H, which the library never forms.

``dense_operator`` expands the engine's MMD operator to the (n, n) matrix
M entry for entry; the tests use it wherever a test needs M itself.
``dense_boundary_block`` is the cross block D a reweighted operator must
hold, from the per-sample terms; ``boundary_block`` builds the operator's
D from its W and groups, with the class-diagonal scale taken here from
the group counts (``class_diagonal_scale``), never through the
operator's own reads or scales, so checking those reads against it is
not circular. The two agree entry for entry, the class-diagonal blocks
bit for bit (``class_diagonal``). ``cross_term`` wraps a W, an array or
a ``graphs.CrossAffinity``, in the ``mmd.CrossTerm`` that
``adapt.assemble_db`` takes, with T for a given operand.

``dense_kernel`` builds the (n, n) K that the library reads only through
``linalg.kernel_range``, and ``dense_kernel_range`` is the full
eigendecomposition of K that ``kernel_range`` falls back to when its
randomized sketch saturates; elsewhere the tests hold the sketch to its
accuracy. ``dense_matrix`` scatters an edge list into its (n, n) matrix,
and ``dense_panel_product`` multiplies that matrix by the row panels
``EdgeGraph.times`` uses.

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
from dbmmd.errors import BandwidthError, ParameterError, StateError
from dbmmd.graphs import W_FLOOR, EdgeGraph
from dbmmd.linalg import _row_blocks, _row_panels, kernel_matrix, matmul, median_pairwise_distance
from dbmmd.mmd import CrossTerm

DIRECTIONS = ("source_to_target", "target_to_source")


@dataclass(frozen=True)
class DenseAffinity:
    """Symmetric nonnegative weights with a zero diagonal, as one (n, n) array."""

    entries: np.ndarray
    sigma: float


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
    """Cross-class repulsive MMD matrix for one direction.

    "literal" writes the printed entries once per class pair, the reading
    the engine builds (both directions give the same matrix). "rank_one_sum"
    accumulates sum_{c != r} e e^T, which counts the same-class diagonal
    blocks once per counterpart class and satisfies the mean-difference
    trace identity of each direction.
    """
    if direction not in DIRECTIONS:
        raise ParameterError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if mode not in ("literal", "rank_one_sum"):
        raise ParameterError(f"mode must be 'literal' or 'rank_one_sum', got {mode!r}")
    pseudo = _require_pseudo(pair)
    ns, n = pair.n_source, pair.n_total
    src_of = [np.flatnonzero(pair.source.labels == c) for c in range(pair.class_count)]
    tgt_of = [ns + np.flatnonzero(pseudo == c) for c in range(pair.class_count)]
    src_n = np.bincount(pair.source.labels, minlength=pair.class_count)
    tgt_n = np.bincount(pseudo, minlength=pair.class_count)
    if direction == "source_to_target":
        lead, trail, lead_n, trail_n = src_of, tgt_of, src_n, tgt_n
    else:
        lead, trail, lead_n, trail_n = tgt_of, src_of, tgt_n, src_n
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


def dense_build_all(pair: DomainPair) -> DenseMatrices:
    return DenseMatrices(
        marginal=build_marginal(pair),
        conditional=build_conditional(pair),
        repulsive_st=build_repulsive(pair, "source_to_target"),
        repulsive_ts=build_repulsive(pair, "target_to_source"),
    )


@dataclass(frozen=True)
class DenseGraphs:
    g_cg: np.ndarray
    g_sg: np.ndarray
    cg_mask: np.ndarray
    sg_mask: np.ndarray


def dense_build_graphs(pair: DomainPair, affinity: DenseAffinity) -> DenseGraphs:
    """CG/SG reweighting values on their (n, n) masks, zero elsewhere."""
    w = affinity.entries
    cg = np.zeros((pair.n_total, pair.n_total), dtype=bool)
    for m in class_cross_masks(pair).values():
        cg |= m
    sg = cross_mask(pair) & ~cg
    g_cg = np.where(cg, 1.0 / np.maximum(w, W_FLOOR), 0.0)
    g_sg = np.where(sg, w, 0.0)
    return DenseGraphs(g_cg, g_sg, cg, sg)


def _reweight(m: np.ndarray, g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = m.copy()
    out[mask] = g[mask] * m[mask]
    return out


def dense_assemble_db(mats: DenseMatrices, graphs: DenseGraphs | None, kind) -> np.ndarray:
    """Full (n, n) coefficient matrix M0 + compact - separation for one model."""
    if kind.boundary != "none" and graphs is None:
        raise StateError(f"{kind.name} needs boundary graphs")
    compact = mats.conditional
    if kind.boundary in ("CG", "DB"):
        compact = _reweight(compact, graphs.g_cg, graphs.cg_mask)
    out = mats.marginal + compact
    if kind.base in ("CDDA", "DGA-DA"):
        rep = mats.repulsive_st + mats.repulsive_ts
        if kind.boundary == "DB":
            rep = _reweight(rep, graphs.g_sg, graphs.sg_mask)
        out = out - rep
    return out


def dense_boundary_block(pair: DomainPair, affinity: DenseAffinity, kind) -> np.ndarray:
    """(G - 1) * S_x: the cross block D a reweighted operator adds to the plain table.

    G is the dense CG + SG reweights and S the reweighted part of the
    per-sample terms (the compact term, minus the separation term for
    CDDA+DB and DGA-DA+DB), both cut to the (n_s, n_t) cross block.
    """
    ns = pair.n_source
    graphs = dense_build_graphs(pair, affinity)
    mats = dense_build_all(pair)
    scaled = mats.conditional
    if kind.boundary == "DB" and kind.base in ("CDDA", "DGA-DA"):
        scaled = scaled - (mats.repulsive_st + mats.repulsive_ts)
    return ((graphs.g_cg + graphs.g_sg)[:ns, ns:] - 1.0) * scaled[:ns, ns:]


def class_diagonal_scale(op) -> np.ndarray:
    """S_x[b, b] = (1/n_s^b) (-1/n_t^b) per class b from an operator's group counts.

    The per-sample conditional term's entry for a source row and a target
    column of class b; 0 for a class missing on either side.
    """
    c = op.table.shape[0] // 2
    counts = np.bincount(op.groups, minlength=2 * c)
    ns, nt = counts[:c], counts[c:]
    both = (ns > 0) & (nt > 0)
    scale = np.zeros(c)
    scale[both] = (1.0 / ns[both]) * (-1.0 / nt[both])
    return scale


def boundary_block(op) -> np.ndarray | None:
    """The (n_s, n_t) D of an ``mmd.MmdOperator``, built here; None unreweighted.

    The operator never holds D, so it is built from what the operator
    holds: its W (``stacked_rows``) and its groups, never through its own
    reads. Same-class pairs take (1/max(W, W_FLOOR) - 1) S_x[b, b], in
    ``graphs.build_graphs``' order of operations, with S_x[b, b] from the
    group counts (``class_diagonal_scale``). Off the class diagonal, CG's
    D is 0 and DB's is (W - 1) times the negated separation entry
    2/(n_s^a n_t^b) of the per-sample terms. So every entry equals
    ``dense_boundary_block``'s, the class-diagonal ones bit for bit; off
    it, the dense CG block holds (W - 1) * 0, a -0.0 where W < 1.
    """
    if op.cross is None:
        return None
    ns, c = op.n_source, op.table.shape[0] // 2
    source, target = op.groups[:ns], op.groups[ns:] - c
    w = stacked_rows(op.cross.affinity)
    same = source[:, None] == target
    scale = class_diagonal_scale(op)
    d = np.where(same, (1.0 / np.maximum(w, W_FLOOR) - 1.0) * scale[source][:, None], 0.0)
    if op.repulsive:
        pairs = np.outer(np.bincount(source, minlength=c), np.bincount(target, minlength=c))
        d[~same] = ((w - 1.0) * (2.0 / pairs[source][:, target]))[~same]
    return d


def class_diagonal(op) -> np.ndarray:
    """(n_s, n_t) mask of the pairs whose source class is the target's pseudo-class."""
    c = op.table.shape[0] // 2
    return op.groups[:op.n_source, None] == op.groups[op.n_source:] - c


def dense_operator(op) -> np.ndarray:
    """The (n, n) matrix M of an ``mmd.MmdOperator``, entry for entry.

    The table expanded over the group index, plus the D block on the
    cross-domain block, built from what the operator holds (``boundary_block``).
    Unreweighted, it equals the per-sample builders' M exactly;
    reweighted, table + D can differ from their m + G * c - s in the last
    bits, so the tests compare the table and D with the per-sample terms
    separately.
    """
    out = op.table[op.groups][:, op.groups]
    d = boundary_block(op)
    if d is not None:
        ns = op.n_source
        out[:ns, ns:] += d
        out[ns:, :ns] += d.T
    return out


def stacked_rows(affinity) -> np.ndarray:
    """The (n_s, n_t) W that ``affinity[rows]`` reads, stacked from blocks of
    source rows of about _BLOCK entries each (``linalg._row_blocks``)."""
    return np.concatenate([affinity[rows] for rows in _row_blocks(*affinity.shape)])


def cross_block(pair: DomainPair, affinity: DenseAffinity) -> np.ndarray:
    """The (n_s, n_t) source-by-target block of a dense affinity, the boundary graphs' input."""
    ns = pair.n_source
    return affinity.entries[:ns, ns:]


def cross_term(pair: DomainPair, w, operand: np.ndarray | None = None) -> CrossTerm:
    """The ``mmd.CrossTerm`` of the cross block w of a pair, with T for ``operand`` if given.

    A DB operator on the term reads T, so it is read only with ``operand``.
    """
    term = CrossTerm.of(w, pair.source.labels, pair.class_count)
    return term if operand is None else term.with_operand(operand)


def dense_centering_matrix(n: int) -> np.ndarray:
    """H = I - (1/n) 11^T, the centering matrix as an explicit n x n array."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def dense_pairwise_sq_dists(x, y) -> np.ndarray:
    """Squared distances between the columns of x and y, as one out-of-place expression.

    The Gram matrix is the library's own product: these bytes check the
    arithmetic around it, not the BLAS build under it. A column's squared
    norm sums its squares in row order, whatever the layout of x or y.
    Entries below the rounding bound 2 gamma_d (|x_i|^2 + |y_j|^2) are 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = matmul(x.T, y)
    s = sum(r * r for r in x)[:, None] + sum(r * r for r in y)[None, :]
    d = s - 2.0 * g
    eps = np.finfo(float).eps
    dim = x.shape[0]
    d[d < 2.0 * dim * eps / (1.0 - dim * eps) * s] = 0.0
    return d


def dense_distance_rows(x) -> np.ndarray:
    """The (n, n) squared distances that the library's blocked passes over x see.

    Per row block of ``linalg._row_blocks``, rows lo..: the cross-form
    distances to the columns lo.. (the products every pass takes), with
    those to the columns before lo in front (the kNN pass's own). Rows
    are not symmetrized.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    blocks = []
    for rows in _row_blocks(n, n):
        lo = rows.start
        upper = dense_pairwise_sq_dists(x[:, rows], x[:, lo:])
        blocks.append(np.hstack([dense_pairwise_sq_dists(x[:, rows], x[:, :lo]), upper])
                      if lo else upper)
    return np.concatenate(blocks)


def dense_median_pairwise_distance(d2: np.ndarray) -> float:
    """np.median of the square roots of the positive upper-triangle entries."""
    vals = d2[np.triu_indices_from(d2, k=1)]
    vals = vals[vals > 0.0]
    if vals.size == 0:
        raise BandwidthError("all points coincide; median bandwidth is zero")
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


def dense_build_affinity(x, sigma: float | None = None, neighborhood_p: int = 0) -> DenseAffinity:
    """The Gaussian (kNN) affinity with the median from a second distance pass.

    Row j's neighbors come from row j of the distances. A pair chosen from
    both ends takes its weight from the row of its lower index, a pair
    chosen from one end from that end's row.
    """
    d2 = dense_distance_rows(x)
    n = d2.shape[0]
    if sigma is None:
        sigma = dense_median_pairwise_distance(dense_distance_rows(x))
    p = int(neighborhood_p)
    w = np.exp(d2 / (-2.0 * sigma * sigma))
    keep = dense_knn_keep(d2, p) if 0 < p < n - 1 else np.ones((n, n), dtype=bool)
    upper = np.triu(np.where(keep, w, np.where(keep.T, w.T, 0.0)), 1)
    return DenseAffinity(upper + upper.T, float(sigma))


def dense_build_laplacian(affinity: DenseAffinity) -> np.ndarray:
    """np.diag(deg) - W scaled by D^-1/2 on both sides, then symmetrized."""
    w = affinity.entries
    deg = w.sum(axis=1)
    lap = np.diag(deg) - w
    d = np.where(deg > 0.0, deg, W_FLOOR)
    inv_sqrt = 1.0 / np.sqrt(d)
    lap = lap * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (lap + lap.T)


def dense_propagate_labels(laplacian, y0, mu: float) -> np.ndarray:
    """Propagation solved on mu * eye(n) + L, rows renormalized."""
    lap = np.asarray(laplacian, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    n = lap.shape[0]
    f = scipy.linalg.solve(mu * np.eye(n) + lap, mu * y0, assume_a="pos")
    sums = f.sum(axis=1)
    pos = sums > 0.0
    f[pos] = f[pos] / sums[pos, None]
    return f


def dense_matrix(graph: EdgeGraph) -> np.ndarray:
    """The (n, n) matrix an ``EdgeGraph`` holds, as a new array."""
    n = graph.diag.size
    out = np.zeros((n, n))
    out[graph.rows, graph.cols] = graph.values
    out[graph.cols, graph.rows] = graph.values
    np.fill_diagonal(out, graph.diag)
    return out


def dense_panel_product(matrix, u) -> np.ndarray:
    """matrix @ u by the row panels ``EdgeGraph.times`` takes: one dgemm per panel.

    dgemm rounds by the shape of its operands, so a panel's product can
    differ in its last bits from the rows of the one (n, n) product; this
    is the same product, panel for panel, from the dense matrix.
    """
    m = np.asarray(matrix, dtype=float)
    out = np.empty((m.shape[0], u.shape[1]))
    for rows in _row_panels(m.shape[0]):
        out[rows] = matmul(m[rows], u)
    return out


def edge_graph(matrix) -> EdgeGraph:
    """A dense symmetric matrix as its diagonal and its nonzero strict upper entries."""
    m = np.asarray(matrix, dtype=float)
    rows, cols = np.nonzero(np.triu(m, 1))
    return EdgeGraph(np.diag(m).copy(), rows, cols, m[rows, cols])


def propagation_tolerance(n: int, mu: float) -> float:
    """Entrywise bound on two propagations of one normalized-Laplacian system.

    Each Cholesky solve is backward stable, so its F is within about
    n eps cond of the exact one, and mu I + L has cond <= (2 + mu) / mu
    since L's spectrum lies in [0, 2]. Two solves, and the row
    renormalization, double that.
    """
    return 4.0 * n * np.finfo(float).eps * (2.0 + mu) / mu


def dense_kernel(x, cfg) -> np.ndarray:
    """The (n, n) K of x under a kernel config, at its sigma or else the median's."""
    sigma = None
    if cfg.kernel == "rbf":
        sigma = cfg.sigma if cfg.sigma is not None else median_pairwise_distance(x)
    return kernel_matrix(x, cfg.kernel, sigma=sigma, degree=cfg.degree)


def dense_kernel_range(kmat) -> tuple[np.ndarray, np.ndarray]:
    """(U_r, w_r) from one full eigh of K's upper triangle, cut at n * eps * max(w).

    The library's exact path, which reads that triangle of K alone; it
    sketches the range instead wherever the range is narrow next to n.
    """
    k = np.asarray(kmat, dtype=float)
    w, u = scipy.linalg.eigh(np.triu(k) + np.triu(k, 1).T)
    keep = w > k.shape[0] * np.finfo(float).eps * max(float(w[-1]), 0.0)
    return u[:, keep], w[keep]


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
