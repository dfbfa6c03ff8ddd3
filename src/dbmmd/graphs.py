"""Affinity, boundary reweighting graphs, and graph Laplacians.

The compacting graph (CG) upweights cross-domain same-class pairs that sit
far apart; the separation graph (SG) weights cross-domain different-class
pairs by their closeness. Both live only on the cross-domain block, and
which of the two applies to a pair follows from the group index of
``mmd.group_index``: source group c and target group C + r share a class
when r == c.

The printed form of both graphs is the same expression, -(1/W) on the
cross block. Taken as printed, an elementwise product with M, that sign
would turn the compacting pull into a push, and the graph's zeros off the
cross block would erase the reweighted terms within each domain. The
graphs here keep the magnitudes and apply them as positive multiplicative
reweights instead: 1/W on same-class pairs, W itself on different-class
pairs, so distant same-class pairs are pulled harder and near inter-class
pairs are pushed harder, which is the stated intent of the construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import DomainPair
from .errors import BandwidthError, DimensionError, ParameterError
from .linalg import (_block_rows, _mirrored_tiles, median_pairwise_distance, pairwise_sq_dists,
                     symmetrize_inplace)
from .mmd import group_index

# Floor for 1/W so sparsified or underflowed affinities cannot blow up.
W_FLOOR = 1e-6


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative weights with a zero diagonal."""

    entries: np.ndarray
    sigma: float


@dataclass(frozen=True)
class EdgeGraph:
    """A symmetric (n, n) matrix: its diagonal, values[e] at (rows[e], cols[e])
    and its mirror for each edge, listed once with rows[e] < cols[e], else 0."""

    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def build_affinity(x, sigma: float | None = None, neighborhood_p: int = 0) -> AffinityMatrix:
    """Gaussian affinity w_ij = exp(-d_ij^2 / (2 sigma^2)) over columns of x.

    The squared distances are computed once: the median bandwidth and the
    neighbor choice read that one array, which then becomes the affinity
    in place, the one (n, n) float array of the call.

    sigma None takes the median nonzero pairwise distance and fails with
    BandwidthError when all points coincide; a given sigma must be
    positive. neighborhood_p > 0 keeps w_ij only when i is among the p
    nearest neighbors of j or vice versa; p = 0 keeps the matrix dense. A
    point is never its own neighbor, and among equally distant candidates
    the one with the lowest column index is taken first, so coincident
    points and tied distances give the same graph on every run.
    """
    w, sigma, keep = _distances_and_neighbors(x, sigma, neighborhood_p)
    np.divide(w, -2.0 * sigma * sigma, out=w)
    np.exp(w, out=w)
    if keep is not None:
        np.logical_not(keep, out=keep)
        w[keep] = 0.0
    np.fill_diagonal(w, 0.0)
    return AffinityMatrix(w, sigma)


def affinity_edges(x, sigma: float | None = None, neighborhood_p: int = 0) -> EdgeGraph:
    """``build_affinity``'s entries, bit for bit, on the edges of its neighbor union
    (every pair when dense); the distances are the call's one (n, n) float array."""
    d2, sigma, keep = _distances_and_neighbors(x, sigma, neighborhood_p)
    if keep is None:
        rows, cols = np.triu_indices(d2.shape[0], 1)
    else:
        rows, cols = np.nonzero(keep)
        rows, cols = rows[rows < cols], cols[rows < cols]
    w = np.exp(d2[rows, cols] / (-2.0 * sigma * sigma))
    return EdgeGraph(np.zeros(d2.shape[0]), rows, cols, w)


def _distances_and_neighbors(x, sigma, neighborhood_p):
    """(d2, sigma, keep): the distances, the resolved bandwidth, ``_nearest_neighbors``."""
    d2 = pairwise_sq_dists(x)
    if d2.shape[0] < 2:
        raise ParameterError("affinity needs at least two samples")
    if sigma is None:
        sigma = median_bandwidth(d2)
    elif not sigma > 0.0:
        raise ParameterError(f"sigma must be positive, or None for the median, got {sigma}")
    if int(neighborhood_p) != neighborhood_p or neighborhood_p < 0:
        raise ParameterError(f"neighborhood_p must be a nonnegative integer, got {neighborhood_p}")
    return d2, float(sigma), _nearest_neighbors(d2, int(neighborhood_p))


def median_bandwidth(sq_dists: np.ndarray) -> float:
    """Median nonzero pairwise distance, read from squared distances.

    The one place a median bandwidth is resolved: fails with
    BandwidthError when all points coincide, since a zero sigma has no
    Gaussian.
    """
    sigma = median_pairwise_distance(sq_dists)
    if sigma == 0.0:
        raise BandwidthError("all points coincide; median bandwidth is zero")
    return sigma


def _nearest_neighbors(d2: np.ndarray, p: int) -> np.ndarray | None:
    """Symmetric boolean (n, n): i, j when either is among the other's p nearest.

    None for p = 0 or p >= n - 1: every pair. Self is excluded and ties go
    to the lowest index, the order a stable argsort of the row gives. Each
    block of rows takes the p-th smallest distance t by partition and keeps
    every column closer than t; the rest of a row's p are its columns at
    exactly t, in index order.
    """
    n = d2.shape[0]
    if not 0 < p < n - 1:
        return None
    step = _block_rows(n)
    keep = np.empty((n, n), dtype=bool)
    for lo in range(0, n, step):
        d = d2[lo:lo + step].copy()
        rows = np.arange(d.shape[0])
        d[rows, lo + rows] = np.inf
        t = np.partition(d, p - 1, axis=1)[:, p - 1:p]
        closer = d < t
        tied = d == t
        tied[rows, lo + rows] = False
        room = p - np.count_nonzero(closer, axis=1)
        # Only rows with more columns at t than room rank them by index.
        over = np.flatnonzero(np.count_nonzero(tied, axis=1) > room)
        tied[over] &= np.cumsum(tied[over], axis=1) <= room[over, None]
        np.logical_or(closer, tied, out=keep[lo:lo + d.shape[0]])
    # keep |= keep^T by mirrored tiles: the whole-array form copies keep^T.
    for upper, lower in _mirrored_tiles(keep):
        upper |= lower.T
        lower[...] = upper.T
    return keep


def build_graphs(pair: DomainPair, cross: np.ndarray) -> np.ndarray:
    """The (n_s, n_t) reweight block G of the cross-domain pairs.

    ``cross`` is the (n_s, n_t) source-by-target block W[:n_s, n_s:] of a
    dense affinity W, the only part the graphs read. G is
    1/max(W, W_FLOOR) on same-class pairs and W on different-class pairs,
    classes taken from the pair's pseudo-labeling. The floor only guards
    entries that were sparsified or underflowed to zero.
    """
    ns, nt = pair.n_source, pair.n_target
    w = np.asarray(cross, dtype=float)
    if w.shape != (ns, nt):
        raise DimensionError(f"cross block shape {w.shape} does not match the pair's {(ns, nt)}")
    groups = group_index(pair)
    # One (n_s, n_t) array: 1/W everywhere, then W back on different-class pairs.
    g = np.maximum(w, W_FLOOR)
    np.divide(1.0, g, out=g)
    np.copyto(g, w, where=groups[:ns, None] != groups[None, ns:] - pair.class_count)
    return g


def build_laplacian(affinity: AffinityMatrix | EdgeGraph) -> np.ndarray | EdgeGraph:
    """The normalized Laplacian D^-1/2 (D - W) D^-1/2, built over W itself.

    Isolated vertices get degree W_FLOOR so the scaling stays finite;
    their Laplacian row is zero. Entry for entry as diag(deg) - W and the
    scalings give it, but written into ``affinity.entries`` and returned:
    the affinity is consumed, and a read-only one raises. An ``EdgeGraph``
    (zero diagonal) gives an ``EdgeGraph`` on the same edges instead.
    """
    if isinstance(affinity, EdgeGraph):
        g, n = affinity, affinity.diag.size
        deg = np.bincount(g.rows, g.values, n) + np.bincount(g.cols, g.values, n)
        s = 1.0 / np.sqrt(np.where(deg > 0.0, deg, W_FLOOR))
        return EdgeGraph(deg * s * s, g.rows, g.cols, (0.0 - g.values) * s[g.rows] * s[g.cols])
    w = affinity.entries
    deg = w.sum(axis=1)
    diag = np.diag_indices_from(w)
    on_diag = deg - w[diag]
    # 0 - w, not -w: a zero weight must give 0.0, not -0.0.
    lap = np.subtract(0.0, w, out=w)
    lap[diag] = on_diag
    inv_sqrt = 1.0 / np.sqrt(np.where(deg > 0.0, deg, W_FLOOR))
    lap *= inv_sqrt[:, None]
    lap *= inv_sqrt[None, :]
    return symmetrize_inplace(lap)


def rcm_order(graph: EdgeGraph) -> np.ndarray:
    """Reverse Cuthill-McKee order (Cuthill & McKee, 1969): every edge near the diagonal.

    Breadth first a level at a time; a component starts at its lowest-degree
    vertex, lowest index first, and a level lists the unvisited neighbors of
    the one before in (parent position, edge count, index) order.
    """
    n = graph.diag.size
    heads, tails = np.r_[graph.rows, graph.cols], np.r_[graph.cols, graph.rows]
    degree = np.bincount(heads, minlength=n)
    # Each adjacency list in (degree, index) order, so no level needs a sort.
    adj = tails[np.lexsort((tails, degree[tails], heads))]
    starts = np.cumsum(degree) - degree
    visited = np.zeros(n, dtype=bool)
    order: list[np.ndarray] = []
    while not visited.all():
        level = np.array([np.argmin(np.where(visited, n, degree))])
        while level.size:
            visited[level] = True
            order.append(level)
            counts = degree[level]
            at = np.arange(counts.sum()) + np.repeat(starts[level] - np.cumsum(counts) + counts, counts)
            near = adj[at][~visited[adj[at]]]
            _, first = np.unique(near, return_index=True)
            level = near[np.sort(first)]
    return np.concatenate(order)[::-1]
