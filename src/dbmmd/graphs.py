"""Affinity, boundary reweighting graphs, and graph Laplacians.

The compacting graph (CG) upweights cross-domain same-class pairs that sit
far apart; the separation graph (SG) weights cross-domain different-class
pairs by their closeness. Both live only on the cross-domain block, and
which of the two applies to a pair follows from the packed group index:
source group c and target group C + r share a class when r == c.

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

from .errors import BandwidthError, DimensionError, ParameterError
from .linalg import (_as_feature_matrix, _block_rows, _mirrored_tiles, median_pairwise_distance,
                     pairwise_sq_dists)

# Floor for 1/W so underflowed affinities cannot blow up.
W_FLOOR = 1e-6


@dataclass(frozen=True)
class EdgeGraph:
    """A symmetric (n, n) matrix: its diagonal, values[e] at (rows[e], cols[e])
    and its mirror for each edge, listed once with rows[e] < cols[e], else 0."""

    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def dense(self) -> np.ndarray:
        """The (n, n) matrix itself, a new array."""
        n = self.diag.size
        out = np.zeros((n, n))
        out[self.rows, self.cols] = self.values
        out[self.cols, self.rows] = self.values
        np.fill_diagonal(out, self.diag)
        return out


def build_affinity(x, sigma: float | None = None,
                   neighborhood_p: int = 0) -> tuple[EdgeGraph, float]:
    """(W, sigma): Gaussian weights w_ij = exp(-d_ij^2 / (2 sigma^2)) between
    columns of x on the graph's edges, and the bandwidth used.

    The squared distances, computed once after the arguments are checked,
    are the call's one (n, n) float array. sigma None takes the median
    nonzero pairwise distance and fails with BandwidthError when all
    points coincide; a given sigma must be positive. neighborhood_p > 0
    keeps edge i, j when i is among the p nearest neighbors of j or vice
    versa; p = 0 keeps every pair. A point is never its own neighbor, and
    among equally distant candidates the one with the lowest column index
    is taken first, so coincident points and tied distances give the same
    graph on every run.
    """
    x = _as_feature_matrix(x)
    n = x.shape[1]
    if n < 2:
        raise ParameterError("affinity needs at least two samples")
    if sigma is not None and not sigma > 0.0:
        raise ParameterError(f"sigma must be positive, or None for the median, got {sigma}")
    if int(neighborhood_p) != neighborhood_p or neighborhood_p < 0:
        raise ParameterError(f"neighborhood_p must be a nonnegative integer, got {neighborhood_p}")
    d2 = pairwise_sq_dists(x)
    sigma = median_bandwidth(d2) if sigma is None else float(sigma)
    keep = _nearest_neighbors(d2, int(neighborhood_p))
    if keep is None:
        # Every i < j in row order, as int32: half the bytes of triu_indices' pairs.
        idx = np.arange(n, dtype=np.int32)
        rows = np.repeat(idx, n - 1 - idx)
        cols = np.concatenate([idx[i + 1:] for i in range(n - 1)])
    else:
        rows, cols = np.nonzero(keep)
        upper = rows < cols
        rows, cols = rows[upper].astype(np.int32), cols[upper].astype(np.int32)
    w = d2[rows, cols]
    np.divide(w, -2.0 * sigma * sigma, out=w)
    np.exp(w, out=w)
    return EdgeGraph(np.zeros(n), rows, cols, w), sigma


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


def build_graphs(groups: np.ndarray, n_source: int, cross: np.ndarray,
                 scale: np.ndarray) -> np.ndarray:
    """D = S_x * (G - 1), the (n_s, n_t) cross block of a reweighted MMD operator.

    ``groups`` is the packed group index and ``cross`` the source-by-target
    block W of the Gaussian affinity of x, which is only read. G is
    1/max(W, W_FLOOR) on same-class pairs and W on different-class pairs;
    the floor only guards underflowed entries. ``scale`` is S_x, the C x C
    source-by-target block of the reweighted table. D is built a block of
    source rows at a time, so G and the class mask are never held whole.
    """
    c = scale.shape[0]
    source, target = groups[:n_source], groups[n_source:] - c
    w = np.asarray(cross, dtype=float)
    if w.shape != (source.size, target.size):
        raise DimensionError(f"cross block shape {w.shape} does not match the pair's "
                             f"{(source.size, target.size)}")
    d = np.empty(w.shape)
    step = _block_rows(target.size)
    for lo in range(0, n_source, step):
        rows, w_rows, s = d[lo:lo + step], w[lo:lo + step], source[lo:lo + step]
        # 1/W everywhere, then W back on different-class pairs.
        np.maximum(w_rows, W_FLOOR, out=rows)
        np.divide(1.0, rows, out=rows)
        np.copyto(rows, w_rows, where=s[:, None] != target)
        rows -= 1.0
        rows *= scale[s][:, target]
    return d


def build_laplacian(affinity: EdgeGraph) -> EdgeGraph:
    """The normalized Laplacian D^-1/2 (D - W) D^-1/2 of a zero-diagonal W, on W's edges.

    Degrees are summed over the edges. Isolated vertices get degree
    W_FLOOR so the scaling stays finite; their Laplacian row is zero.
    """
    g, n = affinity, affinity.diag.size
    deg = np.bincount(g.rows, g.values, n) + np.bincount(g.cols, g.values, n)
    s = 1.0 / np.sqrt(np.where(deg > 0.0, deg, W_FLOOR))
    # 0 - w, not -w: a zero weight must give 0.0, not -0.0.
    return EdgeGraph(deg * s * s, g.rows, g.cols, (0.0 - g.values) * s[g.rows] * s[g.cols])


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
