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

No graph here is held as an (n, n) or (n_s, n_t) array. The neighborhood
graphs are edge lists (``EdgeGraph``), built from the distance walker of
``linalg`` a block of rows at a time. The cross block W behind the
boundary graphs is held as what rebuilds it (``CrossAffinity``): a block
of W, some source rows against all or some target columns, comes from x
by ``pairwise_sq_dists`` with x's column norms taken once.
``mmd.MmdOperator`` reads only W's class-diagonal blocks, where a source
row's class is the target's pseudo-class, a block of source rows at a
time, and ``build_graphs`` writes the same-class rule's D there. The
different-class weight W enters only as the W - 1 of
``mmd.off_class_term``, one walk of W's blocks of source rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .linalg import (_PANEL_ROWS, _as_feature_matrix, _Distances, _MedianSelect, _row_blocks,
                     _row_panels, _sq_norms, _strict_upper, gaussian_in_place, matmul,
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

    def times(self, u: np.ndarray) -> np.ndarray:
        """The (n, n) matrix times the (n, m) u, a panel of its rows at a time.

        Each panel's rows are scattered from the edges into one zeroed
        (rows, n) buffer, reused from panel to panel, and multiplied by u
        in one dgemm, so no (n, n) array is made.
        """
        n = self.diag.size
        out = np.empty((n, u.shape[1]))
        buffer = np.empty((min(n, _PANEL_ROWS), n))
        for rows in _row_panels(n):
            lo, hi = rows.start, rows.stop
            panel = buffer[:hi - lo]
            panel.fill(0.0)
            for ends, others in ((self.rows, self.cols), (self.cols, self.rows)):
                at = np.flatnonzero((ends >= lo) & (ends < hi))
                panel[ends[at] - lo, others[at]] = self.values[at]
            panel[np.arange(hi - lo), np.arange(lo, hi)] = self.diag[rows]
            out[rows] = matmul(panel, u)
        return out


def build_affinity(x, sigma: float | None = None,
                   neighborhood_p: int = 0) -> tuple[EdgeGraph, float]:
    """(W, sigma): Gaussian weights w_ij = exp(-d_ij^2 / (2 sigma^2)) between
    columns of x on the graph's edges, and the bandwidth used.

    The squared distances come from x a block of rows at a time, from the
    walker ``median_pairwise_distance`` reads (``linalg._Distances``): each
    block's columns against the columns from its first on, with for p > 0
    those against the columns before it; no (n, n) array is held. sigma
    None takes the median nonzero pairwise distance, selected in the same
    walk (``linalg._MedianSelect``), and fails with BandwidthError when all
    points coincide; a given sigma must be positive. neighborhood_p > 0
    keeps edge i, j when i is among the p nearest neighbors of j or vice
    versa; p = 0 keeps every pair. A point is never its own neighbor, and
    among equally distant candidates the one with the lowest column index
    is taken first, so coincident points and tied distances give the same
    graph on every run. An edge's weight is the distance in the row of its
    lower end when that end chose it, else in the row of the other end.
    """
    walk = _Distances(x)
    n = walk.x.shape[1]
    if n < 2:
        raise ParameterError("affinity needs at least two samples")
    if sigma is not None and not sigma > 0.0:
        raise ParameterError(f"sigma must be positive, or None for the median, got {sigma}")
    if int(neighborhood_p) != neighborhood_p or neighborhood_p < 0:
        raise ParameterError(f"neighborhood_p must be a nonnegative integer, got {neighborhood_p}")
    p = int(neighborhood_p)
    knn = 0 < p < n - 1
    select = _MedianSelect(walk) if sigma is None else None
    rows, cols, w = _nearest_edges(walk, p, select) if knn else _all_edges(walk, select)
    if select is not None:
        # The median's counting walks, if it needs them: the same products
        # again, or for the complete graph the distances w holds.
        sigma = select.median(
            (lambda: (_strict_upper(block, positive=True) for _, block in walk.upper())) if knn
            else (lambda: (w[b][w[b] > 0.0] for b in _row_blocks(w.size, 1))))
    gaussian_in_place(w, sigma)
    return EdgeGraph(np.zeros(n), rows, cols, w), float(sigma)


def _all_edges(walk: _Distances, select: _MedianSelect | None):
    """Every pair i < j in row order, as int32 index pairs, with its squared distance.

    Feeds each block to the median's ``select`` unless None.
    """
    n = walk.x.shape[1]
    idx = np.arange(n, dtype=np.int32)
    rows = np.repeat(idx, n - 1 - idx)
    cols = np.concatenate([idx[i + 1:] for i in range(n - 1)])
    d2 = np.empty(rows.size)
    at = 0
    for _, block in walk.upper():
        if select is not None:
            select.add(block)
        vals = _strict_upper(block)
        d2[at:at + vals.size] = vals
        at += vals.size
    return rows, cols, d2


def _nearest_edges(walk: _Distances, p: int, select: _MedianSelect | None):
    """The symmetrized kNN union as int32 pairs i < j in row order, with squared distances.

    Per block of rows, ``np.partition`` at p puts each row's p + 1
    smallest distances first, the (p + 1)-th in place. Where the p-th of
    them, t, is below the (p + 1)-th, the row's columns at or below t are
    its p nearest, and no tie can change them. A row tied there takes its
    columns closer than t, then the rest of its p from its columns at t,
    in index order, as a stable argsort of the row would give. Each row
    emits its p edges, rows in order; a pair chosen from both ends keeps
    the lower end's distance. Feeds each block's columns from lo on, the
    walker's ``upper`` block, to the median's ``select`` unless None.
    """
    n = walk.x.shape[1]
    heads, tails, dists = [], [], []
    for rows, upper in walk.upper():
        if select is not None:
            select.add(upper)
        lo = rows.start
        d = walk.widen(rows, upper)  # a point's distance to itself is +inf
        del upper
        part = np.partition(d, p, axis=1)
        t = part[:, :p].max(axis=1, keepdims=True)
        keep = d <= t
        tied = np.flatnonzero(t[:, 0] == part[:, p])
        if tied.size:
            d_tied, t_tied = d[tied], t[tied]
            closer, at_t = d_tied < t_tied, d_tied == t_tied
            room = p - np.count_nonzero(closer, axis=1)
            keep[tied] = closer | (at_t & (np.cumsum(at_t, axis=1) <= room[:, None]))
        at = np.flatnonzero(keep)
        heads.append(lo + at // n)
        tails.append(at % n)
        dists.append(d.reshape(-1)[at])
    heads, tails, dists = np.concatenate(heads), np.concatenate(tails), np.concatenate(dists)
    low, high = np.minimum(heads, tails), np.maximum(heads, tails)
    # Rows emit in order, so a pair's first occurrence is from its lower end if that chose it.
    _, first = np.unique(low * n + high, return_index=True)
    return low[first].astype(np.int32), high[first].astype(np.int32), dists[first]


@dataclass(frozen=True, slots=True, eq=False)
class CrossAffinity:
    """W, the (n_s, n_t) source-by-target block of the Gaussian affinity of x, by blocks.

    Holds x, sigma and the read-only squared norms of x's columns, taken
    once (x is checked then), so no read re-checks its operands or takes
    their norms again; none of them can be reassigned, so one instance is
    safe to share. A read is made afresh: exp(d2 / (-2 sigma^2)) in place
    in the ``pairwise_sq_dists`` of the source columns read and the target
    columns, which is the rbf kernel of those columns against the
    target's, and bit for bit that call on them. ``w[rows]`` reads a slice
    of source rows against every target column, and
    ``w[np.ix_(rows, cols)]`` the source rows ``rows`` against the target
    columns ``cols``, both index arrays. W is never held whole. An
    (n_s, n_t) array reads the same way, so ``mmd.MmdOperator`` takes either.
    """

    x: np.ndarray
    n_source: int
    sigma: float
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        norms = _sq_norms(_as_feature_matrix(self.x))
        norms.flags.writeable = False
        object.__setattr__(self, "norms", norms)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_source, self.x.shape[1] - self.n_source

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = (key, slice(None)) if isinstance(key, slice) else (np.ravel(k) for k in key)
        x, norms = self.x[:, rows], self.norms[rows]
        y, y_norms = self.x[:, self.n_source:][:, cols], self.norms[self.n_source:][cols]
        return gaussian_in_place(pairwise_sq_dists(x, y, norms=(norms, y_norms)), self.sigma)


def build_graphs(cross: np.ndarray, scale: float) -> np.ndarray:
    """D = S_x[b, b] (1/max(W, W_FLOOR) - 1) on a class-diagonal block of W.

    ``cross`` holds entries of the source-by-target block W of the
    Gaussian affinity of x whose source rows and target columns all carry
    one class b, so every pair shares the class and G, the compacting
    graph, is 1/W there; the floor only guards underflowed entries.
    ``cross`` is only read, and D is written in place in one array, so G
    is never held. ``scale`` is S_x[b, b], the reweighted table's entry
    for source class b against target class b. A different-class pair's
    G is W itself, and it enters the operator through
    ``mmd.off_class_term``'s W - 1 alone.
    """
    d = np.maximum(cross, W_FLOOR)
    np.divide(1.0, d, out=d)
    d -= 1.0
    d *= scale
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
