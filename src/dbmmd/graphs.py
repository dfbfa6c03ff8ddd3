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
    d2 = pairwise_sq_dists(x)
    n = d2.shape[0]
    if n < 2:
        raise ParameterError("affinity needs at least two samples")
    if sigma is None:
        sigma = median_bandwidth(d2)
    elif not sigma > 0.0:
        raise ParameterError(f"sigma must be positive, or None for the median, got {sigma}")
    if int(neighborhood_p) != neighborhood_p or neighborhood_p < 0:
        raise ParameterError(f"neighborhood_p must be a nonnegative integer, got {neighborhood_p}")
    p = int(neighborhood_p)
    keep = _nearest_neighbors(d2, p) if 0 < p < n - 1 else None
    w = d2
    np.divide(w, -2.0 * sigma * sigma, out=w)
    np.exp(w, out=w)
    if keep is not None:
        # keep |= keep^T by mirrored tiles: the whole-array form copies keep^T.
        for upper, lower in _mirrored_tiles(keep):
            upper |= lower.T
            lower[...] = upper.T
        np.logical_not(keep, out=keep)
        w[keep] = 0.0
    np.fill_diagonal(w, 0.0)
    return AffinityMatrix(w, float(sigma))


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


def _nearest_neighbors(d2: np.ndarray, p: int) -> np.ndarray:
    """Boolean (n, n): row j marks the p columns nearest to j, 0 < p < n - 1.

    Self is excluded and ties go to the lowest index, the order a stable
    argsort of the row gives. Each block of rows takes the p-th smallest
    distance t by partition and keeps every column closer than t; the rest
    of a row's p are its columns at exactly t, in index order.
    """
    n = d2.shape[0]
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


def build_laplacian(affinity: AffinityMatrix) -> np.ndarray:
    """The normalized Laplacian D^-1/2 (D - W) D^-1/2, built over W itself.

    Isolated vertices get degree W_FLOOR so the scaling stays finite;
    their Laplacian row is zero. Entry for entry as diag(deg) - W and the
    scalings give it, but written into ``affinity.entries`` and returned:
    the affinity is consumed, and a read-only one raises.
    """
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
