"""Affinity, boundary reweighting graphs, and graph Laplacians.

The compacting graph (CG) upweights cross-domain same-class pairs that sit
far apart; the separation graph (SG) weights cross-domain different-class
pairs by their closeness. Both live only on the cross-domain block, and
which of the two applies to a pair follows from the group index of
``mmd.group_index``: source group c and target group C + r share a class
when r == c.

The printed form of both graphs is the same expression, -(1/W) on the
cross block. ``mode="literal"`` reproduces that sign and shape exactly.
``mode="spirit"`` (the default used by the pipeline) keeps the magnitudes
but applies them as positive multiplicative reweights: 1/W on same-class
pairs, W itself on different-class pairs, so distant same-class pairs are
pulled harder and near inter-class pairs are pushed harder, which is the
stated intent of the construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import DomainPair
from .errors import BandwidthError, DimensionError, ParameterError
from .linalg import median_pairwise_distance, pairwise_sq_dists, symmetrize_inplace
from .mmd import group_index

# Floor for 1/W so sparsified or underflowed affinities cannot blow up.
W_FLOOR = 1e-6

GRAPH_MODES = ("literal", "spirit")

# Rows per block of the neighbor search; bounds its (block, n) temporaries.
_ROW_BLOCK = 256


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative weights with a zero diagonal."""

    entries: np.ndarray
    sigma: float
    neighborhood_p: int


def build_affinity(
    x,
    sigma_mode: str = "median",
    sigma: float | None = None,
    neighborhood_p: int = 0,
) -> AffinityMatrix:
    """Gaussian affinity w_ij = exp(-d_ij^2 / (2 sigma^2)) over columns of x.

    The squared distances are computed once: the median bandwidth and the
    neighbor choice read that one array, which then becomes the affinity
    in place.

    sigma_mode "median" takes sigma as the median nonzero pairwise
    distance and fails with BandwidthError when all points coincide.
    neighborhood_p > 0 keeps w_ij only when i is among the p nearest
    neighbors of j or vice versa; p = 0 keeps the matrix dense. A point is
    never its own neighbor, and among equally distant candidates the one
    with the lowest column index is taken first, so coincident points and
    tied distances give the same graph on every run.
    """
    d2 = pairwise_sq_dists(x)
    n = d2.shape[0]
    if n < 2:
        raise ParameterError("affinity needs at least two samples")
    if sigma_mode == "median":
        sigma = median_pairwise_distance(sq_dists=d2)
        if sigma == 0.0:
            raise BandwidthError("all points coincide; median bandwidth is zero")
    elif sigma_mode == "fixed":
        if sigma is None or not sigma > 0.0:
            raise ParameterError(f"fixed sigma_mode needs sigma > 0, got {sigma}")
    else:
        raise ParameterError(f"sigma_mode must be 'median' or 'fixed', got {sigma_mode!r}")
    if int(neighborhood_p) != neighborhood_p or neighborhood_p < 0:
        raise ParameterError(f"neighborhood_p must be a nonnegative integer, got {neighborhood_p}")
    p = int(neighborhood_p)
    keep = _nearest_neighbors(d2, p) if 0 < p < n - 1 else None
    w = d2
    np.divide(w, -2.0 * sigma * sigma, out=w)
    np.exp(w, out=w)
    if keep is not None:
        keep |= keep.T
        w[~keep] = 0.0
    np.fill_diagonal(w, 0.0)
    symmetrize_inplace(w)
    return AffinityMatrix(w, float(sigma), p)


def _nearest_neighbors(d2: np.ndarray, p: int) -> np.ndarray:
    """Boolean (n, n): row j marks the p columns nearest to j, 0 < p < n - 1.

    Self is excluded and ties go to the lowest index, the order a stable
    argsort of the row gives. Each block of rows takes the p-th smallest
    distance t by partition and keeps every column closer than t; the rest
    of a row's p are its columns at exactly t, in index order.
    """
    n = d2.shape[0]
    keep = np.empty((n, n), dtype=bool)
    for lo in range(0, n, _ROW_BLOCK):
        d = d2[lo:lo + _ROW_BLOCK].copy()
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


@dataclass(frozen=True)
class BoundaryGraphs:
    """The (n_s, n_t) reweight block G of the cross-domain pairs."""

    weights: np.ndarray
    mode: str


def build_graphs(
    pair: DomainPair,
    affinity: AffinityMatrix,
    mode: str = "spirit",
    w_floor: float = W_FLOOR,
) -> BoundaryGraphs:
    """Boundary graphs from an affinity and the pair's pseudo-labeling.

    Spirit mode gives 1/max(W, w_floor) on same-class pairs and W on
    different-class pairs; literal mode gives -1/max(W, w_floor) on both.
    The affinity should be dense here; the floor only guards entries that
    were sparsified or underflowed to zero.
    """
    if mode not in GRAPH_MODES:
        raise ParameterError(f"mode must be one of {GRAPH_MODES}, got {mode!r}")
    n, ns = pair.n_total, pair.n_source
    w = affinity.entries
    if w.shape != (n, n):
        raise DimensionError(f"affinity shape {w.shape} does not match pair size {n}")
    groups = group_index(pair)
    w = w[:ns, ns:]
    inv_w = 1.0 / np.maximum(w, w_floor)
    if mode == "literal":
        return BoundaryGraphs(-inv_w, mode)
    same = groups[:ns, None] == groups[None, ns:] - pair.class_count
    return BoundaryGraphs(np.where(same, inv_w, w), mode)


def build_laplacian(affinity: AffinityMatrix, normalized: bool = False) -> np.ndarray:
    """L = D - W, or its symmetric normalization D^-1/2 (D - W) D^-1/2.

    Isolated vertices get degree W_FLOOR under normalization so the scaling
    stays finite; their Laplacian row is zero either way. Built in place
    on one (n, n) array, entry for entry as diag(deg) - W and the scalings
    give it.
    """
    w = affinity.entries
    deg = w.sum(axis=1)
    lap = np.subtract(0.0, w)
    diag = np.diag_indices_from(lap)
    lap[diag] = deg - w[diag]
    if normalized:
        d = np.where(deg > 0.0, deg, W_FLOOR)
        inv_sqrt = 1.0 / np.sqrt(d)
        lap *= inv_sqrt[:, None]
        lap *= inv_sqrt[None, :]
    return symmetrize_inplace(lap)
