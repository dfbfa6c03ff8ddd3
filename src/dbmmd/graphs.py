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
from .linalg import median_pairwise_distance, pairwise_sq_dists
from .mmd import group_index

# Floor for 1/W so sparsified or underflowed affinities cannot blow up.
W_FLOOR = 1e-6

GRAPH_MODES = ("literal", "spirit")


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

    sigma_mode "median" takes sigma as the median nonzero pairwise
    distance and fails with BandwidthError when all points coincide.
    neighborhood_p > 0 keeps w_ij only when i is among the p nearest
    neighbors of j or vice versa; p = 0 keeps the matrix dense.
    """
    d2 = pairwise_sq_dists(x)
    n = d2.shape[0]
    if n < 2:
        raise ParameterError("affinity needs at least two samples")
    if sigma_mode == "median":
        sigma = median_pairwise_distance(x)
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
    w = np.exp(d2 / (-2.0 * sigma * sigma))
    if 0 < p < n - 1:
        keep = np.zeros_like(w, dtype=bool)
        order = np.argsort(d2, axis=1, kind="stable")
        for j in range(n):
            neigh = order[j][order[j] != j][:p]
            keep[j, neigh] = True
        keep |= keep.T
        w = np.where(keep, w, 0.0)
    np.fill_diagonal(w, 0.0)
    w = 0.5 * (w + w.T)
    return AffinityMatrix(w, float(sigma), p)


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
    stays finite; their Laplacian row is zero either way.
    """
    w = affinity.entries
    deg = w.sum(axis=1)
    lap = np.diag(deg) - w
    if normalized:
        d = np.where(deg > 0.0, deg, W_FLOOR)
        inv_sqrt = 1.0 / np.sqrt(d)
        lap = lap * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (lap + lap.T)
