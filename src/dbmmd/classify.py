"""Base classifiers: nearest neighbor, graph label propagation, accuracy."""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericError, ParameterError
from .graphs import EdgeGraph, rcm_order
from .linalg import _as_feature_matrix, _row_blocks, _sq_norms, pairwise_sq_dists


def nn_classify(train_x, train_labels, query_x) -> np.ndarray:
    """1-NN labels for each column of query_x given labeled columns train_x.

    Brute-force squared Euclidean scan: the ``pairwise_sq_dists`` of a
    block of query columns to every training column, each block's argmin
    taken as it is done; no (query, train) array is held. Both operands
    are checked and their column norms taken once, and a training operand
    that is neither C- nor F-contiguous is copied C-ordered once, the copy
    each block's product would otherwise make. Those distances
    are cut to exactly 0 below their rounding error, so training columns
    within rounding distance of a query tie, and ties go to the lowest
    training index: which of them is taken does not depend on the BLAS.
    """
    train_x = np.asarray(train_x, dtype=float)
    query_x = np.asarray(query_x, dtype=float)
    train_labels = np.asarray(train_labels)
    if train_x.ndim != 2 or query_x.ndim != 2:
        raise DimensionError("feature matrices must be 2-D (dim, samples)")
    if train_x.shape[0] != query_x.shape[0]:
        raise DimensionError(
            f"feature dims differ: train {train_x.shape[0]}, query {query_x.shape[0]}"
        )
    if train_x.shape[1] == 0 or query_x.shape[1] == 0:
        raise ParameterError("need at least one training and one query sample")
    if train_labels.shape != (train_x.shape[1],):
        raise DimensionError("one training label per training column required")
    if not (train_x.flags.c_contiguous or train_x.flags.f_contiguous):
        train_x = np.ascontiguousarray(train_x)
    query_norms = _sq_norms(_as_feature_matrix(query_x))
    train_norms = _sq_norms(_as_feature_matrix(train_x))
    nearest = np.empty(query_x.shape[1], dtype=np.intp)
    for cols in _row_blocks(query_x.shape[1], train_x.shape[1]):
        nearest[cols] = np.argmin(pairwise_sq_dists(
            query_x[:, cols], train_x, norms=(query_norms[cols], train_norms)), axis=1)
    return train_labels[nearest].astype(np.int64)


def one_hot(labels, class_count: int) -> np.ndarray:
    """(n, C) indicator rows for integer labels in [0, class_count)."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError("labels must be 1-D")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ParameterError("label out of range for class_count")
    out = np.zeros((labels.size, class_count))
    out[np.arange(labels.size), labels] = 1.0
    return out


def propagate_labels(laplacian: EdgeGraph, y0, mu: float) -> np.ndarray:
    """Graph label propagation F = mu (mu I + L)^-1 Y0.

    This is the stationary point of mu ||F - Y0||_F^2 + tr(F^T L F): large
    mu clamps F to Y0, small mu trusts the graph. Rows with positive mass
    are renormalized to sum 1 so downstream argmax tie behavior is stable.

    L is held on its edges (``graphs.build_laplacian`` of an ``EdgeGraph``).
    In reverse Cuthill-McKee order every edge lies within b of the
    diagonal, and mu I + L is solved as a banded SPD system (LAPACK pbsv):
    O(n b^2) time and a (b + 1, n) array, b up to n - 1 for a complete graph.
    """
    y0 = np.asarray(y0, dtype=float)
    n = laplacian.diag.size
    if y0.ndim != 2 or y0.shape[0] != n:
        raise DimensionError("y0 must have one row per graph vertex")
    if not mu > 0.0:
        raise ParameterError(f"mu must be positive, got {mu}")
    order = rcm_order(laplacian)
    at = np.empty(n, dtype=np.intp)
    at[order] = np.arange(n)
    i, j = at[laplacian.rows], at[laplacian.cols]
    # LAPACK lower band storage, entry (i, j), i >= j, at band[i - j, j], in
    # Fortran order so that pbsv factors it without a copy.
    rows = int(np.abs(i - j).max(initial=0)) + 1
    band = np.zeros((rows, n), order="F")
    band[0] = laplacian.diag[order] + mu
    band[np.abs(i - j), np.minimum(i, j)] = laplacian.values
    try:
        f = scipy.linalg.solveh_banded(band, mu * y0[order], overwrite_ab=True,
                                       overwrite_b=True, lower=True)[at]
    except scipy.linalg.LinAlgError as exc:
        raise NumericError("propagation system is not positive definite") from exc
    sums = f.sum(axis=1)
    pos = sums > 0.0
    f[pos] = f[pos] / sums[pos, None]
    return f


def hard_labels(scores) -> np.ndarray:
    """Row argmax with ties resolved to the lowest class index."""
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise DimensionError("scores must be 2-D (samples, classes)")
    return np.argmax(scores, axis=1).astype(np.int64)


def accuracy(predicted, truth) -> float:
    """Fraction of matching labels."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise DimensionError("predicted and truth must be 1-D of equal length")
    if predicted.size == 0:
        raise ParameterError("accuracy of an empty prediction is undefined")
    return float(np.mean(predicted == truth))
