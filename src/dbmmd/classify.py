"""Base classifiers: nearest neighbor, graph label propagation, accuracy."""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericError, ParameterError
from .linalg import matmul


def nn_classify(train_x, train_labels, query_x) -> np.ndarray:
    """1-NN labels for each column of query_x given labeled columns train_x.

    Brute-force squared Euclidean scan. Distance ties go to the lowest
    training index, so results are deterministic.
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
    t_sq = np.einsum("ij,ij->j", train_x, train_x)
    q_sq = np.einsum("ij,ij->j", query_x, query_x)
    d2 = t_sq[:, None] + q_sq[None, :] - 2.0 * matmul(train_x.T, query_x)
    nearest = np.argmin(d2, axis=0)
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


def propagate_labels(laplacian, y0, mu: float) -> np.ndarray:
    """Graph label propagation F = mu (mu I + L)^-1 Y0.

    This is the stationary point of mu ||F - Y0||_F^2 + tr(F^T L F): large
    mu clamps F to Y0, small mu trusts the graph. Rows with positive mass
    are renormalized to sum 1 so downstream argmax tie behavior is stable.

    The symmetric float64 laplacian is consumed: mu I + L is formed in it
    and LAPACK factors it in place, so the caller must not read it again
    (a read-only array raises). Any other input is solved on a copy.
    """
    lap = np.asarray(laplacian, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise DimensionError(f"laplacian must be square, got shape {lap.shape}")
    if y0.ndim != 2 or y0.shape[0] != lap.shape[0]:
        raise DimensionError("y0 must have one row per graph vertex")
    if not mu > 0.0:
        raise ParameterError(f"mu must be positive, got {mu}")
    # mu I + L in place; adding 0.0 turns a -0.0 into 0.0 as mu I + L does.
    np.add(lap, 0.0, out=lap)
    lap[np.diag_indices_from(lap)] += mu
    # L is symmetric, so L^T is the same matrix in the Fortran order LAPACK
    # factors in place.
    a = lap.T
    try:
        f = scipy.linalg.solve(a, mu * y0, assume_a="pos", overwrite_a=True)
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
