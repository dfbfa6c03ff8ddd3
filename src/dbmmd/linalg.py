"""Dense linear-algebra kernels used by every stage of the pipeline.

Feature matrices follow the column-sample convention throughout: an
``(l, n)`` array holds n samples of dimension l. All routines are plain
dense numpy; problem sizes here are hundreds of samples, not millions.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericError, ParameterError

# Relative ridge applied to the right-hand pencil operand, the centered
# scatter s H s^T of the (d, n) features or, in kernel mode, of the reduced
# (r, n) operand of ``kernel_range`` (not of the n x n K, whose scatter has
# rank <= r). It is singular only where that operand is degenerate (a
# constant feature, or the all-ones vector inside the range of K); the
# ridge keeps it definite there.
DEFAULT_RIDGE_SCALE = 1e-9

# Side of the square tiles ``symmetrize_inplace`` works on.
_TILE = 256


class EigPair(NamedTuple):
    value: float
    vector: np.ndarray


def _as_feature_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"feature matrix must be 2-D, got shape {x.shape}")
    if x.shape[1] == 0:
        raise ParameterError("feature matrix has no samples")
    if not np.isfinite(x).all():
        raise ParameterError("feature matrix contains non-finite entries")
    return x


def pairwise_sq_dists(x) -> np.ndarray:
    """Squared Euclidean distances between the columns of ``x``.

    Returns an (n, n) symmetric matrix with an exactly zero diagonal.
    Negative round-off from the Gram expansion is clamped to zero.
    """
    x = _as_feature_matrix(x)
    g = x.T @ x
    sq = np.diag(g).copy()
    g *= 2.0
    d = np.add(sq[:, None], sq[None, :])
    d -= g
    np.maximum(d, 0.0, out=d)
    symmetrize_inplace(d)
    np.fill_diagonal(d, 0.0)
    return d


def median_pairwise_distance(x=None, *, sq_dists=None) -> float:
    """Median of the nonzero pairwise Euclidean distances.

    Give either the columns ``x`` or ``sq_dists``, their (n, n) squared
    distances from ``pairwise_sq_dists``, which a caller that already
    holds them passes so they are not computed twice. Only the strict
    upper triangle is read. The square root is taken of the one or two
    middle squared distances alone: sqrt is monotone, so they are the
    squares of the middle distances, and the result equals the median of
    all the distances bit for bit.

    Returns 0.0 when every pair of columns coincides; callers that need a
    positive bandwidth must treat that as an error.
    """
    if (x is None) == (sq_dists is None):
        raise ParameterError("give exactly one of x and sq_dists")
    d2 = pairwise_sq_dists(x) if sq_dists is None else np.asarray(sq_dists, dtype=float)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise DimensionError(f"squared distances must be square, got shape {d2.shape}")
    n = d2.shape[0]
    if n < 2:
        return 0.0
    vals = np.concatenate([d2[i, i + 1:] for i in range(n - 1)])
    vals = vals[vals > 0.0]
    m = vals.size
    if m == 0:
        return 0.0
    middle = [(m - 1) // 2, m // 2]
    vals.partition(middle)
    # np.median's own last step: the mean of the middle value(s).
    return float(np.mean(np.sqrt(vals[middle[0]:middle[1] + 1])))


def symmetrize_inplace(a: np.ndarray) -> np.ndarray:
    """a <- 0.5 * (a + a^T) in place, one pair of mirrored tiles at a time.

    Entry for entry equal to the out-of-place expression, without its two
    n x n temporaries.
    """
    n, t = a.shape[0], _TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            upper = a[i:i + t, j:j + t]
            lower = a[j:j + t, i:i + t]
            s = 0.5 * (upper + lower.T)
            upper[...] = s
            lower[...] = s.T
    return a


def kernel_matrix(x, kind: str, *, sigma: float | None = None, degree: int = 2) -> np.ndarray:
    """Gram matrix of the columns of ``x`` under the named kernel.

    kind is one of "linear", "rbf" (needs sigma > 0, k = exp(-d^2 / 2 sigma^2))
    or "poly" (degree >= 1, k = (x.y + 1)^degree).
    """
    x = _as_feature_matrix(x)
    if kind == "linear":
        g = x.T @ x
        return 0.5 * (g + g.T)
    if kind == "rbf":
        if sigma is None or not sigma > 0.0:
            raise ParameterError(f"rbf kernel needs sigma > 0, got {sigma}")
        return np.exp(pairwise_sq_dists(x) / (-2.0 * sigma * sigma))
    if kind == "poly":
        if int(degree) != degree or degree < 1:
            raise ParameterError(f"poly kernel needs integer degree >= 1, got {degree}")
        g = x.T @ x
        g = 0.5 * (g + g.T)
        return (g + 1.0) ** int(degree)
    raise ParameterError(f"unknown kernel kind {kind!r}")


def kernel_range(kmat) -> tuple[np.ndarray, np.ndarray]:
    """Basis and data operand of the numerical range of a kernel matrix.

    Factors the symmetric (n, n) K = U diag(w) U^T and keeps the r
    eigenpairs with w > n * eps * max(w), the rank rule of numpy's
    ``matrix_rank``. Returns (U_r, S_r): U_r is (n, r) orthonormal and
    S_r = diag(w_r) U_r^T is (r, n). An expansion a = U_r c embeds the
    samples as a^T K = c^T S_r, so a kernel pencil over a restricted to
    the range of K is the primal pencil of S_r; the null space of K adds
    nothing to a^T K and is dropped.
    """
    k = np.asarray(kmat, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionError(f"kernel matrix must be square, got shape {k.shape}")
    if not np.isfinite(k).all():
        raise ParameterError("kernel matrix contains non-finite entries")
    w, u = scipy.linalg.eigh(_check_symmetric(k, "kernel"))
    n = k.shape[0]
    keep = w > n * np.finfo(float).eps * max(float(w[-1]), 0.0)
    u_r = u[:, keep]
    return u_r, w[keep][:, None] * u_r.T


def centering_matrix(n: int) -> np.ndarray:
    """H = I - (1/n) 11^T. Projects out the all-ones direction."""
    if int(n) != n or n < 1:
        raise ParameterError(f"centering matrix needs integer n >= 1, got {n}")
    n = int(n)
    return np.eye(n) - np.full((n, n), 1.0 / n)


def _check_symmetric(m: np.ndarray, name: str, tol: float = 1e-10) -> np.ndarray:
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > tol * scale:
        raise ParameterError(f"{name} operand must be symmetric")
    return 0.5 * (m + m.T)


def gen_eig_smallest(aop, bop, k: int, ridge: float | None = None) -> list[EigPair]:
    """k smallest eigenpairs of the symmetric pencil A v = w (B + ridge I) v.

    Parameters
    ----------
    aop, bop : (n, n) symmetric arrays. B must be positive semi-definite;
        the ridge makes the regularised operand definite.
    k : number of pairs, 1 <= k <= n.
    ridge : nonnegative shift added to B. None selects the default
        relative ridge 1e-9 * trace(B) / n.

    Returns eigenpairs sorted ascending by eigenvalue. Each vector v is
    normalised so v^T (B + ridge I) v = 1 and its largest-magnitude
    component is positive, which pins an otherwise arbitrary sign.
    """
    a = np.asarray(aop, dtype=float)
    b = np.asarray(bop, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"left operand must be square, got shape {a.shape}")
    if b.shape != a.shape:
        raise DimensionError(f"operand shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if int(k) != k or not 1 <= k <= n:
        raise ParameterError(f"k must satisfy 1 <= k <= {n}, got {k}")
    k = int(k)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("pencil operands contain non-finite entries")
    a = _check_symmetric(a, "left")
    b = _check_symmetric(b, "right")
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * float(np.trace(b)) / n
    if ridge < 0.0:
        raise ParameterError(f"ridge must be nonnegative, got {ridge}")
    b_reg = b + ridge * np.eye(n)
    try:
        w, v = scipy.linalg.eigh(a, b_reg, subset_by_index=(0, k - 1))
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericError(
            f"right operand not positive definite with ridge {ridge:g}"
        ) from exc
    pairs = []
    for j in range(k):
        vec = v[:, j].copy()
        if vec[int(np.argmax(np.abs(vec)))] < 0.0:
            vec = -vec
        pairs.append(EigPair(float(w[j]), vec))
    return pairs
