"""Dense linear-algebra kernels used by every stage of the pipeline.

Feature matrices follow the column-sample convention throughout: an
``(l, n)`` array holds n samples of dimension l. All routines are plain
dense arrays; problem sizes here are hundreds of samples, not millions.
Every dense product goes through ``matmul`` and so, like every LAPACK
call here, runs on scipy's BLAS.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import blas

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

# Entries per (rows, n) block temporary of the distance, median and
# neighbor passes.
_BLOCK = 1 << 16

# The median's buckets: the top 16 bits of a positive double's pattern
# (the zero sign bit, 11 exponent bits and 4 mantissa bits), 2^15 in all.
_BUCKET_SHIFT = 48
_BUCKETS = 1 << (63 - _BUCKET_SHIFT)


def _blas_operand(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(y, trans): a Fortran-ordered y with op(y) = x^T, op = transpose if trans.

    A C- or F-contiguous x is passed as is; any other is copied once.
    """
    if x.ndim != 2:
        raise DimensionError(f"matmul operands must be 2-D, got shape {x.shape}")
    if x.flags.c_contiguous:
        return x.T, 0
    if x.flags.f_contiguous:
        return x, 1
    return np.ascontiguousarray(x).T, 0


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D float64 operands, computed by scipy's dgemm.

    numpy and scipy each bundle an OpenBLAS with its own thread pool, and
    after a call a pool's workers keep spinning on the cores the other
    pool then waits for. Running products on the pool LAPACK already uses
    leaves one pool. dgemm works in Fortran order, so this computes
    (a b)^T = b^T a^T: the transpose of a C-ordered array is a
    Fortran-ordered view, and the Fortran-ordered result read transposed
    is the C-ordered a b. No contiguous operand and no result is copied.
    """
    at, trans_b = _blas_operand(a)
    bt, trans_a = _blas_operand(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes {a.shape} and {b.shape} do not chain")
    # With beta = 0 dgemm writes every entry of c, so c is not zeroed first
    # (the array f2py would allocate is, at the cost of one more pass).
    c = np.empty((b.shape[1], a.shape[0]), order="F")
    if c.size == 0:
        return c.T  # nothing to compute, and f2py rejects an empty c
    return blas.dgemm(1.0, bt, at, c=c, overwrite_c=True, trans_a=trans_a, trans_b=trans_b).T


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
    Negative round-off from the Gram expansion is clamped to zero. The
    distances overwrite the Gram array x^T x one block of rows at a time,
    each entry as (|x_i|^2 + |x_j|^2) - 2 x_i.x_j, so the only n x n array
    is the one returned.
    """
    x = _as_feature_matrix(x)
    d = matmul(x.T, x)
    sq = np.diag(d).copy()
    n = d.shape[0]
    rows = _block_rows(n)
    for lo in range(0, n, rows):
        block = d[lo:lo + rows]
        # -2g + s is s - 2g bit for bit: negation and doubling are exact.
        block *= -2.0
        block += np.add(sq[lo:lo + rows, None], sq[None, :])
        np.maximum(block, 0.0, out=block)
    symmetrize_inplace(d)
    np.fill_diagonal(d, 0.0)
    return d


def _block_rows(n: int) -> int:
    """Rows per block so that a (rows, n) temporary holds about _BLOCK entries."""
    return max(1, _BLOCK // max(n, 1))


def _upper_positive(d2: np.ndarray):
    """The positive entries of the strict upper triangle of d2, a row block at a time."""
    n = d2.shape[0]
    rows = _block_rows(n)
    for lo in range(0, n - 1, rows):
        block = d2[lo:lo + rows, lo + 1:]
        keep = block > 0.0
        # Entry (i, j) of the block is d2[lo + i, lo + 1 + j], on or below the
        # diagonal of d2 when j < i: only the block's leading square has those.
        lead = keep[:, :keep.shape[0]]
        lead[np.tri(*lead.shape, k=-1, dtype=bool)] = False
        yield block[keep]


def _bucket(vals: np.ndarray) -> np.ndarray:
    """Bucket of each positive double: the top bits of its IEEE pattern.

    For positive doubles the bit pattern read as an integer is monotone in
    the value, so buckets are ordered as their values are.
    """
    return vals.view(np.int64) >> _BUCKET_SHIFT


def median_pairwise_distance(sq_dists) -> float:
    """Median of the nonzero pairwise Euclidean distances.

    ``sq_dists`` are the (n, n) squared distances from
    ``pairwise_sq_dists``; only their strict upper triangle is read. The
    square root is taken of the one or two middle squared distances alone:
    sqrt is monotone, so they are the squares of the middle distances, and
    the result equals the median of all the distances bit for bit.

    The triangle is never copied. A counting pass tallies the positive
    entries by bucket (each bucket spans 1/16 of a binary octave), a
    second pass gathers the entries of the bucket or buckets holding the
    middle ranks, and a partition of those picks the middle values.

    Returns 0.0 when every pair of columns coincides; callers that need a
    positive bandwidth must treat that as an error.
    """
    d2 = np.asarray(sq_dists, dtype=float)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise DimensionError(f"squared distances must be square, got shape {d2.shape}")
    counts = np.zeros(_BUCKETS, dtype=np.int64)
    for vals in _upper_positive(d2):
        counts += np.bincount(_bucket(vals), minlength=_BUCKETS)
    cum = np.cumsum(counts)
    m = int(cum[-1])
    if m == 0:
        return 0.0
    middle = np.array([(m - 1) // 2, m // 2])
    first, last = np.searchsorted(cum, middle, side="right")
    picked = []
    for vals in _upper_positive(d2):
        b = _bucket(vals)
        picked.append(vals[(b >= first) & (b <= last)])
    picked = np.concatenate(picked)
    middle -= cum[first] - counts[first]
    picked.partition(middle)
    # np.median's own last step: the mean of the middle value(s).
    return float(np.mean(np.sqrt(picked[middle[0]:middle[1] + 1])))


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


def kernel_matrix(x, kind: str, *, sigma: float | None = None, degree: int = 2,
                  sq_dists=None) -> np.ndarray:
    """Gram matrix of the columns of ``x`` under the named kernel.

    kind is one of "linear", "rbf" (needs sigma > 0, k = exp(-d^2 / 2 sigma^2))
    or "poly" (degree >= 1, k = (x.y + 1)^degree). An rbf caller that
    already holds the (n, n) squared distances of x from
    ``pairwise_sq_dists`` passes them as ``sq_dists`` so they are not
    computed twice; they become K in place, so the caller gives them up
    (a read-only array raises). The other kernels do not read distances
    and reject it.
    """
    x = _as_feature_matrix(x)
    if sq_dists is not None and kind != "rbf":
        raise ParameterError(f"sq_dists is read only by the rbf kernel, not {kind!r}")
    if kind == "linear":
        g = matmul(x.T, x)
        return 0.5 * (g + g.T)
    if kind == "rbf":
        if sigma is None or not sigma > 0.0:
            raise ParameterError(f"rbf kernel needs sigma > 0, got {sigma}")
        if sq_dists is None:
            d2 = pairwise_sq_dists(x)
        else:
            d2 = np.asarray(sq_dists, dtype=float)
            n = x.shape[1]
            if d2.shape != (n, n):
                raise DimensionError(
                    f"squared distances of shape {d2.shape} do not match n={n} samples"
                )
        np.divide(d2, -2.0 * sigma * sigma, out=d2)
        return np.exp(d2, out=d2)
    if kind == "poly":
        if int(degree) != degree or degree < 1:
            raise ParameterError(f"poly kernel needs integer degree >= 1, got {degree}")
        g = matmul(x.T, x)
        g = 0.5 * (g + g.T)
        return (g + 1.0) ** int(degree)
    raise ParameterError(f"unknown kernel kind {kind!r}")


def kernel_range(kmat) -> tuple[np.ndarray, np.ndarray]:
    """The factor of a kernel matrix restricted to its numerical range.

    Factors the symmetric (n, n) K = U diag(w) U^T and keeps the r
    eigenpairs with w > n * eps * max(w), the rank rule of numpy's
    ``matrix_rank``. Returns (U_r, w_r): U_r is (n, r) orthonormal and
    w_r the r kept eigenvalues, ascending. With the reduced data operand
    S_r = diag(w_r) U_r^T, an expansion a = U_r c embeds the samples as
    a^T K = c^T S_r, so a kernel pencil over a restricted to the range of
    K is the primal pencil of S_r; the null space of K adds nothing to
    a^T K and is dropped.
    """
    k = np.asarray(kmat, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionError(f"kernel matrix must be square, got shape {k.shape}")
    if not np.isfinite(k).all():
        raise ParameterError("kernel matrix contains non-finite entries")
    # the symmetrized copy is ours, and its transpose is the same matrix in
    # the Fortran order LAPACK factors in place, so eigh copies nothing
    w, u = scipy.linalg.eigh(_check_symmetric(k, "kernel").T, overwrite_a=True)
    n = k.shape[0]
    keep = w > n * np.finfo(float).eps * max(float(w[-1]), 0.0)
    return u[:, keep], w[keep]


def centering_matrix(s) -> np.ndarray:
    """s H for H = I - (1/n) 11^T: each row of the (l, n) s minus its mean.

    H itself is never formed; the centered scatter s H s^T is
    ``matmul(centering_matrix(s), s.T)``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ParameterError(f"centering needs an (l, n) operand with n >= 1, got {s.shape}")
    return s - s.mean(axis=1, keepdims=True)


def _check_symmetric(m: np.ndarray, name: str, tol: float = 1e-10) -> np.ndarray:
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > tol * scale:
        raise ParameterError(f"{name} operand must be symmetric")
    return 0.5 * (m + m.T)


def sign_flips(v: np.ndarray) -> np.ndarray:
    """+-1 per column of v, making each column's largest-magnitude entry positive.

    Eigenvectors carry arbitrary signs; ``v * sign_flips(v)`` pins them,
    so results do not depend on the LAPACK build. Among entries of equal
    magnitude the first decides.
    """
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(peak < 0.0, -1.0, 1.0)


def gen_eig_smallest(aop, bop, k: int,
                     ridge: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of the symmetric pencil A v = w (B + ridge I) v.

    Parameters
    ----------
    aop, bop : (n, n) symmetric arrays. B must be positive semi-definite;
        the ridge makes the regularised operand definite.
    k : number of pairs, 1 <= k <= n.
    ridge : nonnegative shift added to B. None selects the default
        relative ridge 1e-9 * trace(B) / n, and raises NumericError when
        that is not positive (B is zero up to round-off).

    Returns (w, V): the k eigenvalues ascending and the C-ordered (n, k)
    eigenvectors as columns. Each column v is normalised so
    v^T (B + ridge I) v = 1, and its sign by ``sign_flips``.
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
        trace = float(np.trace(b))
        ridge = DEFAULT_RIDGE_SCALE * trace / n
        if not ridge > 0.0:  # a zero scatter (coincident points) has a trace of round-off
            raise NumericError(
                f"right operand is degenerate: the centered scatter has trace {trace:g}, "
                f"so the default ridge {ridge:g} is not positive"
            )
    elif ridge < 0.0:
        raise ParameterError(f"ridge must be nonnegative, got {ridge}")
    b_reg = b + ridge * np.eye(n)
    try:
        w, v = scipy.linalg.eigh(a, b_reg, subset_by_index=(0, k - 1))
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(
            f"right operand not positive definite with ridge {ridge:g}"
        ) from exc
    return w, np.multiply(v, sign_flips(v), order="C")
