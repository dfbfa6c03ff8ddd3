"""Dense linear-algebra kernels used by every stage of the pipeline.

Feature matrices follow the column-sample convention throughout: an
``(l, n)`` array holds n samples of dimension l. All routines take and
return plain dense arrays, and every array they make is numpy's own, on
the heap where tracemalloc sees it. Sizes run from a few hundred samples
to the n = 12000 of the size ladder, so the passes over all pairs of
columns work a block of rows at a time.
Every dense product goes through ``matmul`` and so, like every LAPACK
call here, runs on scipy's BLAS.

Distances are computed in place in their Gram product, and
``pairwise_sq_dists`` and ``kernel_matrix`` have one form, between the
columns of an x and a y, y = x when none is given. The passes over all
pairs of columns (the median bandwidth here, the kNN graph in
``graphs``) read one walker, ``_Distances``, built once per x:
it checks x and takes its column norms once, and yields the distances a
block of rows at a time, rows lo.. against columns lo.. (``upper``),
which ``widen`` extends to every column. No (n, n) array is held, every
pass sees the same bits for a pair i < j from row i, and every block is
``pairwise_sq_dists`` of its rows and columns bit for bit off the
diagonal. The median takes one walk: a seeded sample of pairs brackets
it beforehand, and the walk keeps the distances inside the bracket for
an exact selection, with two counting walks as the fallback when the
bracket misses. It fails with BandwidthError when no pair of columns is
apart, wherever it is taken. Features whose squared distances could
overflow fail with ParameterError.

``kernel_range`` finds the numerical range of the (n, n) kernel matrix
K of x with a seeded randomized sketch of l = 160 columns, in O(n^2 l).
The sketch reads K only through products, and takes each from x a panel
of K's rows at a time (``kernel_matrix`` of some columns against all, bit
for bit), so no (n, n) array is held; K is built and factored in full
only when the range is too wide for the sketch. A product checks x and
takes its transpose (and for rbf its norms) once, and writes every
panel into one (_PANEL_ROWS, n) buffer. Each product's basis is the Q of
LAPACK's level-3 Householder QR, dgeqrt and dgemqrt (``_orth``), whose
panels are factored and applied with gemm and trmm; geqrf + orgqr factor
a panel one level-2 reflector per column, on n-long vectors that
OpenBLAS's threads share at a loss. The sketch's draws are fixed, so a
result depends on x, the kernel and the BLAS alone.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .errors import BandwidthError, DimensionError, NumericError, ParameterError

# Relative ridge applied to the right-hand pencil operand, the centered
# scatter s H s^T of the (d, n) features or, in kernel mode, of the reduced
# (r, n) operand of ``kernel_range`` (not of the n x n K, whose scatter has
# rank <= r). It is singular only where that operand is degenerate (a
# constant feature, or the all-ones vector inside the range of K); the
# ridge keeps it definite there.
DEFAULT_RIDGE_SCALE = 1e-9

# ``kernel_range``'s randomized range finder: the columns l of its
# Gaussian test matrix, the margin below l a range must stay under for
# the sketch to be trusted, and the seed of the test matrix.
_SKETCH_COLS = 160
_SKETCH_OVERSAMPLE = 16
_SKETCH_SEED = 0x5EED

# Columns per panel of ``_orth``'s QR: LAPACK's own block size for geqrf.
_QR_BLOCK = 32

# Entries per (rows, n) block temporary of the distance passes, and of
# the blocked loops over an (m, n) array.
_BLOCK = 1 << 16

# Rows per panel of a product whose (n, l) right operand each panel reads
# whole (``_row_panels``): the kernel sketch's panels of K and
# ``graphs.EdgeGraph.times``. Thin panels read that operand again and
# again. On the rbf kernel-mid workload (n = 1800, l = 160, 2 BLAS
# threads on a 2-vCPU x86-64 host), 64-row panels held the process's
# peak RSS to 74.1-74.4 MB against 75.0-75.3 MB at 128 rows, but ran
# slower in 3 of 3 paired runs (0.265-0.277 against 0.247-0.260 s) and
# took up to 4 % longer per product K m; 256-row panels peaked at
# 77.5-77.6 MB.
_PANEL_ROWS = 128

# The median's bracket (``_bracket``): the pairs of columns sampled for
# it, the sample's seed, and its half width in standard deviations of the
# sample median's rank (sqrt(m) / 2 for m sampled values). The walk keeps
# the values inside it, up to twice as many as the sample predicts; a
# bracket predicted to hold more than half of _KEPT_BUDGET values goes
# straight to the counting walks.
_SAMPLE_PAIRS = 1 << 14
_SAMPLE_SEED = 0x3ED1A
_BRACKET_SIGMAS = 5.0
_KEPT_BUDGET = 1 << 19

# The counting walks' buckets: the top 16 bits of a positive double's
# pattern (the zero sign bit, 11 exponent bits and 4 mantissa bits), 2^15
# in all.
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


def matmul(a: np.ndarray, b: np.ndarray, alpha: float = 1.0, *,
           out: np.ndarray | None = None) -> np.ndarray:
    """alpha * (a @ b) for 2-D float64 operands, computed by scipy's dgemm.

    numpy and scipy each bundle an OpenBLAS with its own thread pool, and
    after a call a pool's workers keep spinning on the cores the other
    pool then waits for. Running products on the pool LAPACK already uses
    leaves one pool. dgemm works in Fortran order, so this computes
    (a b)^T = b^T a^T: the transpose of a C-ordered array is a
    Fortran-ordered view, and the Fortran-ordered result read transposed
    is the C-ordered a b. No contiguous operand and no result is copied.
    A power-of-two alpha scales every rounded partial sum exactly (short of
    overflow or underflow), so the result is alpha times the product bit
    for bit, with no pass of its own.

    ``out``, when given, is a C-ordered, writeable float64 array of the
    product's shape; dgemm writes the product into it, the same bits as
    into a fresh array, and it is returned. It must not overlap either
    operand, which dgemm reads while it writes. DimensionError for an
    ``out`` of another shape, dtype or layout, or a read-only one.
    """
    at, trans_b = _blas_operand(a)
    bt, trans_a = _blas_operand(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes {a.shape} and {b.shape} do not chain")
    # With beta = 0 dgemm writes every entry of c, so c is not zeroed first
    # (the array f2py would allocate is, at the cost of one more pass).
    if out is None:
        c = np.empty((b.shape[1], a.shape[0]), order="F")
    elif (out.shape == (a.shape[0], b.shape[1]) and out.dtype == np.float64
          and out.flags.c_contiguous and out.flags.writeable):
        c = out.T
    else:
        raise DimensionError(f"matmul needs a C-ordered, writeable float64 out of shape "
                             f"{(a.shape[0], b.shape[1])}, got {out.dtype} {out.shape}")
    if c.size:  # else there is nothing to compute, and f2py rejects an empty c
        c = blas.dgemm(alpha, bt, at, c=c, overwrite_c=True, trans_a=trans_a, trans_b=trans_b)
    return c.T if out is None else out


def _as_feature_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"feature matrix must be 2-D, got shape {x.shape}")
    if x.shape[1] == 0:
        raise ParameterError("feature matrix has no samples")
    if not np.isfinite(x).all():
        raise ParameterError("feature matrix contains non-finite entries")
    return x


def pairwise_sq_dists(x, y=None, *, norms=None, out=None, own=None) -> np.ndarray:
    """Squared Euclidean distances between the columns of ``x`` and ``y``.

    The (m, n') distances from each column of the (d, m) x to each column
    of the (d, n') y; with ``y`` None, y is x.

    Each entry is (|x_i|^2 + |y_j|^2) - 2 x_i.y_j, written in place into
    the one dgemm product -2 x^T y a block of rows at a time, so the only
    large array is the one returned. An entry below the rounding error of
    that expression, 2 gamma_d (|x_i|^2 + |y_j|^2) with
    gamma_d = d eps / (1 - d eps) (Higham 2002, section 3.1), is set to
    0: coincident columns are exactly 0 apart on any BLAS, a column's
    distance to itself among them, and no distance is negative.

    ``norms``, when given, is the pair (|x_i|^2, |y_j|^2) as ``_sq_norms``
    took it for these columns of an x and y it checked: a caller reading
    many blocks of one checked x passes them, and neither operand is
    checked again. A column's norm does not depend on its neighbors, so the
    distances are the same bits either way. ``out`` is the array the
    product is written into, as ``matmul`` takes it. ``own`` says that
    column i of x is column own + i of y: those self pairs are then held
    at +inf through the cut's scan, so that a row is scanned only for the
    other columns near it, and set to 0.0 after it, the value the cut
    gives them. The result is the same bits with or without any of the
    three.
    """
    if norms is None:
        x = _as_feature_matrix(x)
        y = x if y is None else _as_feature_matrix(y)
        if y.shape[0] != x.shape[0]:
            raise DimensionError(f"feature dims differ: {x.shape[0]} and {y.shape[0]}")
        norms = _sq_norms(x), _sq_norms(y)
    elif y is None:
        y = x
    if own is not None and not 0 <= own <= y.shape[1] - x.shape[1]:
        raise DimensionError(f"columns {own}..{own + x.shape[1]} of y are not x's "
                             f"{x.shape[1]} columns: y has {y.shape[1]}")
    d = matmul(x.T, y, alpha=-2.0, out=out)
    _sq_dists_in_place(d, *norms, x.shape[0], own=own)
    if own is not None:
        np.fill_diagonal(d[:, own:], 0.0)
    return d


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """|x_j|^2 for each column of x, its squares summed in row order.

    So a column's bits depend neither on its neighbors nor on x's layout:
    the norms of some columns of x, a view or a gathered copy (which
    numpy makes F-ordered), are those columns' entries of the norms of x.
    (``einsum`` sums that way only over a C-ordered x of two or more
    columns.) ParameterError when the squared norms, their pairwise sums
    or the squared distances those bound could overflow:
    |x_i - y_j|^2 <= 2 (|x_i|^2 + |y_j|^2), so 4 max|x_j|^2 must be
    finite. Every distance pass takes its norms here, and would otherwise
    return inf or NaN.
    """
    sq, square = np.zeros(x.shape[1]), np.empty(x.shape[1])
    with np.errstate(over="ignore"):  # an overflow raises below
        for row in x:
            sq += np.multiply(row, row, out=square)
    if not sq.max(initial=0.0) <= np.finfo(float).max / 4.0:
        raise ParameterError("squared column norms overflow: the features are too large "
                             "for finite squared distances")
    return sq


def _cut_bound(dim: int) -> float:
    """2 gamma_dim: a squared distance under this times |x_i|^2 + |y_j|^2 is rounding."""
    eps = np.finfo(float).eps
    return 2.0 * dim * eps / (1.0 - dim * eps)


def _sq_dists_in_place(g: np.ndarray, sq_rows: np.ndarray, sq_cols: np.ndarray,
                       dim: int, own: int | None = None) -> None:
    """g <- (sq_rows_i + sq_cols_j) + g_ij in place for g = -2 x^T y, cut below the error bound.

    An entry under 2 gamma_dim (sq_rows_i + sq_cols_j) is set to 0. Only
    entries under the bound of their row's largest sum can be, and only
    rows whose least entry is, so those rows are scanned for them and each
    is then held to its own bound. With ``own``, entry (i, i + own) pairs
    a column with itself and is set to +inf before the scan.
    """
    bound = _cut_bound(dim)
    widest = sq_cols.max(initial=0.0)
    for rows in _row_blocks(g.shape[0], g.shape[1]):
        block, sq = g[rows], sq_rows[rows]
        # (-2g) + s is s - 2g bit for bit: the sum is the same one.
        block += np.add(sq[:, None], sq_cols[None, :])
        if own is not None:
            r = np.arange(block.shape[0])
            c = rows.start + own + r
            at = (c >= 0) & (c < block.shape[1])
            block[r[at], c[at]] = np.inf
        reach = bound * (sq + widest)
        near = np.flatnonzero(block.min(axis=1, initial=np.inf) < reach)
        i, j = np.divmod(np.flatnonzero(block[near] < reach[near, None]), block.shape[1])
        i = near[i]
        cut = block[i, j] < bound * (sq[i] + sq_cols[j])
        block[i[cut], j[cut]] = 0.0


def _row_blocks(m: int, n: int) -> list[slice]:
    """Slices of consecutive rows of an (m, n) array, each about _BLOCK entries."""
    step = max(1, _BLOCK // max(n, 1))
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _row_panels(n: int) -> list[slice]:
    """Slices of _PANEL_ROWS consecutive rows of an (n, .) array, the last one shorter."""
    return [slice(lo, min(lo + _PANEL_ROWS, n)) for lo in range(0, n, _PANEL_ROWS)]


def _rows_operand(x: np.ndarray, xt: np.ndarray, rows: slice) -> np.ndarray:
    """The left operand x[:, rows]^T of a product over some columns of x, as matmul takes it.

    The view when it is contiguous, which matmul passes as is; else
    xt[rows], xt the C-ordered x^T: the copy matmul would make of the view.
    """
    left = x[:, rows].T
    return left if left.flags.c_contiguous or left.flags.f_contiguous else xt[rows]


class _Distances:
    """The squared distances among the columns of one x, a block of rows at a time.

    x is checked and its column norms taken once, and x^T is held
    C-ordered, so a block costs its product and its add-and-cut pass.
    Off the diagonal, the block of rows r and columns c is
    ``pairwise_sq_dists(x[:, r], x[:, c])`` bit for bit: its left operand
    is the C-ordered copy of x[:, r]^T that call makes, and its right
    operand is passed as that call passes it, copied C-ordered unless
    contiguous. A transposed view of x^T there would change dgemm's
    transpose flag, and with it the bits. A column's distance to itself
    reads +inf: the median reads only the pairs i < j, and the kNN graph
    never takes a point as its own neighbor.
    """

    def __init__(self, x):
        self.x = _as_feature_matrix(x)
        self.sq = _sq_norms(self.x)
        self.xt = np.ascontiguousarray(self.x.T)

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """The (rows, cols) block of the distances, the self pairs at +inf."""
        d2 = matmul(_rows_operand(self.x, self.xt, rows), self.x[:, cols], alpha=-2.0)
        _sq_dists_in_place(d2, self.sq[rows], self.sq[cols], self.x.shape[0],
                           own=rows.start - cols.start)
        return d2

    def upper(self):
        """(rows, d2) per row block: d2[r, c] is the distance from column lo + r to lo + c."""
        n = self.x.shape[1]
        for rows in _row_blocks(n, n):
            yield rows, self.block(rows, slice(rows.start, n))

    def widen(self, rows: slice, upper: np.ndarray) -> np.ndarray:
        """The distances from ``rows`` to every column, from their ``upper`` block.

        It consumes that block. The columns before lo are a product of
        their own; the mirror of an earlier upper block would not be the
        same bits.
        """
        lo = rows.start
        if not lo:
            return upper
        d2 = np.empty((upper.shape[0], self.x.shape[1]))
        d2[:, lo:] = upper
        del upper
        d2[:, :lo] = self.block(rows, slice(0, lo))
        return d2


def _strict_upper(block: np.ndarray, positive: bool = False) -> np.ndarray:
    """The entries (r, c), c > r, of an ``_Distances.upper`` block, row by row.

    Those are the distances of pairs i < j, each once. ``positive`` keeps
    only the entries > 0.
    """
    keep = block > 0.0 if positive else np.ones(block.shape, dtype=bool)
    lead = keep[:, :keep.shape[0]]
    lead[np.tri(*lead.shape, dtype=bool)] = False
    return block[keep]


def _bucket(vals: np.ndarray) -> np.ndarray:
    """Bucket of each positive double: the top bits of its IEEE pattern.

    For positive doubles the bit pattern read as an integer is monotone in
    the value, so buckets are ordered as their values are.
    """
    return vals.view(np.int64) >> _BUCKET_SHIFT


class _MedianCount:
    """The median's counting walk, fed the positive squared distances a block at a time.

    The fallback of ``_MedianSelect``. Tallies the values by bucket, and
    keeps them while they total at most _BLOCK, so that a second walk
    over the blocks is needed only past that.
    """

    def __init__(self):
        self.counts = np.zeros(_BUCKETS, dtype=np.int64)
        self.kept: list[np.ndarray] | None = []
        self.size = 0

    def add(self, vals: np.ndarray) -> None:
        self.counts += np.bincount(_bucket(vals), minlength=_BUCKETS)
        self.size += vals.size
        if self.kept is not None:
            self.kept.append(vals)
            if self.size > _BLOCK:
                self.kept = None

    def median(self, again) -> float:
        """Median of the square roots of the counted values.

        BandwidthError when none was counted: no pair of points is apart,
        and a zero bandwidth has no Gaussian. ``again`` yields the same
        values again in blocks; it is read only if they were not kept.
        The blocks' entries in the bucket or buckets holding the middle
        ranks are gathered, and a partition of those picks the middle
        value(s).
        """
        counts = self.counts
        cum = np.cumsum(counts)
        m = int(cum[-1])
        if m == 0:
            raise BandwidthError("all points coincide; median bandwidth is zero")
        middle = np.array([(m - 1) // 2, m // 2])
        first, last = np.searchsorted(cum, middle, side="right")
        picked = []
        for vals in self.kept if self.kept is not None else again:
            b = _bucket(vals)
            picked.append(vals[(b >= first) & (b <= last)])
        middle -= cum[first] - counts[first]
        return _middle_distance(np.concatenate(picked), middle)


def _middle_distance(vals: np.ndarray, middle: np.ndarray) -> float:
    """The mean of the square roots of the values of ranks middle[0] and middle[1] in vals.

    The ranks are equal or consecutive. vals is partitioned in place at
    the first, and the second is the least value after it: numpy's
    partition at two ranks takes several times as long. sqrt is monotone,
    so their square roots are the middle distances, and the mean of those
    is np.median's own last step: the result equals np.median of all the
    square roots bit for bit.
    """
    first, last = int(middle[0]), int(middle[1])
    vals.partition(first)
    picked = [vals[first]] if last == first else [vals[first], vals[last:].min()]
    return float(np.mean(np.sqrt(picked)))


def _bracket(walk: _Distances) -> tuple[float, float, int] | None:
    """(lo, hi, room): bounds around the median of a walk's positive distances.

    room is the most values in [lo, hi] the walk may keep. With at most
    _BLOCK pairs the bracket holds every positive distance. Past that,
    _SAMPLE_PAIRS pairs i != j are drawn from a fixed seed, and their
    distances taken from the walker's x^T and norms a chunk at a time,
    those under the walker's cut as 0. The bounds are the sample's ranks
    m/2 -+ _BRACKET_SIGMAS sqrt(m)/2 among its m positive distances (Floyd
    & Rivest, "Expected time bounds for selection", CACM 1975), and room
    is twice the count the sample predicts between them. The pairs are
    drawn independently: pairs that share points, such as those among a
    subset of the columns, spread their ranks more than the bracket
    allows. None, to count instead, when the sample holds no positive
    distance or room would pass _KEPT_BUDGET.
    """
    n = walk.x.shape[1]
    pairs = n * (n - 1) // 2
    if pairs <= _BLOCK:
        return np.nextafter(0.0, 1.0), np.finfo(float).max, pairs
    rng = np.random.default_rng(_SAMPLE_SEED)
    first = rng.integers(0, n, _SAMPLE_PAIRS)
    second = rng.integers(0, n - 1, _SAMPLE_PAIRS)
    second += second >= first
    sample = np.empty(_SAMPLE_PAIRS)
    bound = _cut_bound(walk.x.shape[0])
    for part in _row_blocks(_SAMPLE_PAIRS, walk.x.shape[0]):
        i, j = first[part], second[part]
        sums = walk.sq[i] + walk.sq[j]
        d2 = sums - 2.0 * np.einsum("ij,ij->i", walk.xt[i], walk.xt[j])
        d2[d2 < bound * sums] = 0.0
        sample[part] = d2
    positive = np.sort(sample[sample > 0.0])
    m = positive.size
    if not m:
        return None
    half = _BRACKET_SIGMAS * np.sqrt(m) / 2.0
    low, high = int(np.floor((m - 1) / 2.0 - half)), int(np.ceil((m - 1) / 2.0 + half))
    lo = positive[low] if low >= 0 else np.nextafter(0.0, 1.0)
    hi = positive[high] if high < m else np.finfo(float).max
    inside = np.count_nonzero((sample >= lo) & (sample <= hi))
    room = 2 * int(np.ceil(pairs * inside / _SAMPLE_PAIRS))
    return (lo, hi, room) if room <= _KEPT_BUDGET else None


class _MedianSelect:
    """The median of the positive distances of one walk, fed its ``upper`` blocks.

    Per block, the pairs i < j below the bracket of ``_bracket`` are
    counted, the zeros among them too, and those inside it are kept, up
    to its room. When the middle ranks land among the kept values, one
    partition of those gives the median, and the walk is the only one.
    When they miss, or the kept values pass the room, or ``_bracket``
    gave none, the counting walks of ``_MedianCount`` decide. The bracket
    decides only which of these runs: each gives np.median of the nonzero
    distances bit for bit.
    """

    def __init__(self, walk: _Distances):
        bracket = _bracket(walk)
        self.count = _MedianCount() if bracket is None else None
        self.kept = None
        if bracket is not None:
            self.lo, self.hi, room = bracket
            self.kept = np.empty(room)
        self.size = self.zeros = self.below = self.at = 0
        self.lower: dict[int, np.ndarray] = {}  # np.tri(k) per block height k

    def add(self, block: np.ndarray) -> None:
        """Count and keep the pairs of an ``_Distances.upper`` block."""
        if self.count is not None:
            self.count.add(_strict_upper(block, positive=True))
            return
        if self.kept is None:
            return  # past the room: the counting walks decide
        lo, hi = self.lo, self.hi
        below = block < lo
        inside = block <= hi
        np.not_equal(inside, below, out=inside)
        # The leading square's entries on and below its diagonal are the
        # self pairs and pairs of earlier rows: taken back out.
        k = block.shape[0]
        own = self.lower.get(k)
        if own is None:
            own = self.lower[k] = np.tri(k, dtype=bool)
        lead = block[:, :k][own]
        inside[:, :k][own] = False
        self.size += block.size - lead.size
        self.zeros += np.count_nonzero(block == 0.0) - np.count_nonzero(lead == 0.0)
        self.below += np.count_nonzero(below) - np.count_nonzero(lead < lo)
        count = np.count_nonzero(inside)
        if self.at + count > self.kept.size:
            self.kept = None
            return
        self.kept[self.at:self.at + count] = block[inside]
        self.at += count

    def median(self, again) -> float:
        """The median distance; ``again()`` yields the positive distances of a fresh walk.

        BandwidthError when no pair is apart. The positive distances below
        the bracket number ``below - zeros``, so the middle ranks fall at
        ``middle + zeros - below`` among the kept values.
        """
        if self.count is not None:
            return self.count.median(again())
        m = self.size - self.zeros
        if m == 0:
            raise BandwidthError("all points coincide; median bandwidth is zero")
        middle = np.array([(m - 1) // 2, m // 2]) + (self.zeros - self.below)
        if self.kept is not None and middle[0] >= 0 and middle[1] < self.at:
            return _middle_distance(self.kept[:self.at], middle)
        count = _MedianCount()
        for vals in again():
            count.add(vals)
        return count.median(again())


def median_pairwise_distance(x) -> float:
    """Median of the nonzero pairwise Euclidean distances between the columns of x.

    Taken from x in one walk of row blocks, each block the distances from
    its columns to those after it (``_Distances.upper``); no (n, n) array
    is held. Before the walk, a seeded sample of pairs brackets the median;
    the walk counts the distances under the bracket and keeps those inside
    it, and a partition of the kept values picks the middle ones
    (``_MedianSelect``). With at most _BLOCK pairs every positive distance
    is kept. Should the middle ranks fall outside the bracket, or the
    bracket hold too many distances to keep, the walks of ``_MedianCount``
    select them exactly by counting: two more, or one more when the sample
    already predicts too many and the first walk counts. The sample moves
    only the bracket, never the result, which equals np.median of the
    nonzero distances bit for bit.

    The bandwidth of a kernel or affinity of x with no sigma given: fails
    with BandwidthError when no pair of columns is apart.
    """
    walk = _Distances(x)
    select = _MedianSelect(walk)
    for _, block in walk.upper():
        select.add(block)
    return select.median(lambda: (_strict_upper(b, positive=True) for _, b in walk.upper()))


def gaussian_in_place(d2: np.ndarray, sigma: float) -> np.ndarray:
    """d2 <- exp(d2 / (-2 sigma^2)) in place: Gaussian weights of squared distances."""
    np.divide(d2, -2.0 * sigma * sigma, out=d2)
    return np.exp(d2, out=d2)


def kernel_matrix(x, kind: str, *, sigma: float | None = None, degree: int = 2,
                  y=None, norms=None, out=None, own=None) -> np.ndarray:
    """The (m, n') block k(x_i, y_j) of the named kernel between the columns of x and y.

    kind is one of "linear", "rbf" (needs sigma > 0, k = exp(-d^2 / 2 sigma^2))
    or "poly" (degree >= 1, k = (x.y + 1)^degree), x is (d, m) and y
    (d, n'). With ``y`` None, y is x, and the result is the (n, n) K of
    the columns of x, symmetric to within rounding; a panel of K's rows is
    the block of some columns x against every column y. rbf takes its
    distances from ``pairwise_sq_dists`` and its weights in place in that
    one array, and poly its power in place in the Gram product.

    ``norms``, ``out`` and ``own`` serve a caller that takes many panels
    of one K (``_kernel_times``). The block is written into ``out``, as
    ``matmul`` takes it. rbf passes ``norms`` and ``own`` on to
    ``pairwise_sq_dists``: with ``norms`` neither operand is checked
    again, and ``own`` sets the self pairs without a scan; linear and
    poly read neither. The block is the same bits with or without them.
    """
    if norms is None:
        x = _as_feature_matrix(x)
        y = x if y is None else _as_feature_matrix(y)
        if y.shape[0] != x.shape[0]:
            raise DimensionError(f"feature dims differ: {x.shape[0]} and {y.shape[0]}")
    elif y is None:
        y = x
    if kind == "linear":
        return matmul(x.T, y, out=out)
    if kind == "rbf":
        if sigma is None or not sigma > 0.0:
            raise ParameterError(f"rbf kernel needs sigma > 0, got {sigma}")
        return gaussian_in_place(pairwise_sq_dists(x, y, norms=norms, out=out, own=own), sigma)
    if kind == "poly":
        if int(degree) != degree or degree < 1:
            raise ParameterError(f"poly kernel needs integer degree >= 1, got {degree}")
        k = matmul(x.T, y, out=out)
        k += 1.0
        k **= int(degree)
        return k
    raise ParameterError(f"unknown kernel kind {kind!r}")


def kernel_range(x, kind: str, *, sigma: float | None = None,
                 degree: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The factor of the kernel matrix of x restricted to its numerical range.

    K is ``kernel_matrix(x, kind, sigma=sigma, degree=degree)``, the
    symmetric (n, n) U diag(w) U^T; the r eigenpairs with
    w > n * eps * max(w) are kept, the rank rule of numpy's
    ``matrix_rank``. Returns (U_r, w_r): U_r is (n, r) orthonormal and
    w_r the r kept eigenvalues, ascending. With the reduced data operand
    S_r = diag(w_r) U_r^T, an expansion a = U_r c embeds the samples as
    a^T K = c^T S_r, so a kernel pencil over a restricted to the range of
    K is the primal pencil of S_r; the null space of K adds nothing to
    a^T K and is dropped.

    For n >= 2 l (l = _SKETCH_COLS) the pairs come from ``_sketch``, a
    seeded randomized range finder that costs O(n^2 l) instead of the
    O(n^3) of a full eigendecomposition. It reads K only through the
    products K M of ``_kernel_times``, each taken from x a panel of K's
    rows at a time, so K is never held. When the cut keeps l -
    _SKETCH_OVERSAMPLE or more of the sketch's l directions, the sketch
    has saturated and may miss part of the range; it is dropped and K is
    built and factored exactly, as it is for n < 2 l.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and not x.shape[1]:
        raise DimensionError(f"kernel matrix must be nonempty, got x of shape {x.shape}")
    x = _as_feature_matrix(x)
    n = x.shape[1]
    if n >= 2 * _SKETCH_COLS:
        q, w, v = _sketch(lambda m: _kernel_times(x, kind, sigma, degree, m), n)
        keep = _range_cut(w, n)
        if np.count_nonzero(keep) < _SKETCH_COLS - _SKETCH_OVERSAMPLE:
            return matmul(q, v[:, keep]), w[keep]
        del q, w, v  # saturated: freed before K is built
    k = kernel_matrix(x, kind, sigma=sigma, degree=degree)
    # K's transpose is a Fortran-ordered view, which LAPACK factors in
    # place: eigh copies nothing and reads the lower triangle of K^T, that
    # is K's upper triangle, whose mirror K holds to within rounding. K is
    # dropped before u[:, keep] copies the kept columns.
    w, u = scipy.linalg.eigh(k.T, overwrite_a=True)
    del k
    keep = _range_cut(w, n)
    return u[:, keep], w[keep]


def _range_cut(w: np.ndarray, n: int) -> np.ndarray:
    """Mask of the ascending eigenvalues w above n * eps * max(w)."""
    return w > n * np.finfo(float).eps * max(float(w[-1]), 0.0)


def _orth(y: np.ndarray) -> np.ndarray:
    """The (n, l) Q of y = QR, n >= l, an orthonormal basis of the columns of y.

    y is Fortran-ordered and overwritten. LAPACK's dgeqrt factors it in
    panels of _QR_BLOCK columns, each factored recursively at level 3
    (Elmroth & Gustavson, IBM J. Res. Dev. 2000) and kept as a compact-WY
    block, and dgemqrt applies the blocks to [I_l; 0] with gemm and trmm.
    geqrf's panels apply one level-2 reflector (dlarf, a gemv and a ger)
    per column instead, which OpenBLAS threads on n-long vectors at a loss.
    The reflectors are dlarfg's, as geqrf's are, so Q's columns have
    geqrf + orgqr's signs. NumericError if LAPACK reports an illegal
    argument.
    """
    n, l = y.shape
    v, t, info = lapack.dgeqrt(min(_QR_BLOCK, l), y, overwrite_a=1)
    if info:
        raise NumericError(f"dgeqrt failed with info {info}")
    q = np.zeros((n, l), order="F")
    np.fill_diagonal(q, 1.0)
    q, info = lapack.dgemqrt(v, t, q, overwrite_c=1)
    if info:
        raise NumericError(f"dgemqrt failed with info {info}")
    return q


def _kernel_times(x, kind: str, sigma: float | None, degree: int,
                  m: np.ndarray) -> np.ndarray:
    """K m for the kernel matrix K of x, a panel of K's rows at a time: Fortran-ordered.

    Each panel is ``kernel_matrix(x[:, rows], kind, ..., y=x)``, written
    into one (_PANEL_ROWS, n) buffer and its product with m into one
    (_PANEL_ROWS, l) buffer, both made once per call. x is checked and its
    C-ordered transpose taken once; the panel's left operand is the
    transpose's rows, the copy of x[:, rows]^T that matmul would make. For
    rbf x's squared norms are taken once too, so a panel checks nothing
    again, and its self pairs are set without a scan (``own``); a linear
    or poly panel checks its operands, one pass over x beside its
    (_PANEL_ROWS, n) product.
    """
    x = _as_feature_matrix(x)
    n = x.shape[1]
    xt = np.ascontiguousarray(x.T)
    sq = _sq_norms(x) if kind == "rbf" else None
    out = np.empty((n, m.shape[1]), order="F")
    height = min(n, _PANEL_ROWS)
    panels, products = np.empty((height, n)), np.empty((height, m.shape[1]))
    for rows in _row_panels(n):
        panel = kernel_matrix(_rows_operand(x, xt, rows).T, kind, sigma=sigma, degree=degree,
                              y=x, norms=None if sq is None else (sq[rows], sq),
                              out=panels[:rows.stop - rows.start], own=rows.start)
        out[rows] = matmul(panel, m, out=products[:panel.shape[0]])
    return out


def _sketch(times, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, w, V): K ~ (Q V) diag(w) (Q V)^T for the symmetric (n, n) K that ``times`` applies.

    Halko, Martinsson & Tropp, "Finding structure with randomness" (SIAM
    Review 2011), Algorithms 4.4 and 5.3 with one power iteration: Q is
    an (n, l) orthonormal basis of K K Omega for an (n, l) Gaussian Omega
    drawn from a fixed seed, and (w, V) are the eigenpairs of the l x l
    Q^T K Q, w ascending. ``times(M)`` returns the Fortran-ordered K M.
    Each Q is ``_orth``'s, LAPACK's dgeqrt + dgemqrt: level-3 panels,
    against the level-2 ``dlarf`` per column of geqrf + orgqr, which
    OpenBLAS threads on n-long vectors at a loss.
    """
    # Each product's input is dropped before its QR, so that besides the
    # panel of K only two (n, l) arrays are alive at once: y, which the QR
    # overwrites, and the Q it writes.
    q = np.random.default_rng(_SKETCH_SEED).standard_normal((n, _SKETCH_COLS))
    for _ in range(2):
        y = times(q)
        del q
        q = _orth(y)
        del y
    b = matmul(q.T, times(q))
    w, v = scipy.linalg.eigh(0.5 * (b + b.T), overwrite_a=True, check_finite=False)
    return q, w, v


def centering_matrix(s) -> np.ndarray:
    """s H for H = I - (1/n) 11^T: each row of the (l, n) s minus its mean.

    H itself is never formed; the centered scatter s H s^T is
    ``matmul(centering_matrix(s), s.T)``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ParameterError(f"centering needs an (l, n) operand with n >= 1, got {s.shape}")
    return s - s.mean(axis=1, keepdims=True)


def _check_symmetric(m: np.ndarray, name: str, tol: float = 1e-10) -> None:
    """ParameterError unless the square m is symmetric to within tol * max(1, max|m|)."""
    skew = np.abs(m - m.T).max(initial=0.0)
    if skew > tol * max(1.0, np.abs(m).max(initial=0.0)):
        raise ParameterError(f"{name} operand must be symmetric")


def sign_flips(v: np.ndarray) -> np.ndarray:
    """+-1 per column of v, making each column's largest-magnitude entry positive.

    Eigenvectors carry arbitrary signs; ``v * sign_flips(v)`` pins them,
    so results do not depend on the LAPACK build. Among entries of equal
    magnitude the first decides.
    """
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(peak < 0.0, -1.0, 1.0)


def gen_eig_smallest(aop, bop, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of the symmetric pencil A v = w (B + ridge I) v.

    Parameters
    ----------
    aop, bop : (n, n) symmetric arrays, each checked to be symmetric to
        within 1e-10 * max(1, max|entry|); eigh reads one triangle of
        each. B must be positive semi-definite; the ridge
        1e-9 * trace(B) / n makes the regularised operand definite, and
        NumericError is raised when that is not positive (B is zero up
        to round-off).
    k : number of pairs, 1 <= k <= n.

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
    _check_symmetric(a, "left")
    _check_symmetric(b, "right")
    trace = float(np.trace(b))
    ridge = DEFAULT_RIDGE_SCALE * trace / n
    if not ridge > 0.0:  # a zero scatter (coincident points) has a trace of round-off
        raise NumericError(
            f"right operand is degenerate: the centered scatter has trace {trace:g}, "
            f"so the ridge {ridge:g} is not positive"
        )
    b_reg = b + ridge * np.eye(n)
    try:
        w, v = scipy.linalg.eigh(a, b_reg, subset_by_index=(0, k - 1))
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(
            f"right operand not positive definite with ridge {ridge:g}"
        ) from exc
    return w, np.multiply(v, sign_flips(v), order="C")
