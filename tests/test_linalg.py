from __future__ import annotations

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import blas

from dbmmd import linalg
from dbmmd.errors import BandwidthError, DimensionError, NumericError, ParameterError
from dbmmd.linalg import (
    centering_matrix,
    gen_eig_smallest,
    kernel_matrix,
    kernel_range,
    median_pairwise_distance,
    pairwise_sq_dists,
    sign_flips,
)

from dense_reference import (dense_centering_matrix, dense_distance_rows, dense_kernel_range,
                             dense_median_pairwise_distance, dense_pairwise_sq_dists)


def loop_sq_dists(x):
    n = x.shape[1]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = float(np.sum((x[:, i] - x[:, j]) ** 2))
    return out


def charpoly_eigenvalues(a, b):
    """Roots of det(A - t B) via polynomial interpolation. Oracle only."""
    n = a.shape[0]
    ts = np.linspace(-3.0, 3.0, 2 * n + 1)
    vals = [np.linalg.det(a - t * b) for t in ts]
    coeffs = np.polyfit(ts, vals, n)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def median_of_sq_dists(d2):
    """The library's selection over the upper triangle of a given (n, n) d2, from a tally.

    A stand-in walker yields d2's row blocks as ``_Distances.upper`` does,
    the self pairs at +inf. With no sample bracket the first walk tallies
    the values by bucket, a second keeps the tally's bracket, and a
    partition of the kept values picks the middle ones, so crafted values
    reach the same code as ``median_pairwise_distance``'s fallback.
    """
    n = d2.shape[0]

    def upper():
        for rows in linalg._row_blocks(n, n):
            block = d2[rows, rows.start:].copy()
            np.fill_diagonal(block, np.inf)
            yield rows, block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_bracket", lambda walk: None)
        select = linalg._MedianSelect(SimpleNamespace(upper=upper))
    for _, block in upper():
        select.add(block)
    return select.median()


class TestPairwiseSqDists:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 6))
        assert_allclose(pairwise_sq_dists(x), loop_sq_dists(x), atol=1e-12)

    def test_cross_form_matches_loop_oracle(self):
        rng = np.random.default_rng(43)
        x, y = rng.normal(size=(5, 6)), rng.normal(size=(5, 4))
        d = pairwise_sq_dists(x, y)
        assert d.shape == (6, 4)
        assert_allclose(d, loop_sq_dists(np.hstack([x, y]))[:6, 6:], atol=1e-12)

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(3)
        d = pairwise_sq_dists(rng.normal(size=(4, 9)))
        assert np.all(np.diag(d) == 0.0)
        assert np.array_equal(d, d.T)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_any_input(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=rng.uniform(0.1, 50.0), size=(3, 7))
        d = pairwise_sq_dists(x)
        assert d.min() >= 0.0
        assert_allclose(d, d.T, atol=0)
        assert pairwise_sq_dists(x[:, :3], x).min() >= 0.0

    @pytest.mark.parametrize("n", [5, 64, 257, 300, 600])
    def test_bit_equal_to_out_of_place_expression(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(8, n))
        d = pairwise_sq_dists(x)
        expect = dense_pairwise_sq_dists(x, x)
        assert d.tobytes() == expect.tobytes()
        k = n // 3
        assert pairwise_sq_dists(x[:, :k], x[:, k:]).tobytes() == \
            dense_pairwise_sq_dists(x[:, :k], x[:, k:]).tobytes()

    @pytest.mark.parametrize("d, n", [(64, 300), (10, 3000)])
    def test_coincident_columns_are_exactly_zero(self, d, n):
        # one column repeated: x_i.x_j rounds differently from |x_i|^2, but
        # stays within the dot product's error bound, which is cut to 0
        x = np.tile(np.random.default_rng(d).normal(size=(d, 1)), (1, n))
        assert not pairwise_sq_dists(x[:, :300]).any()
        assert not pairwise_sq_dists(x[:, :7], x).any()

    def test_distances_above_the_bound_are_kept(self):
        # two columns eps-close relative to their norm survive the cut only
        # when they are farther apart than the bound
        x = np.ones((4, 3))
        x[0, 1] += 1e-6
        x[0, 2] += 1e-9
        d = pairwise_sq_dists(x)
        assert d[0, 1] > 0.0 and d[0, 2] == 0.0

    def test_rejects_non_finite(self):
        x = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ParameterError):
            pairwise_sq_dists(x)
        with pytest.raises(ParameterError):
            pairwise_sq_dists(np.ones((2, 2)), x)

    # squared norms past the largest double; finite norms whose sum is not;
    # finite sums under a squared distance that is not
    OVERFLOWING = ([[0.0, 1e200, 2e200, 3.0]], [[1e154, -1e154]], [[7e153, -7e153]])

    @pytest.mark.parametrize("x", OVERFLOWING)
    def test_rejects_overflowing_squared_norms(self, x):
        x = np.array(x)
        with pytest.raises(ParameterError, match="overflow"):
            pairwise_sq_dists(x)
        with pytest.raises(ParameterError, match="overflow"):
            pairwise_sq_dists(np.zeros((x.shape[0], 2)), x)
        with pytest.raises(ParameterError, match="overflow"):
            kernel_matrix(x, "rbf", sigma=1.0)
        with pytest.raises(ParameterError, match="overflow"):
            linalg._Distances(x)
        with pytest.raises(ParameterError, match="overflow"):
            median_pairwise_distance(x)

    def test_large_finite_features_keep_finite_distances(self):
        # just under the bound every distance is finite, and exact here
        x = np.array([[0.0, 5e153, -5e153]])
        d = pairwise_sq_dists(x)
        assert np.isfinite(d).all()
        assert d[1, 2] == d[2, 1] == 1e308

    def test_rejects_1d(self):
        with pytest.raises(DimensionError):
            pairwise_sq_dists(np.ones(4))
        with pytest.raises(DimensionError):
            pairwise_sq_dists(np.ones((2, 3)), np.ones((3, 3)))

    @pytest.mark.parametrize("lo, hi", [(0, 40), (40, 90), (0, 90), (89, 90)])
    def test_norms_out_and_own_keep_the_bits(self, lo, hi):
        # columns 5 and 6 coincide and column 7 is zero; the self pairs read
        # 0.0 whether the cut gives it or own sets it
        x = np.random.default_rng(hi).normal(size=(3, 90))
        x[:, 6], x[:, 7] = x[:, 5], 0.0
        want = pairwise_sq_dists(x[:, lo:hi], x)
        sq = linalg._sq_norms(x)
        out = np.full((hi - lo, 90), np.nan)
        got = pairwise_sq_dists(x[:, lo:hi], x, norms=(sq[lo:hi], sq), out=out, own=lo)
        assert got is out and got.tobytes() == want.tobytes()
        assert not np.diagonal(got[:, lo:]).any()
        assert pairwise_sq_dists(x[:, lo:hi], x, own=lo).tobytes() == want.tobytes()

    def test_rejects_an_own_outside_y(self):
        x = np.ones((2, 5))
        for own in (-1, 3):
            with pytest.raises(DimensionError, match="columns"):
                pairwise_sq_dists(x[:, :3], x, own=own)


def walker_x(d: int, n: int, kind: str) -> np.ndarray:
    """A (d, n) x: normal, rounded to a grid (ties and coincident columns), or Fortran-ordered."""
    x = np.random.default_rng(d * n).normal(size=(d, n))
    if kind == "grid":
        return np.round(2.0 * x)
    return np.asfortranarray(x) if kind == "fortran" else x


class TestDistanceWalker:
    @pytest.mark.parametrize("kind", ["normal", "grid", "fortran"])
    @pytest.mark.parametrize("d, n", [(64, 600), (2, 1800), (8, 700), (1, 300), (5, 200)])
    def test_blocks_equal_pairwise_sq_dists_off_the_diagonal(self, d, n, kind):
        # every block, upper and widened to every column as the kNN graph
        # reads it, against the checked public call on the same rows and
        # columns; only the self pairs differ (+inf)
        x = walker_x(d, n, kind)
        walk = linalg._Distances(x)
        for rows, block in walk.upper():
            want = pairwise_sq_dists(x[:, rows], x[:, rows.start:])
            own = np.arange(block.shape[0])
            assert np.all(block[own, own] == np.inf)
            block[own, own] = want[own, own]
            assert block.tobytes() == want.tobytes(), rows
        for rows, upper in walk.upper():
            block, lo = walk.widen(rows, upper), rows.start
            want = pairwise_sq_dists(x[:, rows], x[:, lo:])
            if lo:
                want = np.hstack([pairwise_sq_dists(x[:, rows], x[:, :lo]), want])
            own = np.arange(block.shape[0])
            assert np.all(block[own, lo + own] == np.inf)
            block[own, lo + own] = want[own, lo + own]
            assert block.tobytes() == want.tobytes(), rows

    def test_rows_scanned_for_the_cut_hold_every_cut_entry(self):
        # near-coincident columns far apart in index: their rows are the
        # only ones the cut scans, and they still come out exactly 0
        x = walker_x(16, 900, "normal")
        x[:, 850] = x[:, 3]
        x[:, 600] = x[:, 10] * (1.0 + 1e-17)
        walk = linalg._Distances(x)
        full = np.concatenate([walk.widen(rows, upper) for rows, upper in walk.upper()])
        assert full[3, 850] == full[850, 3] == full[10, 600] == full[600, 10] == 0.0
        assert np.count_nonzero(full == 0.0) == 4
        assert np.all(np.diag(full) == np.inf)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_distance_walker_holds_on_nehalem_kernels():
    # OpenBLAS's Nehalem kernels have no FMA, so their products round
    # differently; the walker's blocks must still equal pairwise_sq_dists
    # there bit for bit. A fresh interpreter, since the core type is read
    # at load time.
    root = Path(__file__).parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).relative_to(root)}::TestDistanceWalker"],
        capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]


class TestMedianPairwiseDistance:
    def test_ignores_zero_distances(self):
        x = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 4.0]])
        # distances: {0, 5, 5} -> median of nonzero = 5
        assert median_pairwise_distance(x) == 5.0

    def test_all_coincident_has_no_median(self):
        with pytest.raises(BandwidthError, match="all points coincide"):
            median_pairwise_distance(np.ones((2, 4)))

    def test_odd_and_even_pair_counts(self):
        # 3 pairs {1, 3, 2}: the middle one
        assert median_pairwise_distance([[0.0, 1.0, 3.0]]) == 2.0
        # 6 pairs {1, 3, 7, 2, 6, 4}: the mean of the middle two
        assert median_pairwise_distance([[0.0, 1.0, 3.0, 7.0]]) == 3.5
        # 6 pairs, one coincident: {1, 3, 1, 3, 2} leaves an odd count
        assert median_pairwise_distance([[0.0, 0.0, 1.0, 3.0]]) == 2.0
        # 10 pairs, two coincident: {1, 1, 1, 1, 4, 4, 5, 5} leaves an even count
        assert median_pairwise_distance([[0.0, 0.0, 1.0, 1.0, 5.0]]) == 2.5

    def test_all_coincident_precomputed_has_no_median(self):
        # no pair apart, or no pair at all
        for d2 in (np.zeros((5, 5)), np.zeros((1, 1))):
            with pytest.raises(BandwidthError):
                median_of_sq_dists(d2)
        with pytest.raises(BandwidthError):
            median_pairwise_distance(np.zeros((3, 1)))

    @pytest.mark.parametrize("seed", range(12))
    def test_precomputed_matches_recomputed_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 20 + seed  # both parities of n and of the pair count
        if seed % 2:
            x = rng.integers(0, 3, size=(2, n)).astype(float)  # ties and coincident pairs
        else:
            x = rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-3, 3)
        d2 = dense_distance_rows(x)
        expect = dense_median_pairwise_distance(d2)
        assert median_pairwise_distance(x) == expect
        assert median_of_sq_dists(d2) == expect

    def test_rejects_non_matrix_features(self):
        with pytest.raises(DimensionError):
            median_pairwise_distance(np.zeros(4))
        with pytest.raises(DimensionError):
            median_pairwise_distance(np.zeros((2, 3, 4)))
        with pytest.raises(ParameterError):
            median_pairwise_distance([[0.0, np.inf]])

    @pytest.mark.parametrize("x", [
        [[0.0, 2.0]],  # n = 2, one pair
        [[1.0, 1.0, 1.0, 1.0, 1.0]],  # all points coincident: BandwidthError
        [[0.0, 0.0, 0.0, 3.0, 3.0]],  # one positive value among zeros
        [[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]],  # square corners: two values
        [[0.0, 1.0, 0.5], [0.0, 0.0, 0.75 ** 0.5]],  # equilateral: all distances equal
    ])
    def test_blocked_selection_on_small_cases(self, x):
        x = np.array(x)
        d2 = dense_distance_rows(x)
        if not (d2 > 0.0).any():
            with pytest.raises(BandwidthError):
                median_pairwise_distance(x)
            return
        assert median_pairwise_distance(x) == dense_median_pairwise_distance(d2)

    def test_one_positive_pair(self):
        d2 = np.zeros((5, 5))
        d2[1, 3] = d2[3, 1] = 4.0
        assert median_of_sq_dists(d2) == dense_median_pairwise_distance(d2) == 2.0

    def test_all_distances_equal(self):
        # a regular simplex: every positive entry is the same squared distance
        d2 = np.full((40, 40), 2.0)
        np.fill_diagonal(d2, 0.0)
        assert median_of_sq_dists(d2) == dense_median_pairwise_distance(d2)
        assert median_of_sq_dists(d2) == np.sqrt(2.0)
        # the unit vectors of R^40 are such a simplex, with exact distances
        assert median_pairwise_distance(np.eye(40)) == np.sqrt(2.0)

    # B is the first double of a median bucket, its predecessor the last of the one before
    B = (np.array([1.0]).view(np.int64) + (1 << linalg._BUCKET_SHIFT)).view(float)[0]

    @pytest.mark.parametrize("values, p", [
        ((np.nextafter(B, 0.0), B, np.nextafter(B, 2.0)), (0.3, 0.4, 0.3)),  # run over both ranks
        ((np.nextafter(B, 0.0), B), (0.5, 0.5)),  # the ranks split across a bucket edge
        ((1.0, 1.0 + 2.0 ** -40, 4.0), (0.45, 0.1, 0.45)),  # a run of 1.0 ends at the ranks
        ((5e-324, 1e-310), (0.5, 0.5)),  # subnormal: the ranks in bucket 0
        ((0.0, 5e-324, 1e-310, 1.0), (0.2, 0.3, 0.3, 0.2)),  # bucket 0 beside zeros
        # the top finite bucket, 0x7FEF, up to the largest double
        ((1.75e308, np.nextafter(np.finfo(float).max, 0.0), np.finfo(float).max),
         (0.3, 0.4, 0.3)),
    ])
    @pytest.mark.parametrize("n", [301, 302, 1030])
    def test_ties_straddling_the_middle_ranks(self, n, values, p):
        rng = np.random.default_rng(n)
        upper = rng.choice(values, size=n * (n - 1) // 2, p=p)
        d2 = np.zeros((n, n))
        d2[np.triu_indices(n, k=1)] = upper
        d2 += d2.T
        assert median_of_sq_dists(d2) == dense_median_pairwise_distance(d2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 96, 97, 511, 512, 1023])
    def test_odd_even_and_block_remainders(self, n):
        # pair counts of both parities, and n that is not a multiple of the
        # row block of the passes; the two middle values land in different
        # buckets when the spread is wide
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, n)) * np.exp(rng.uniform(-4.0, 4.0, size=n))
        expect = dense_median_pairwise_distance(dense_distance_rows(x))
        assert median_pairwise_distance(x) == expect

    def test_middle_ranks_in_different_buckets(self):
        # 6 pairs {1, 1, 4, 4, 4, 9}: the middle two are 4 and 4; zero two
        # of the 4s and they become 1 and 4, in buckets two octaves apart
        d2 = np.array([[0.0, 1.0, 1.0, 4.0], [1.0, 0.0, 4.0, 4.0],
                       [1.0, 4.0, 0.0, 9.0], [4.0, 4.0, 9.0, 0.0]])
        assert median_of_sq_dists(d2) == dense_median_pairwise_distance(d2) == 2.0
        d2[1, 2:] = d2[2:, 1] = 0.0
        assert median_of_sq_dists(d2) == dense_median_pairwise_distance(d2) == 1.5

    def test_two_passes_by_row_blocks_hold_no_n_by_n_array(self):
        # 1.18 x 8 n^2 traced bytes with the (n, n) distances computed first,
        # 0.28 x when each pass computes them a row block at a time
        n = 1200
        x = np.random.default_rng(12).normal(size=(10, n))
        tracemalloc.start()
        try:
            median_pairwise_distance(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * 8 * n * n, peak / (8 * n * n)


def spread_x(n: int, kind: str) -> np.ndarray:
    """A (3, n) x: grid-rounded (ties), drawn from 40 points (coincident pairs), or octave-spread."""
    rng = np.random.default_rng(n)
    if kind == "tied":
        return np.round(2.0 * rng.normal(size=(3, n)))
    if kind == "coincident":
        return rng.normal(size=(3, 40))[:, rng.integers(0, 40, n)]
    return rng.normal(size=(3, n)) * np.exp2(rng.uniform(-8.0, 8.0, size=n))


def counted_blocks(monkeypatch) -> list[int]:
    """Counts the walker's distance blocks in calls[0]."""
    calls = [0]
    block = linalg._Distances.block

    def counted(self, rows, cols):
        calls[0] += 1
        return block(self, rows, cols)

    monkeypatch.setattr(linalg._Distances, "block", counted)
    return calls


class TestOneWalkMedian:
    @pytest.mark.parametrize("kind", ["tied", "coincident", "octave"])
    @pytest.mark.parametrize("n", [363, 600, 1200])
    def test_equals_the_dense_oracle_above_the_keep_all_size(self, n, kind):
        # past _BLOCK pairs (n > 362) the bracket comes from the sample
        assert n * (n - 1) // 2 > linalg._BLOCK
        x = spread_x(n, kind)
        assert median_pairwise_distance(x) == dense_median_pairwise_distance(dense_distance_rows(x))

    def brackets(self, x):
        """Brackets that miss the middle ranks on either side, and one past its room."""
        d2 = dense_distance_rows(x)
        positive = np.sort(d2[np.triu_indices_from(d2, k=1)])
        positive = positive[positive > 0.0]
        return {"above": (positive[-2], positive[-1], positive.size),
                "below": (positive[0], positive[1], positive.size),
                "overflow": (positive[0], positive[-1], 10)}

    @pytest.mark.parametrize("case", ["above", "below", "overflow", "counted"])
    @pytest.mark.parametrize("kind", ["tied", "octave"])
    def test_fallback_gives_the_same_bits(self, monkeypatch, kind, case):
        # a bracket that misses, one whose kept values pass its room, and
        # none at all: the tally's bracket gives the same bits
        n = 600
        x = spread_x(n, kind)
        want = median_pairwise_distance(x)
        assert want == dense_median_pairwise_distance(dense_distance_rows(x))
        bracket = None if case == "counted" else self.brackets(x)[case]
        monkeypatch.setattr(linalg, "_bracket", lambda walk: bracket)
        calls = counted_blocks(monkeypatch)
        assert median_pairwise_distance(x) == want
        # one walk with the bracket, then the tally and a walk with its
        # bracket; the tally's walk alone when tallying from the start
        assert calls[0] == (2 if case == "counted" else 3) * len(linalg._row_blocks(n, n))

    def test_typical_input_takes_one_walk(self, monkeypatch):
        n = 1200
        x = np.random.default_rng(12).normal(size=(10, n))
        calls = counted_blocks(monkeypatch)
        sigma = median_pairwise_distance(x)
        assert calls[0] == len(linalg._row_blocks(n, n))
        assert sigma == dense_median_pairwise_distance(dense_distance_rows(x))

    def test_bracket_past_the_budget_tallies_in_the_first_walk(self, monkeypatch):
        # the ladder's n = 12000 path at n = 1200: the sample predicts more
        # than the budget admits, so _bracket itself gives none, the first
        # walk tallies and a second keeps the tally's bracket
        n = 1200
        x = np.random.default_rng(12).normal(size=(10, n))
        walk = linalg._Distances(x)
        room = linalg._bracket(walk)[2]
        monkeypatch.setattr(linalg, "_KEPT_BUDGET", room - 1)
        assert linalg._bracket(walk) is None
        calls = counted_blocks(monkeypatch)
        sigma = median_pairwise_distance(x)
        assert calls[0] == 2 * len(linalg._row_blocks(n, n))
        assert sigma == dense_median_pairwise_distance(dense_distance_rows(x))

    def test_tally_bracket_is_the_buckets_of_the_middle_ranks(self):
        counts = np.zeros(linalg._BUCKETS, dtype=np.int64)
        with pytest.raises(BandwidthError):
            linalg._tally_bracket(counts)
        top = np.finfo(float).max
        counts[[0, 0x3FF0, 0x7FEF]] = 3, 1, 2
        # six values: the middle ranks 2 and 3 in buckets 0 and 0x3FF0
        lo, hi, room = linalg._tally_bracket(counts)
        assert (lo, hi, room) == (5e-324, np.nextafter(1.0 + 2.0 ** -4, 0.0), 4)
        counts[0x3FF0] = 0
        # five values: both middle ranks in bucket 0
        assert linalg._tally_bracket(counts) == (5e-324, np.nextafter(2.0 ** -1026, 0.0), 3)
        counts[0] = 0
        # two values in the top finite bucket, 0x7FEF
        assert linalg._tally_bracket(counts) == (float.fromhex("0x1.fp+1023"), top, 2)

    def test_sample_bracket_holds_the_median(self):
        # the sample's bracket, at proj-large's size, holds the middle ranks
        # and keeps a small share of the pairs
        n = 3000
        x = np.random.default_rng(5).normal(size=(64, n)) * np.repeat(
            np.exp2(np.arange(10.0) / 4.0), n // 10)
        walk = linalg._Distances(x)
        lo, hi, room = linalg._bracket(walk)
        sigma = median_pairwise_distance(x)
        assert lo < sigma * sigma < hi
        assert room < 0.1 * n * (n - 1) // 2


class TestKernelMatrix:
    def test_linear_identity(self):
        assert_allclose(kernel_matrix(np.eye(2), "linear"), np.eye(2), atol=0)

    def test_linear_is_exact_gram(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 8))
        assert_allclose(kernel_matrix(x, "linear"), x.T @ x, atol=1e-14)

    def test_rbf_coincident_columns(self):
        x = np.ones((3, 4))
        k = kernel_matrix(x, "rbf", sigma=2.0)
        assert_allclose(k, np.ones((4, 4)), atol=0)

    def test_rbf_median_heuristic_matches_formula(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 12))
        sigma = median_pairwise_distance(x)
        k = kernel_matrix(x, "rbf", sigma=sigma)
        n = x.shape[1]
        oracle = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                d2 = float(np.sum((x[:, i] - x[:, j]) ** 2))
                oracle[i, j] = np.exp(-d2 / (2.0 * sigma**2))
        assert_allclose(k, oracle, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_rbf_is_psd(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 8))
        k = kernel_matrix(x, "rbf", sigma=1.3)
        assert np.linalg.eigvalsh(k).min() >= -1e-9

    def test_poly_matches_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5))
        assert_allclose(kernel_matrix(x, "poly", degree=3), (x.T @ x + 1.0) ** 3, atol=1e-10)

    def test_bad_parameters(self):
        x = np.eye(2)
        with pytest.raises(ParameterError):
            kernel_matrix(x, "rbf", sigma=0.0)
        with pytest.raises(ParameterError):
            kernel_matrix(x, "rbf", sigma=None)
        with pytest.raises(ParameterError):
            kernel_matrix(x, "poly", degree=0)
        with pytest.raises(ParameterError):
            kernel_matrix(x, "sigmoid")

    @pytest.mark.parametrize("m, n", [(1, 1), (5, 37), (300, 7), (256, 900)])
    def test_rbf_cross_form_byte_equal(self, m, n):
        rng = np.random.default_rng(m + n)
        x, y = rng.normal(size=(3, m)), rng.normal(size=(3, n))
        want = np.exp(pairwise_sq_dists(x, y) / (-2.0 * 0.9 * 0.9))
        assert kernel_matrix(x, "rbf", sigma=0.9, y=y).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, n", [(1, 1), (5, 37), (256, 900)])
    def test_linear_and_poly_cross_forms(self, m, n):
        rng = np.random.default_rng(m * n)
        x, y = rng.normal(size=(4, m)), rng.normal(size=(4, n))
        g = linalg.matmul(x.T, y)
        assert kernel_matrix(x, "linear", y=y).tobytes() == g.tobytes()
        assert kernel_matrix(x, "poly", degree=3, y=y).tobytes() == ((g + 1.0) ** 3).tobytes()

    @pytest.mark.parametrize("kind, kwargs", [("linear", {}), ("rbf", {"sigma": 1.3}),
                                              ("poly", {"degree": 2})])
    def test_cross_form_rows_are_the_rows_of_k(self, kind, kwargs):
        # the panels the range finder reads: K's rows, up to the rounding of
        # the product they come from
        x = np.random.default_rng(9).normal(size=(3, 700))
        k = kernel_matrix(x, kind, **kwargs)
        rows = kernel_matrix(x[:, 256:512], kind, y=x, **kwargs)
        assert rows.shape == (256, 700)
        assert_allclose(rows, k[256:512], rtol=0, atol=1e-13 * np.abs(k).max())

    @pytest.mark.parametrize("kind, kwargs", [("linear", {}), ("rbf", {"sigma": 1.3}),
                                              ("poly", {"degree": 3})])
    def test_norms_out_and_own_keep_the_bits(self, kind, kwargs):
        # the panel form _kernel_times takes, against the allocating form
        x = np.random.default_rng(11).normal(size=(3, 300))
        want = kernel_matrix(x[:, 100:228], kind, y=x, **kwargs)
        sq = linalg._sq_norms(x)
        out = np.full((128, 300), np.nan)
        got = kernel_matrix(x[:, 100:228], kind, y=x, out=out, own=100,
                            norms=(sq[100:228], sq) if kind == "rbf" else None, **kwargs)
        assert got is out and got.tobytes() == want.tobytes()

    def test_cross_form_argument_checks(self):
        x = np.random.default_rng(3).normal(size=(2, 4))
        for kind, kwargs in (("linear", {}), ("rbf", {"sigma": 1.0}), ("poly", {})):
            with pytest.raises(DimensionError, match="feature dims differ"):
                kernel_matrix(x, kind, y=np.ones((3, 5)), **kwargs)
        with pytest.raises(ParameterError, match="sigma > 0"):
            kernel_matrix(x, "rbf", sigma=0.0, y=x)
        with pytest.raises(ParameterError, match="non-finite"):
            kernel_matrix(x, "linear", y=np.full((2, 3), np.nan))


class TestKernelRange:
    def test_linear_kernel_rank_is_feature_dim(self):
        x = np.random.default_rng(70).normal(size=(2, 40))
        kmat = kernel_matrix(x, "linear")
        basis, w_r = kernel_range(x, "linear")
        s_r = w_r[:, None] * basis.T
        assert basis.shape == (40, 2) and s_r.shape == (2, 40)
        assert_allclose(w_r, np.linalg.eigvalsh(kmat)[-2:], rtol=1e-12)
        assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        # U_r S_r rebuilds K, and a = U_r c embeds as c^T S_r
        assert_allclose(basis @ s_r, kmat, atol=1e-12 * np.abs(kmat).max())
        c = np.array([[0.3], [-1.2]])
        assert_allclose((basis @ c).T @ kmat, c.T @ s_r, atol=1e-12 * np.abs(kmat).max())

    def test_full_rank_kernel_keeps_every_direction(self):
        x = np.random.default_rng(71).normal(size=(3, 12))
        basis, w_r = kernel_range(x, "rbf", sigma=1.0)
        assert basis.shape == (12, 12) and w_r.shape == (12,)

    def test_zero_kernel_has_empty_range(self):
        for n in (5, 2 * linalg._SKETCH_COLS):  # the exact path and the sketch
            basis, w_r = kernel_range(np.zeros((2, n)), "linear")
            assert basis.shape == (n, 0) and w_r.shape == (0,)

    def test_rejects_bad_operands(self):
        with pytest.raises(DimensionError):
            kernel_range(np.zeros(4), "linear")
        with pytest.raises(ParameterError, match="non-finite"):
            kernel_range(np.full((2, 3), np.nan), "linear")
        for n in (3, 2 * linalg._SKETCH_COLS):  # checked on either path
            x = np.random.default_rng(n).normal(size=(2, n))
            with pytest.raises(ParameterError, match="unknown kernel"):
                kernel_range(x, "sigmoid")
            with pytest.raises(ParameterError, match="sigma > 0"):
                kernel_range(x, "rbf")
            with pytest.raises(ParameterError, match="degree"):
                kernel_range(x, "poly", degree=0)

    def test_empty_kernel_is_a_dimension_error(self):
        # the n * eps * max cut has no largest eigenvalue to read
        with pytest.raises(DimensionError, match="nonempty"):
            kernel_range(np.zeros((2, 0)), "linear")

    def test_one_symmetrized_copy_and_the_basis(self):
        # r = 551 of 600 saturates the sketch, which is freed before K is
        # built; K is factored in place, its upper triangle read, and
        # besides it the call holds only the eigenvectors and LAPACK workspace
        n = 600
        x = np.random.default_rng(72).normal(size=(3, n))
        tracemalloc.start()
        try:
            basis, _ = kernel_range(x, "rbf", sigma=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.shape[0] == n
        assert peak < 2.5 * 8 * n * n


def median_x(seed: int, n: int, d: int = 2) -> tuple[np.ndarray, float]:
    """(x, sigma): normal points and their median pairwise distance."""
    x = np.random.default_rng(seed).normal(size=(d, n))
    return x, median_pairwise_distance(x)


def eigh_orders(monkeypatch) -> list[int]:
    """The order of every matrix scipy.linalg.eigh is given from here on."""
    orders, eigh = [], scipy.linalg.eigh

    def spy(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return orders


# (kind, kernel parameters, d) of sketched cases: n >= 2 l, and a range well
# inside the sketch's l columns
SKETCHED = {
    "rbf": ("rbf", None, 2),
    "linear": ("linear", {}, 40),
    "poly": ("poly", {"degree": 2}, 8),
}


class TestSketchedKernelRange:
    """kernel_range's randomized range finder against the full eigh of K."""

    @pytest.mark.parametrize("case, seed, n", [("rbf", 73, 600), ("rbf", 74, 900),
                                               ("linear", 77, 640), ("poly", 78, 700)],
                             ids=["73-600", "74-900", "linear-640", "poly-700"])
    def test_low_rank_kernel_matches_the_dense_oracle(self, monkeypatch, case, seed, n):
        kind, kwargs, d = SKETCHED[case]
        x, sigma = median_x(seed, n, d)
        kwargs = {"sigma": sigma} if kwargs is None else kwargs
        kmat = kernel_matrix(x, kind, **kwargs)
        want_u, want_w = dense_kernel_range(kmat)
        orders = eigh_orders(monkeypatch)
        basis, w_r = kernel_range(x, kind, **kwargs)
        assert orders == [linalg._SKETCH_COLS]  # no n x n factorization
        r = want_w.size
        assert r < linalg._SKETCH_COLS - linalg._SKETCH_OVERSAMPLE
        assert basis.shape == (n, r) and w_r.shape == (r,)
        top = want_w[-1]
        assert_allclose(w_r, want_w, rtol=0, atol=1e-13 * top)
        residual = np.linalg.norm(kmat @ basis - basis * w_r) / top
        assert residual <= 10 * np.linalg.norm(kmat @ want_u - want_u * want_w) / top
        assert_allclose(basis.T @ basis, np.eye(r), rtol=0, atol=1e-12)
        again_u, again_w = kernel_range(x, kind, **kwargs)
        assert again_u.tobytes() == basis.tobytes() and again_w.tobytes() == w_r.tobytes()

    def test_rank_deficient_linear_kernel_keeps_its_rank(self, monkeypatch):
        # d = 2: K = x^T x has rank 2, and the sketch finds just those two
        x = np.random.default_rng(79).normal(size=(2, 2 * linalg._SKETCH_COLS))
        orders = eigh_orders(monkeypatch)
        basis, w_r = kernel_range(x, "linear")
        assert orders == [linalg._SKETCH_COLS]
        assert basis.shape == (x.shape[1], 2)
        assert_allclose(w_r, np.linalg.eigvalsh(x @ x.T), rtol=1e-12)
        assert_allclose(basis @ (w_r[:, None] * basis.T), x.T @ x,
                        rtol=0, atol=1e-12 * np.abs(x.T @ x).max())

    @pytest.mark.parametrize("case", ["saturated", "small"])
    def test_exact_path_is_the_dense_oracle(self, case):
        if case == "saturated":  # r = 551 of 600: the sketch is dropped
            x, sigma = np.random.default_rng(72).normal(size=(3, 600)), 1.0
        else:  # n < 2 l: never sketched
            x, sigma = median_x(75, 2 * linalg._SKETCH_COLS - 1)
        basis, w_r = kernel_range(x, "rbf", sigma=sigma)
        want_u, want_w = dense_kernel_range(kernel_matrix(x, "rbf", sigma=sigma))
        assert basis.tobytes() == want_u.tobytes() and w_r.tobytes() == want_w.tobytes()

    def test_sketch_holds_one_copy_of_k(self):
        # at most one panel of K's rows, the (n, l) sketch arrays and the
        # basis: well under one copy of K, which the array form held in full
        # beside its symmetrized copy (1.0 x 8 n^2 and more). Alive at once
        # are a product's input and output, two (n, l) arrays, while the one
        # (_PANEL_ROWS, n) panel buffer of K, the (_PANEL_ROWS, l) buffer of
        # its products and the add-and-cut temporaries (at most two blocks of
        # _BLOCK entries) make it: 3.17 x 8 n l here, against a bound of
        # 3.33. The QR writes Q into a new array beside the product it
        # overwrites, so a product held past its QR adds a third (n, l) array
        # to the next product's peak.
        n, cols = 1800, linalg._SKETCH_COLS
        x, sigma = median_x(76, n)
        tracemalloc.start()
        try:
            basis, _ = kernel_range(x, "rbf", sigma=sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.shape[1] < linalg._SKETCH_COLS - linalg._SKETCH_OVERSAMPLE
        assert peak < 0.5 * 8 * n * n, peak / (8 * n * n)
        rows = linalg._PANEL_ROWS
        bound = 8 * (2 * n * cols + rows * n + rows * cols + 2 * linalg._BLOCK)
        assert peak < bound, (peak / (8 * n * cols), bound / (8 * n * cols))


def panel_products(monkeypatch, m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(operand, copy) of the left operand of every product with m ``linalg.matmul`` takes.

    Each operand is held as given, views included, so that no panel's
    memory is freed and taken again by the next; the copy holds what it
    read then.
    """
    panels, matmul = [], linalg.matmul

    def spy(a, b, *args, **kwargs):
        if b is m:
            panels.append((a, a.copy()))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(linalg, "matmul", spy)
    return panels


# (kind, kernel parameters) of every kernel, sigma None for the rbf median
KERNELS = [("rbf", {"sigma": None}), ("linear", {}), ("poly", {"degree": 2}),
           ("poly", {"degree": 3})]


class TestKernelTimes:
    """``_kernel_times``: K m from panels of K's rows, one buffer for all of them."""

    @pytest.mark.parametrize("kind, kwargs", KERNELS, ids=["rbf", "linear", "poly2", "poly3"])
    @pytest.mark.parametrize("n", [1, 128, 333])
    @pytest.mark.parametrize("d, order", [(1, "C"), (2, "C"), (5, "F")])
    def test_panels_are_kernel_matrix_rows(self, monkeypatch, kind, kwargs, n, d, order):
        # n = 333 is not a multiple of _PANEL_ROWS; columns 1 and 2 coincide
        # and column 3 is zero
        x = np.asarray(np.random.default_rng(n + d).normal(size=(d, n)), order=order)
        if n > 3:
            x[:, 2] = x[:, 1]
            x[:, 3] = 0.0
        if kind == "rbf":
            kwargs = {"sigma": median_pairwise_distance(x) if n > 1 else 1.0}
        m = np.random.default_rng(1).normal(size=(n, 7))
        panels = panel_products(monkeypatch, m)
        got = linalg._kernel_times(x, kind, kwargs.get("sigma"), kwargs.get("degree", 2), m)
        monkeypatch.undo()
        rows = linalg._row_panels(n)
        assert len(panels) == len(rows)
        want = np.empty((n, m.shape[1]))
        for (_, panel), part in zip(panels, rows):
            k_rows = kernel_matrix(x[:, part], kind, y=x, **kwargs)
            assert panel.tobytes() == k_rows.tobytes()
            if kind == "rbf":
                assert (np.diagonal(panel[:, part]) == 1.0).all()
            want[part] = linalg.matmul(k_rows, m)
        assert got.flags.f_contiguous and got.tobytes(order="C") == want.tobytes()

    def test_panels_share_one_buffer(self, monkeypatch):
        n = 3 * linalg._PANEL_ROWS + 5
        x, sigma = median_x(86, n)
        m = np.random.default_rng(87).normal(size=(n, 4))
        for kind, kwargs in [("rbf", {"sigma": sigma}), ("linear", {}), ("poly", {})]:
            panels = panel_products(monkeypatch, m)
            linalg._kernel_times(x, kind, kwargs.get("sigma"), 2, m)
            monkeypatch.undo()
            assert len(panels) == 4
            first = panels[0][0]
            assert all(np.shares_memory(panel, first) for panel, _ in panels), kind

    def test_every_panel_is_a_kernel_matrix_call(self, monkeypatch):
        # by its module name, so that a tracer wrapping linalg.kernel_matrix
        # charges the sketch's kernel work to it
        n = 2 * linalg._PANEL_ROWS + 1
        x, sigma = median_x(88, n)
        m = np.ones((n, 3))
        kernel = linalg.kernel_matrix
        for kind in ("rbf", "linear", "poly"):
            calls = []

            def spy(x_rows, *args, **kwargs):
                calls.append(x_rows.shape[1])
                return kernel(x_rows, *args, **kwargs)

            monkeypatch.setattr(linalg, "kernel_matrix", spy)
            linalg._kernel_times(x, kind, sigma, 2, m)
            monkeypatch.undo()
            assert calls == [linalg._PANEL_ROWS, linalg._PANEL_ROWS, 1], kind

    def test_checks_as_kernel_matrix_does(self):
        x, m = np.ones((2, 5)), np.ones((5, 2))
        for kind, sigma, degree, match in [("sigmoid", None, 2, "unknown kernel"),
                                           ("rbf", None, 2, "sigma > 0"),
                                           ("rbf", -1.0, 2, "sigma > 0"),
                                           ("poly", None, 0, "degree"),
                                           ("poly", None, 1.5, "degree")]:
            with pytest.raises(ParameterError, match=match):
                linalg._kernel_times(x, kind, sigma, degree, m)
        with pytest.raises(ParameterError, match="non-finite"):
            linalg._kernel_times(np.full((2, 5), np.inf), "linear", None, 2, m)
        with pytest.raises(DimensionError):
            linalg._kernel_times(np.ones(5), "linear", None, 2, m)


def fortran_normal(seed: int, n: int, cols: int) -> np.ndarray:
    return np.asfortranarray(np.random.default_rng(seed).normal(size=(n, cols)))


class TestOrth:
    """``_orth``: the Q of y = QR by LAPACK's dgeqrt and dgemqrt."""

    @pytest.mark.parametrize("n, cols", [(320, 160), (1000, 160), (97, 33), (40, 1)])
    def test_orthonormal_and_spans_y(self, n, cols):
        y = fortran_normal(n, n, cols)
        q = linalg._orth(y.copy(order="F"))
        assert q.shape == (n, cols)
        assert_allclose(q.T @ q, np.eye(cols), rtol=0, atol=1e-13)
        assert_allclose(q @ (q.T @ y), y, rtol=0, atol=1e-13 * np.abs(y).max())

    @pytest.mark.parametrize("n, cols", [(320, 160), (1000, 160), (97, 33)])
    def test_signs_are_geqrf_orgqr(self, n, cols):
        # the same Householder reflectors (dlarfg's), so the same columns up
        # to rounding, not up to sign
        y = fortran_normal(n + 1, n, cols)
        want = scipy.linalg.qr(y, mode="economic")[0]
        assert_allclose(linalg._orth(y.copy(order="F")), want, rtol=0, atol=1e-14)

    def test_rank_deficient_columns_stay_orthonormal(self):
        y = fortran_normal(81, 400, 160)
        y[:, 7] = 0.0
        y[:, 90:] = 0.0
        y[:, 20] = y[:, 3]
        y[:, 21] = 2.0 * y[:, 3]
        q = linalg._orth(y.copy(order="F"))
        assert_allclose(q.T @ q, np.eye(160), rtol=0, atol=1e-13)
        assert_allclose(q @ (q.T @ y), y, rtol=0, atol=1e-13 * np.abs(y).max())

    def test_sketch_of_a_rank_two_kernel_stays_orthonormal(self):
        # K = x^T x has rank 2, so K Omega has 158 columns of rounding
        n, cols = 2 * linalg._SKETCH_COLS, linalg._SKETCH_COLS
        x = np.random.default_rng(82).normal(size=(2, n))
        omega = np.random.default_rng(83).normal(size=(n, cols))
        y = linalg._kernel_times(x, "linear", None, 2, omega)
        q = linalg._orth(y)
        assert_allclose(q.T @ q, np.eye(cols), rtol=0, atol=1e-13)

    def test_lapack_error_is_a_numeric_error(self, monkeypatch):
        dgeqrt = scipy.linalg.lapack.dgeqrt

        def failing(*args, **kwargs):
            v, t, _ = dgeqrt(*args, **kwargs)
            return v, t, -2

        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", failing)
        with pytest.raises(NumericError, match="dgeqrt"):
            linalg._orth(fortran_normal(84, 40, 8))

    def test_sketch_calls_neither_geqrf_nor_orgqr(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("geqrf + orgqr called")

        monkeypatch.setattr(scipy.linalg, "qr", forbidden)
        for name in ("dgeqrf", "dorgqr"):
            monkeypatch.setattr(scipy.linalg.lapack, name, forbidden)
        panels, dgeqrt = [], scipy.linalg.lapack.dgeqrt

        def spy(nb, a, **kwargs):
            panels.append(nb)
            return dgeqrt(nb, a, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", spy)
        x, sigma = median_x(85, 2 * linalg._SKETCH_COLS)
        basis, _ = kernel_range(x, "rbf", sigma=sigma)
        assert basis.shape[1] < linalg._SKETCH_COLS - linalg._SKETCH_OVERSAMPLE
        assert panels == [linalg._QR_BLOCK] * 2  # one QR per sketch product


class TestCheckSymmetric:
    @pytest.mark.parametrize("n", [0, 1, 255, 600])
    def test_byte_equal_to_the_out_of_place_form(self, n):
        m = np.random.default_rng(n).normal(size=(n, n))
        m += m.T
        m[0:1, -1:] += 1e-12  # a skew within the tolerance, across tiles
        before = m.tobytes()
        # accepted as it is: the check makes no symmetrized copy, and eigh
        # reads one triangle
        assert linalg._check_symmetric(m, "test") is None
        assert m.tobytes() == before

    def test_skew_in_a_far_tile_is_rejected(self):
        m = np.ones((600, 600))
        m[599, 300] = 1.0 + 1e-9  # beyond 1e-10 * max|m|, in the last tile pair
        with pytest.raises(ParameterError, match="symmetric"):
            linalg._check_symmetric(m, "test")
        m[599, 300] = 1.0 + 1e-11
        linalg._check_symmetric(m, "test")


class TestCenteringMatrix:
    """``centering_matrix(s)`` is s H; H's own properties are checked on the oracle."""

    def test_n1(self):
        assert_allclose(dense_centering_matrix(1), np.array([[0.0]]), atol=0)
        assert_allclose(centering_matrix(np.array([[3.0], [-2.0]])), np.zeros((2, 1)), atol=0)

    def test_n2(self):
        assert_allclose(dense_centering_matrix(2), np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=0)
        assert_allclose(centering_matrix(np.array([[1.0, 3.0]])), [[-1.0, 1.0]], atol=0)

    def test_idempotent_and_kills_ones(self):
        h = dense_centering_matrix(4)
        assert_allclose(h @ h, h, atol=1e-14)
        assert_allclose(h @ np.ones(4), np.zeros(4), atol=1e-14)
        # rows of s H sum to zero, and centering twice changes nothing
        sh = centering_matrix(np.random.default_rng(8).normal(size=(3, 4)))
        assert_allclose(sh.sum(axis=1), np.zeros(3), atol=1e-14)
        assert_allclose(centering_matrix(sh), sh, atol=1e-15)

    def test_eigenvalues_zero_and_ones(self):
        vals = np.sort(np.linalg.eigvalsh(dense_centering_matrix(6)))
        assert_allclose(vals, [0.0] + [1.0] * 5, atol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            centering_matrix(np.zeros((3, 0)))
        with pytest.raises(ParameterError):
            centering_matrix(np.zeros(4))

    @pytest.mark.parametrize("l, n", [(1, 1), (2, 7), (64, 300), (300, 300)])
    def test_scatter_matches_s_h_st(self, l, n):
        rng = np.random.default_rng(l + n)
        s = rng.normal(loc=3.0, size=(l, n))
        got = centering_matrix(s) @ s.T
        want = s @ dense_centering_matrix(n) @ s.T
        assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))
        assert_allclose(centering_matrix(s), s @ dense_centering_matrix(n), rtol=0, atol=1e-13)


class TestGenEigSmallest:
    def test_diagonal_pencil(self):
        w, v = gen_eig_smallest(np.diag([3.0, 1.0, 2.0]), np.eye(3), k=1)
        assert w.shape == (1,) and v.shape == (3, 1)
        assert_allclose(w[0], 1.0 / (1.0 + 1e-9), atol=1e-12)  # B + 1e-9 trace(B) / n I
        assert_allclose(np.abs(v[:, 0]), [0.0, 1.0, 0.0], atol=1e-12)
        assert v[1, 0] > 0  # sign convention

    def test_identity_pencil_all_ones(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        spd = m @ m.T + 5.0 * np.eye(5)
        w, _ = gen_eig_smallest(spd, spd, k=5)
        # A = B: each eigenvalue lambda of B gives lambda / (lambda + ridge)
        lam = np.linalg.eigvalsh(spd)
        assert_allclose(w, lam / (lam + 1e-9 * np.trace(spd) / 5), atol=1e-9)

    def test_charpoly_oracle_4x4(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            a = 0.5 * (a + a.T)
            c = rng.normal(size=(4, 4))
            b = c @ c.T + 4.0 * np.eye(4)
            got, _ = gen_eig_smallest(a, b, k=4)
            expect = charpoly_eigenvalues(a, b + 1e-9 * np.trace(b) / 4 * np.eye(4))
            assert_allclose(got, expect, atol=1e-6)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_residuals_and_b_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        c = rng.normal(size=(n, n))
        b = c @ c.T + 1e-3 * np.eye(n)
        k = int(rng.integers(1, n + 1))
        ridge = 1e-9 * np.trace(b) / n
        w, v = gen_eig_smallest(a, b, k)
        b_reg = b + ridge * np.eye(n)
        tol = 1e-8 * (np.linalg.norm(a) + np.linalg.norm(b))
        for value, vector in zip(w, v.T):
            res = np.linalg.norm(a @ vector - value * (b_reg @ vector))
            assert res <= max(tol, 1e-8 * abs(value) * np.linalg.norm(b) + tol)
        gram = v.T @ b_reg @ v
        assert_allclose(gram, np.eye(k), atol=1e-8)

    def test_sorted_ascending(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 6))
        a = 0.5 * (a + a.T)
        w, _ = gen_eig_smallest(a, np.eye(6), k=6)
        vals = list(w)
        assert vals == sorted(vals)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(5, 5))
        a = 0.5 * (a + a.T)
        _, first = gen_eig_smallest(a, np.eye(5), k=3)
        _, second = gen_eig_smallest(a.copy(), np.eye(5), k=3)
        assert np.array_equal(first, second)
        for vector in first.T:
            assert vector[int(np.argmax(np.abs(vector)))] > 0

    def test_vectors_are_c_ordered_columns(self):
        # eigh returns a Fortran-ordered block; downstream products read
        # the C-ordered layout the per-column stack used to give
        rng = np.random.default_rng(37)
        a = rng.normal(size=(7, 7))
        _, v = gen_eig_smallest(a + a.T, np.eye(7), k=3)
        assert v.shape == (7, 3)
        assert v.flags.c_contiguous

    def test_sign_flips_pin_the_largest_magnitude_entry(self):
        v = np.array([[1.0, -3.0, 2.0, -2.0],
                      [-2.0, 1.0, -2.0, 2.0]])
        # ties in magnitude go to the first entry
        assert np.array_equal(sign_flips(v), [-1.0, -1.0, 1.0, -1.0])
        assert np.array_equal(sign_flips(v * sign_flips(v)), np.ones(4))

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            gen_eig_smallest(np.eye(3), np.eye(3), k=4)
        with pytest.raises(ParameterError):
            gen_eig_smallest(np.eye(3), np.eye(3), k=0)

    def test_indefinite_b_fails(self):
        # a positive trace gives a positive ridge, too small to lift -1
        with pytest.raises(NumericError, match="not positive definite"):
            gen_eig_smallest(np.eye(3), np.diag([1.0, 1.0, -1.0]), k=1)

    def test_degenerate_scatter_with_default_ridge_is_a_numeric_error(self):
        # the centered scatter of coincident points is zero up to round-off,
        # so the ridge 1e-9 * trace / n is not positive
        for b in (np.zeros((3, 3)), np.diag([-1e-17, 0.0, 0.0])):
            with pytest.raises(NumericError, match="degenerate.*trace"):
                gen_eig_smallest(np.eye(3), b, k=1)

    def test_asymmetric_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ParameterError):
            gen_eig_smallest(a, np.eye(2), k=1)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gen_eig_smallest(np.eye(3), np.eye(2), k=1)


def layout(x: np.ndarray, order: str) -> np.ndarray:
    """x in C or F order, or for "N" a strided view of it.

    The view is neither C- nor F-contiguous unless x has fewer than two
    rows or columns.
    """
    if order != "N":
        return np.asarray(x, order=order)
    wide = np.zeros((x.shape[0], 2 * x.shape[1] + 1))
    wide[:, 1::2] = x
    view = wide[:, 1::2]
    assert min(x.shape) < 2 or not (view.flags.c_contiguous or view.flags.f_contiguous)
    return view


class TestMatmul:
    @pytest.mark.parametrize("m, k, n", [(5, 4, 3), (1, 7, 1), (17, 9, 13), (8, 0, 6),
                                         (0, 4, 3), (6, 3, 0), (40, 0, 3)])
    @pytest.mark.parametrize("order_a", ["C", "F", "N"])
    @pytest.mark.parametrize("order_b", ["C", "F", "N"])
    def test_equals_numpy_product(self, m, k, n, order_a, order_b):
        # (8, 0, 6) and (40, 0, 3) are the products of an empty kernel range
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a0 = rng.normal(size=(m, k))
        b0 = rng.normal(size=(k, n))
        a, b = layout(a0, order_a), layout(b0, order_b)
        out = linalg.matmul(a, b)
        assert out.shape == (m, n) and out.dtype == np.float64
        assert out.flags.c_contiguous
        # both products are within k eps |a| |b| of the exact one
        assert (np.abs(out - a0 @ b0) <= 1e-13 * (np.abs(a0) @ np.abs(b0))).all()

    @pytest.mark.parametrize("k", [0, 3])
    def test_dgemm_overwrites_an_uninitialized_output(self, k):
        # matmul hands dgemm an np.empty buffer: with beta = 0 whatever it
        # holds, NaN included, must be overwritten, also for an empty inner
        # dimension
        a, b = np.ones((4, k)), np.ones((k, 5))
        c = np.full((5, 4), np.nan, order="F")
        out = blas.dgemm(1.0, b.T, a.T, c=c, overwrite_c=True)
        assert np.shares_memory(out, c)
        assert np.array_equal(out.T, a @ b)

    def test_transposed_views_are_not_copied(self):
        # a C- or F-ordered operand reaches dgemm as is: besides the (n, n)
        # result the call allocates nothing of size n^2
        n = 400
        rng = np.random.default_rng(5)
        x = rng.normal(size=(n, n))
        for a, b in [(x, x), (x.T, x), (x, x.T), (x.T, x.T)]:
            tracemalloc.start()
            try:
                out = linalg.matmul(a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.flags.c_contiguous
            assert peak < 8 * n * n + 4096
            del out

    @pytest.mark.parametrize("alpha", [-2.0, 0.5])
    def test_power_of_two_alpha_scales_bit_for_bit(self, alpha):
        # a power-of-two alpha scales every rounded partial sum exactly
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(1100, 5)), rng.normal(size=(5, 1000))
        out = linalg.matmul(a, b, alpha=alpha)
        assert out.flags.c_contiguous and out.flags.writeable
        assert out.tobytes() == (alpha * linalg.matmul(a, b)).tobytes()

    def test_rejects_non_matrices_and_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            linalg.matmul(np.ones(3), np.ones((3, 2)))
        with pytest.raises(DimensionError):
            linalg.matmul(np.ones((2, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize("m, k, n", [(5, 4, 3), (1, 7, 1), (17, 9, 13), (8, 0, 6),
                                         (0, 4, 3)])
    @pytest.mark.parametrize("order_a", ["C", "F", "N"])
    def test_out_is_the_allocating_form_bit_for_bit(self, m, k, n, order_a):
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a, b = layout(rng.normal(size=(m, k)), order_a), rng.normal(size=(k, n))
        for alpha in (1.0, -2.0):
            out = np.full((m, n), np.nan)
            got = linalg.matmul(a, b, alpha=alpha, out=out)
            assert got is out or np.shares_memory(got, out)
            assert out.tobytes() == linalg.matmul(a, b, alpha=alpha).tobytes()

    def test_out_in_place_of_the_leading_rows_of_a_buffer(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(5, 6)), rng.normal(size=(6, 4))
        buffer = np.zeros((9, 4))
        linalg.matmul(a, b, out=buffer[:5])
        assert buffer[:5].tobytes() == linalg.matmul(a, b).tobytes()
        assert not buffer[5:].any()

    def test_rejects_a_wrong_out(self):
        a, b = np.ones((4, 3)), np.ones((3, 5))
        read_only = np.empty((4, 5))
        read_only.setflags(write=False)
        for out in (np.empty((5, 4)), np.empty((4, 6)), np.empty((4, 5), order="F"),
                    np.empty((4, 10))[:, ::2], np.empty((4, 5), dtype=np.float32),
                    read_only):
            with pytest.raises(DimensionError, match="out"):
                linalg.matmul(a, b, out=out)
