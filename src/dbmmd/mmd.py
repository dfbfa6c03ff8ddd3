"""MMD coefficient tables and the MMD operator over the 2C (domain, pseudo-class) groups.

Samples sit in the packed order [source | target], and each gets one group
index: source class c is group c, target pseudo-class r is group C + r.
Every MMD term of the zoo is a quadratic form in the group means. For an
embedding Z (k, n):

  marginal      ||mean(Z_s) - mean(Z_t)||^2
  conditional   sum_c ||mean(Z_s^c) - mean(Z_t^c)||^2
  separation    twice the repulsive form below, over class pairs c != r

So the (n, n) coefficient matrix M with tr(Z M Z^T) equal to such a term
is constant on the blocks of group pairs: M = P B P^T, where P is the
(n, 2C) group indicator and B a 2C x 2C table. Long et al. (ICCV 2013)
give this class-mean form for JDA. Then tr(Z M Z^T) = tr((ZP) B (ZP)^T)
needs only the group sums ZP, and no n x n array is ever built.

Every table is built in closed form from the group counts, with the same
arithmetic as the entry of the dense per-sample matrix, so
``table[g][:, g]`` reproduces that matrix bit for bit. Classes missing on
either side are skipped rather than divided by zero; their groups hold no
samples.

The repulsive term is the printed entry rule R: over the ordered pairs of
source class k and target class r != k, both non-empty, it writes
1/n_s^k^2 on (k, k), 1/n_t^r^2 on (C+r, C+r) and -1/(n_s^k n_t^r) on the
cross entries, each once. The source-to-target and target-to-source
directions cover the same pairs and so give the same R; the separation
table is their sum R + R. With mu the group means,
tr((ZP) R (ZP)^T) = sum_k ||mu_s^k||^2 + sum_r ||mu_t^r||^2
- 2 sum_(k, r) mu_s^k . mu_t^r, k and r over the classes in some pair.

The boundary graphs reweight M entrywise on the cross-domain block only.
The assembled operator (``MmdOperator``) reads that as
M = P B P^T + [[0, D], [D^T, 0]]: B is the plain model's table and the
(n_s, n_t) block D = S_x * (G - 1) scales the reweighted part S of it by
the graph reweights G. D is never held: the operator reads it only
through s_s D s_t^T and D x, and both are sums over blocks of source
rows (Halko, Martinsson & Tropp, SIAM Review 2011, section 6, read
matrix-free). Each block's rows of W come afresh from x, and
``graphs.build_graphs`` writes D's rows straight from them
(``MmdOperator.cross_rows``), so neither W nor G is held either. A unit
affinity gives G == 1, so D == 0 exactly and the reweighted model is
the plain one bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import DomainPair
from .errors import StateError
from .graphs import CrossAffinity, build_graphs
from .linalg import _row_blocks, matmul


def group_index(pair: DomainPair) -> np.ndarray:
    """(n,) group per packed sample: class c for source, C + r for target."""
    if pair.target.pseudo_labels is None:
        raise StateError("target pseudo-labels required; classify the target first")
    return np.concatenate(
        [pair.source.labels, pair.class_count + np.asarray(pair.target.pseudo_labels)]
    )


def group_sums(s: np.ndarray, groups: np.ndarray, group_count: int) -> np.ndarray:
    """s P: the columns of s summed per group, shape (rows, group_count)."""
    p = np.zeros((groups.size, group_count))
    p[np.arange(groups.size), groups] = 1.0
    return matmul(s, p)


def _conditional(counts: np.ndarray, c: int) -> np.ndarray:
    """sum_k e_k e_k^T, e_k = 1/n_s^k on group k and -1/n_t^k on group C + k."""
    k = np.flatnonzero((counts[:c] > 0) & (counts[c:] > 0))
    es, et = 1.0 / counts[k], -1.0 / counts[c + k]
    m = np.zeros((2 * c, 2 * c))
    m[k, k] = es * es
    m[c + k, c + k] = et * et
    m[k, c + k] = m[c + k, k] = es * et
    return m


def _repulsive(counts: np.ndarray, c: int) -> np.ndarray:
    """The printed repulsive table R over the pairs (source k, target r != k)."""
    pairs = np.outer(counts[:c] > 0, counts[c:] > 0)
    np.fill_diagonal(pairs, False)
    k, r = np.nonzero(pairs)
    r += c
    m = np.zeros((2 * c, 2 * c))
    m[k, k] = 1.0 / (counts[k] * counts[k])
    m[r, r] = 1.0 / (counts[r] * counts[r])
    m[k, r] = m[r, k] = -1.0 / (counts[k] * counts[r])
    return m


@dataclass(frozen=True)
class MmdOperator:
    """M = P B P^T + [[0, D], [D^T, 0]] over the packed order [source | target].

    ``table`` is B, the 2C x 2C table of the plain model. An unreweighted
    model has no D: ``affinity`` and ``scale`` are None. Otherwise D's
    rows are rebuilt a block of source rows at a time on every read
    (``cross_rows``) from ``affinity``, the (n_s, n_t) block W read by rows
    (``graphs.CrossAffinity`` or an array), and ``scale``, the C x C
    source-by-target block S_x of the reweighted table.
    """

    groups: np.ndarray
    n_source: int
    table: np.ndarray
    affinity: CrossAffinity | np.ndarray | None = None
    scale: np.ndarray | None = None

    def cross_rows(self):
        """(rows, D[rows]) per block of source rows; reweighted only.

        Each block's W rows, ``affinity[rows]``, and D rows, written from them
        by ``graphs.build_graphs``, are the only (rows, n_t) arrays made.
        """
        for rows in _row_blocks(*self.affinity.shape):
            yield rows, build_graphs(self.groups, self.n_source, self.affinity[rows],
                                     self.scale, rows)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x for an (n, m) x, from the group sums P^T x and, with a graph, D's row blocks."""
        sums = group_sums(x.T, self.groups, self.table.shape[0]).T
        out = matmul(self.table, sums)[self.groups]
        if self.affinity is not None:
            ns = self.n_source
            back = np.zeros((out.shape[0] - ns, out.shape[1]))
            for rows, d in self.cross_rows():
                out[rows] += matmul(d, x[ns:])
                back += matmul(d.T, x[rows])
            out[ns:] += back
        return out

    def sandwich(self, s: np.ndarray) -> np.ndarray:
        """s M s^T from the group sums sP and, with a graph, s_s D summed over D's row blocks."""
        sp = group_sums(s, self.groups, self.table.shape[0])
        out = matmul(matmul(sp, self.table), sp.T)
        if self.affinity is not None:
            ns = self.n_source
            left = np.zeros((s.shape[0], s.shape[1] - ns))
            for rows, d in self.cross_rows():
                left += matmul(s[:, rows], d)
            half = matmul(left, s[:, ns:].T)
            out += half + half.T
        return out


@dataclass(frozen=True)
class MmdTables:
    """The 2C x 2C MMD tables for one pseudo-labeling of a pair."""

    groups: np.ndarray
    n_source: int
    marginal: np.ndarray
    conditional: np.ndarray
    separation: np.ndarray


def build_all(pair: DomainPair) -> MmdTables:
    """Marginal, conditional and separation tables, plus the group index."""
    groups = group_index(pair)
    c, ns, nt = pair.class_count, pair.n_source, pair.n_target
    counts = np.bincount(groups, minlength=2 * c)
    e = np.concatenate([np.full(c, 1.0 / ns), np.full(c, -1.0 / nt)])
    r = _repulsive(counts, c)
    return MmdTables(
        groups=groups,
        n_source=ns,
        marginal=np.outer(e, e),
        conditional=_conditional(counts, c),
        separation=r + r,
    )
