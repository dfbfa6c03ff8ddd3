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
through s_s D s_t^T and D x (Halko, Martinsson & Tropp, SIAM Review
2011, section 6, read matrix-free), and W's entries come afresh from x
on each read. Both reads take one reader of W's class-diagonal blocks,
where a source row's class a is the target's pseudo-class b. Every scale
of D comes from g_a = 1/n_s^a and eta_b = 2/n_t^b (``off_class_factors``).
On the class diagonal G is 1/W and S_x is -g_b eta_b / 2, the conditional
table's (b, C + b) entry bit for bit, for CG and DB alike
(``graphs.build_graphs``). Off it, DB's S_x is eta_b g_a and CG's is 0.
So under CG the class-diagonal blocks are all of D, and a round reads
sum_b n_s^b n_t^b entries of W, about n_s n_t / C. Under DB, column j of
s_s D is eta_b T[:, j] plus the class-b rows'
s_i (D_ij - eta_b g_b (W_ij - 1)), with T = s_s diag(g_a) (W - 1)
(``off_class_term``). T moves with no pseudo-label, so it is made once
per pair, config and operand: the operator reads W and T from one
``CrossTerm``, which only ``operands.InputOperands`` makes in the
library, and a DB operator read with another operand raises StateError.
D x is read only under CG: MEDA, the one model that takes it, has no DB.
A unit affinity gives G == 1, so D == 0 exactly and the reweighted model
is the plain one bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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


def _class_rows(labels: np.ndarray, class_count: int) -> list[np.ndarray]:
    """Per class 0 .. class_count - 1, the positions of labels holding it, in order."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=class_count))[:-1])


def off_class_factors(groups: np.ndarray, class_count: int) -> tuple[np.ndarray, np.ndarray]:
    """(g, eta): g_a = 1/n_s^a per source class and eta_b = 2/n_t^b per target class.

    Taken from the counts of the packed group index (of the source labels
    alone for g), 0 for an empty group. Every source-by-target scale S_x
    of a boundary operator comes from these: S_x[b, b] = -g_b eta_b / 2
    on the class diagonal, for CG and DB alike (the conditional table's
    entry, bit for bit), and DB's S_x[a, b] = eta_b g_a off it (the
    separation table's entry, up to rounding).
    """
    c = class_count
    counts = np.bincount(groups, minlength=2 * c)
    inv = np.divide(1.0, counts, out=np.zeros(2 * c), where=counts > 0)
    return inv[:c], 2.0 * inv[c:]


def off_class_term(affinity, s: np.ndarray, source_labels: np.ndarray,
                   class_count: int) -> np.ndarray:
    """T = s_s diag(g_a) (W - 1), (dim, n_t), from one walk of W's blocks of source rows.

    s is the (dim, n) operand, s_s its source columns, and g_a of each
    source row is ``off_class_factors``' for its class.
    """
    ns, nt = affinity.shape
    g = off_class_factors(source_labels, class_count)[0][source_labels]
    t = np.zeros((s.shape[0], nt))
    for rows in _row_blocks(ns, nt):
        t += matmul(s[:, rows] * g[rows], affinity[rows] - 1.0)
    return t


@dataclass(frozen=True, eq=False)
class CrossTerm:
    """What a reweighted operator reads besides its round's groups; no round moves it.

    ``affinity`` is W, the (n_s, n_t) cross block of the input affinity,
    read by source rows (``graphs.CrossAffinity`` or an array). ``labels``
    are the source labels, and ``source`` holds each class's source rows,
    in order, grouped once. ``off_class`` is None, or ``off_class_term``'s
    read-only T for the operand ``operand``: the part of DB's s_s D that
    sums W over every source row. A CG operator reads no T; a DB operator
    reads this one, and only with ``operand``.
    """

    affinity: CrossAffinity | np.ndarray
    labels: np.ndarray
    source: tuple[np.ndarray, ...]
    operand: np.ndarray | None = None
    off_class: np.ndarray | None = None

    @classmethod
    def of(cls, affinity, source_labels: np.ndarray, class_count: int) -> "CrossTerm":
        """W with the source rows grouped by class, and no T."""
        return cls(affinity, source_labels, tuple(_class_rows(source_labels, class_count)))

    def with_operand(self, s: np.ndarray) -> "CrossTerm":
        """This term holding T for the operand s."""
        t = off_class_term(self.affinity, s, self.labels, len(self.source))
        t.flags.writeable = False
        return replace(self, operand=s, off_class=t)


@dataclass(frozen=True)
class MmdOperator:
    """M = P B P^T + [[0, D], [D^T, 0]] over the packed order [source | target].

    ``table`` is B, the 2C x 2C table of the plain model. An unreweighted
    model has no D: ``cross`` is None. Otherwise D is read from
    ``cross``'s W, a block of W at a time made afresh on every read, with
    its scales from the group counts (``off_class_factors``).
    ``repulsive`` marks DB, whose D is eta_b g_a (W - 1) off the class
    diagonal, read through ``cross``'s T.
    """

    groups: np.ndarray
    n_source: int
    table: np.ndarray
    cross: CrossTerm | None = None
    repulsive: bool = False

    def _class_blocks(self):
        """(at, cols, d) per block of about _BLOCK entries of W's class-diagonal blocks.

        For each class b with source rows and pseudo-labeled target
        columns ``cols``, ``at`` is a block of b's source rows and d their
        D against ``cols`` (``graphs.build_graphs``, at S_x[b, b] =
        -g_b eta_b / 2), for DB less the eta_b g_b (W - 1) that T already
        holds. Each block of W read is the only (at, cols) array made
        besides d.
        """
        ns, c = self.n_source, self.table.shape[0] // 2
        g, eta = off_class_factors(self.groups, c)
        target = self.groups[ns:] - c
        for b, (rows, cols) in enumerate(zip(self.cross.source, _class_rows(target, c))):
            if not (rows.size and cols.size):
                continue
            for block in _row_blocks(rows.size, cols.size):
                at = rows[block]
                w = self.cross.affinity[np.ix_(at, cols)]
                d = build_graphs(w, -g[b] * eta[b] / 2)
                if self.repulsive:
                    w -= 1.0
                    w *= eta[b] * g[b]
                    d -= w
                yield at, cols, d

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x for an (n, m) x, from the group sums P^T x and, with a graph, D's class blocks.

        Under CG, W's class-diagonal blocks hold all of D. DB's D is
        nonzero off them too, and nothing takes its D x, so a repulsive
        operator raises StateError.
        """
        if self.repulsive:
            raise StateError("M x is read only without a separation graph; "
                             "a DB operator is read through s M s^T")
        sums = group_sums(x.T, self.groups, self.table.shape[0]).T
        out = matmul(self.table, sums)[self.groups]
        if self.cross is not None:
            ns = self.n_source
            for at, cols, d in self._class_blocks():
                out[at] += matmul(d, x[ns + cols])
                out[ns + cols] += matmul(d.T, x[at])
        return out

    def sandwich(self, s: np.ndarray) -> np.ndarray:
        """s M s^T from the group sums sP and, with a graph, s_s D (``cross_left``)."""
        sp = group_sums(s, self.groups, self.table.shape[0])
        out = matmul(matmul(sp, self.table), sp.T)
        if self.cross is not None:
            half = matmul(self.cross_left(s), s[:, self.n_source:].T)
            out += half + half.T
        return out

    def cross_left(self, s: np.ndarray) -> np.ndarray:
        """s_s D, (dim, n_t), from W's class-diagonal blocks and, for DB, T.

        Column j, of pseudo-class b, is the sum over the class-b source
        rows i of s_i D_ij (``_class_blocks``); for DB, plus eta_b T[:, j],
        which holds the rest. StateError for DB if ``cross`` holds no T,
        or holds it for an operand other than s.
        """
        ns, c = self.n_source, self.table.shape[0] // 2
        if self.repulsive:
            if self.cross.off_class is None or s is not self.cross.operand:
                raise StateError("a DB operator is read only with the operand its "
                                 "CrossTerm holds T for")
            eta = off_class_factors(self.groups, c)[1]
            left = eta[self.groups[ns:] - c] * self.cross.off_class
        else:
            left = np.zeros((s.shape[0], self.groups.size - ns))
        for at, cols, d in self._class_blocks():
            left[:, cols] += matmul(s[:, at], d)
        return left


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
