"""MMD coefficient tables over the 2C (domain, pseudo-class) groups.

Samples sit in the packed order [source | target], and each gets one group
index: source class c is group c, target pseudo-class r is group C + r.
Every MMD term of the zoo is a squared distance between group means. For
an embedding Z (k, n):

  marginal      ||mean(Z_s) - mean(Z_t)||^2
  conditional   sum_c ||mean(Z_s^c) - mean(Z_t^c)||^2
  repulsive     sum over ordered class pairs c != r of
                ||mean(Z_a^c) - mean(Z_b^r)||^2  (a, b set by direction)

So the (n, n) coefficient matrix M with tr(Z M Z^T) equal to such a term
is constant on the blocks of group pairs: M = P B P^T, where P is the
(n, 2C) group indicator and B a 2C x 2C table. Long et al. (ICCV 2013)
give this class-mean form for JDA. Then tr(Z M Z^T) = tr((ZP) B (ZP)^T)
needs only the group sums ZP, and no n x n array is ever built.

Each table entry is computed with the same arithmetic, and for
``rank_one_sum`` in the same accumulation order, as the entry of the
dense per-sample matrix, so ``table[g][:, g]`` reproduces that
matrix bit for bit. Classes missing on either side are skipped rather
than divided by zero; their groups hold no samples.

For the repulsive tables the printed entry rules assign the same-class
diagonal blocks once, while the rank-one expansion sum_{c != r} e e^T
accumulates them once per counterpart class. Both readings are built here
behind ``mode``: "literal" fills entries once as printed, "rank_one_sum"
accumulates and is the one that satisfies the trace identity above.

The boundary graphs reweight M entrywise on the cross-domain block only.
The assembled operator (``adapt.MmdOperator``) holds that as
M = P B P^T + [[0, D], [D^T, 0]], where the (n_s, n_t) correction
D = S_x * (G - 1) scales the reweighted part S of the table by the graph
block G. A unit affinity gives G == 1, so D == 0 exactly and the
reweighted model is the plain one bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import MATRIX_MODES, DomainPair
from .errors import ParameterError, StateError
from .linalg import matmul


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
    m = np.zeros((2 * c, 2 * c))
    for k in range(c):
        if counts[k] == 0 or counts[c + k] == 0:
            continue
        e = np.zeros(2 * c)
        e[k] = 1.0 / counts[k]
        e[c + k] = -1.0 / counts[c + k]
        m += np.outer(e, e)
    return m


def _repulsive(counts: np.ndarray, c: int, direction: str, mode: str) -> np.ndarray:
    """Repulsive table; the lead groups play class c, the trail groups r != c."""
    lead, trail = (0, c) if direction == "source_to_target" else (c, 0)
    m = np.zeros((2 * c, 2 * c))
    for k in range(c):
        a = lead + k
        if counts[a] == 0:
            continue
        for r in range(c):
            b = trail + r
            if r == k or counts[b] == 0:
                continue
            if mode == "rank_one_sum":
                e = np.zeros(2 * c)
                e[a] = 1.0 / counts[a]
                e[b] = -1.0 / counts[b]
                m += np.outer(e, e)
            else:
                m[a, a] = 1.0 / (counts[a] * counts[a])
                m[b, b] = 1.0 / (counts[b] * counts[b])
                m[a, b] = m[b, a] = -1.0 / (counts[a] * counts[b])
    return m


@dataclass(frozen=True)
class MmdTables:
    """The 2C x 2C MMD tables for one pseudo-labeling of a pair."""

    groups: np.ndarray
    n_source: int
    marginal: np.ndarray
    conditional: np.ndarray
    repulsive_st: np.ndarray
    repulsive_ts: np.ndarray

    @property
    def class_count(self) -> int:
        return self.marginal.shape[0] // 2


def build_all(pair: DomainPair, mode: str = "literal") -> MmdTables:
    """Marginal, conditional and both repulsive tables, plus the group index."""
    if mode not in MATRIX_MODES:
        raise ParameterError(f"mode must be one of {MATRIX_MODES}, got {mode!r}")
    groups = group_index(pair)
    c, ns, nt = pair.class_count, pair.n_source, pair.n_target
    counts = np.concatenate([pair.source_class_counts(), pair.target_class_counts()])
    e = np.concatenate([np.full(c, 1.0 / ns), np.full(c, -1.0 / nt)])
    return MmdTables(
        groups=groups,
        n_source=ns,
        marginal=np.outer(e, e),
        conditional=_conditional(counts, c),
        repulsive_st=_repulsive(counts, c, "source_to_target", mode),
        repulsive_ts=_repulsive(counts, c, "target_to_source", mode),
    )
