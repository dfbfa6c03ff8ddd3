"""Input-space operands shared by every model cell of one (pair, config).

An experiment runs several models over one pair under one config, and
they all read the same input-space quantities: the packed features x, the
bandwidth sigma, the numerical range U_r of the kernel matrix K, the
source-by-target block W of the Gaussian affinity behind the boundary
graphs, the fixed part of MEDA's system in the range of K, and the
target's starting pseudo-labels. ``InputOperands`` builds each one the
first time a cell asks for it and hands out read-only arrays, so a cell
that writes into one raises instead of corrupting the cells after it.

No (n, n) or (ns, nt) array is kept. K is read only through the range
finder, which takes its products from x a panel of K's rows at a time
and builds K whole only on its exact path (``linalg.kernel_range``).
MEDA's normalized kNN Laplacian L only ever meets U_r, so its edge list
gives L U_r a panel of L's rows at a time (``EdgeGraph.times``). W is
held as what rebuilds it (``graphs.CrossAffinity``): x, the column
norms of x and sigma, from which each read of a boundary operator takes
a block of W. W and T reach the boundary operators in one form, the
``mmd.CrossTerm`` of ``cross_term``, made here and nowhere else in the
library: it groups the source rows by class once and, the first time a
DB model asks, holds T, the (dim, nt) part of DB's cross term that no
pseudo-label moves, for the pencil operand: x in primal mode,
S_r = diag(w_r) U_r^T in kernel mode, also held here. CDDA+DB and
DGA-DA+DB then share one T.

The first build that needs a bandwidth resolves the median sigma, from
x by row blocks (``linalg.median_pairwise_distance``, or inside the kNN
affinity's own pass), and later builds reuse it. In every mode W's rows
are exp(d2 / (-2 sigma^2)) of the cross-form distances of those source
columns and the target columns, computed in place in one array: the rbf
kernel's cross form ``kernel_matrix(x_s, "rbf", sigma=sigma, y=x_t)``.
"""
from __future__ import annotations

import numpy as np

from .classify import nn_classify
from .datamodel import AdaptConfig, DomainPair
from .errors import ParameterError
from .graphs import CrossAffinity, build_affinity, build_laplacian
from .linalg import kernel_range, matmul, median_pairwise_distance
from .mmd import CrossTerm


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class InputOperands:
    """Lazily built, read-only input-space operands of one (pair, config)."""

    def __init__(self, pair: DomainPair, cfg: AdaptConfig):
        self.pair = pair
        self.cfg = cfg
        self.x = _read_only(pair.packed_features())
        self._sigma = cfg.sigma
        self._range: tuple[np.ndarray, np.ndarray] | None = None
        self._range_terms: tuple[np.ndarray, np.ndarray] | None = None
        self._operand: np.ndarray | None = None
        self._cross: CrossTerm | None = None
        self._initial: np.ndarray | None = None

    @classmethod
    def for_cell(cls, pair: DomainPair, cfg: AdaptConfig,
                 operands: "InputOperands | None") -> "InputOperands":
        """``operands`` checked against the cell's pair and config, or fresh ones."""
        if operands is None:
            return cls(pair, cfg)
        if operands.pair is not pair or operands.cfg != cfg:
            raise ParameterError("shared operands were built for another pair or config")
        return operands

    def _bandwidth(self) -> float:
        """sigma: the config's, or else the median pairwise distance of x, resolved once."""
        if self._sigma is None:
            self._sigma = median_pairwise_distance(self.x)
        return self._sigma

    def kernel_range(self) -> tuple[np.ndarray, np.ndarray]:
        """(U_r, w_r) of ``linalg.kernel_range`` for the config's kernel of x."""
        if self._range is None:
            cfg = self.cfg
            if cfg.kernel == "primal":
                raise ParameterError("primal mode has no kernel matrix")
            sigma = self._bandwidth() if cfg.kernel == "rbf" else None
            self._range = tuple(_read_only(a) for a in kernel_range(
                self.x, cfg.kernel, sigma=sigma, degree=cfg.degree))
        return self._range

    def range_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(U_r[:ns]^T U_r[:ns], L U_r), the fixed part of MEDA's system.

        The source indicator E seen from the range of K, and the normalized
        Laplacian L of the kNN affinity of x (MEDA's manifold term) applied
        to U_r, from L's edge list a panel of rows at a time. L is not kept.
        """
        if self._range_terms is None:
            basis, _ = self.kernel_range()
            ns = self.pair.n_source
            aff, self._sigma = build_affinity(self.x, self._sigma, self.cfg.neighborhood_p)
            lap = build_laplacian(aff)
            del aff  # its weights go before L's panels are scattered
            terms = matmul(basis[:ns].T, basis[:ns]), lap.times(basis)
            self._range_terms = tuple(_read_only(a) for a in terms)
        return self._range_terms

    def pencil_operand(self) -> np.ndarray:
        """s, the (dim, n) operand of the projection pencil.

        x in primal mode; in kernel mode the reduced operand
        S_r = diag(w_r) U_r^T of ``linalg.kernel_range``.
        """
        if self._operand is None:
            if self.cfg.kernel == "primal":
                self._operand = self.x
            else:
                basis, w = self.kernel_range()
                self._operand = _read_only(w[:, None] * basis.T)
        return self._operand

    def cross_term(self, off_class: bool = False) -> CrossTerm:
        """The ``mmd.CrossTerm`` every boundary operator of this pair and config reads.

        It holds W, the (ns, nt) cross block of the Gaussian affinity of x,
        as a ``graphs.CrossAffinity`` read by source rows (the boundary
        graphs read nothing else of the affinity), with the source rows
        grouped by class. With ``off_class`` it also holds T
        (``mmd.off_class_term``) for the pencil operand, made with one walk
        of W the first time a model asks: a DB model on a base with a
        separation term.
        """
        if self._cross is None:
            w = CrossAffinity(self.x, self.pair.n_source, self._bandwidth())
            self._cross = CrossTerm.of(w, self.pair.source.labels, self.pair.class_count)
        if off_class and self._cross.off_class is None:
            self._cross = self._cross.with_operand(self.pencil_operand())
        return self._cross

    def initial_labels(self) -> np.ndarray:
        """The target's own pseudo-labels, or else its 1-NN labels from the source."""
        if self._initial is None:
            source, target = self.pair.source, self.pair.target
            self._initial = target.pseudo_labels if target.pseudo_labels is not None else (
                _read_only(nn_classify(source.features, source.labels, target.features)))
        return self._initial
