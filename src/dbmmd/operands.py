"""Input-space operands shared by every model cell of one (pair, config).

An experiment runs several models over one pair under one config, and
they all read the same input-space quantities: the packed features x, the
bandwidth sigma, the kernel matrix K and its numerical range U_r, the
source-by-target block of the Gaussian affinity behind the boundary
graphs, the fixed part of MEDA's system in the range of K, and the
target's starting pseudo-labels. ``InputOperands`` builds each one the
first time a cell asks for it and hands out read-only arrays, so a cell
that writes into K or the affinity block raises instead of corrupting the
cells after it. MEDA's normalized kNN Laplacian L only ever meets U_r, so
its edge list is scattered into one transient n x n array for the product
L U_r: K is the one n x n array kept.

The first build that needs a bandwidth resolves the median sigma, from
x by row blocks (``linalg.median_pairwise_distance``, or inside the kNN
affinity's own pass), and later builds reuse it. In rbf mode the
affinity's cross block is a view of K[:ns, ns:]. In the other modes it is
exp(d2 / (-2 sigma^2)) of the (ns, nt) cross-form distances of the source
and target columns, computed in place in that one array: no (n, n)
distances are held.
"""
from __future__ import annotations

import numpy as np

from .classify import nn_classify
from .datamodel import AdaptConfig, DomainPair
from .errors import ParameterError
from .graphs import build_affinity, build_laplacian, median_bandwidth
from .linalg import kernel_matrix, kernel_range, matmul, pairwise_sq_dists


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
        self._kernel: np.ndarray | None = None
        self._range: tuple[np.ndarray, np.ndarray] | None = None
        self._range_terms: tuple[np.ndarray, np.ndarray] | None = None
        self._affinity: np.ndarray | None = None
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
            self._sigma = median_bandwidth(self.x)
        return self._sigma

    def kernel(self) -> np.ndarray:
        """K, the (n, n) kernel matrix of x. Needs a kernel config."""
        if self._kernel is None:
            cfg = self.cfg
            if cfg.kernel == "primal":
                raise ParameterError("primal mode has no kernel matrix")
            if cfg.kernel == "rbf":
                kmat = kernel_matrix(self.x, "rbf", sigma=self._bandwidth())
            else:
                kmat = kernel_matrix(self.x, cfg.kernel, degree=cfg.degree)
            self._kernel = _read_only(kmat)
        return self._kernel

    def kernel_range(self) -> tuple[np.ndarray, np.ndarray]:
        """(U_r, w_r) of ``linalg.kernel_range`` for K."""
        if self._range is None:
            self._range = tuple(_read_only(a) for a in kernel_range(self.kernel()))
        return self._range

    def range_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(U_r[:ns]^T U_r[:ns], L U_r), the fixed part of MEDA's system.

        The source indicator E seen from the range of K, and the normalized
        Laplacian L of the kNN affinity of x (MEDA's manifold term) applied
        to U_r. L itself is not kept.
        """
        if self._range_terms is None:
            basis, _ = self.kernel_range()
            ns = self.pair.n_source
            aff, self._sigma = build_affinity(self.x, self._sigma, self.cfg.neighborhood_p)
            lap = build_laplacian(aff)
            del aff  # its weights go before L is scattered
            terms = matmul(basis[:ns].T, basis[:ns]), matmul(lap.dense(), basis)
            self._range_terms = tuple(_read_only(a) for a in terms)
        return self._range_terms

    def affinity(self) -> np.ndarray:
        """The (ns, nt) cross block of the Gaussian affinity of x.

        The boundary graphs read nothing else of the affinity.
        """
        if self._affinity is None:
            ns = self.pair.n_source
            if self.cfg.kernel == "rbf":
                self._affinity = self.kernel()[:ns, ns:]
            else:
                sigma = self._bandwidth()
                w = pairwise_sq_dists(self.x[:, :ns], self.x[:, ns:])
                np.divide(w, -2.0 * sigma * sigma, out=w)
                self._affinity = _read_only(np.exp(w, out=w))
        return self._affinity

    def initial_labels(self) -> np.ndarray:
        """The target's own pseudo-labels, or else its 1-NN labels from the source."""
        if self._initial is None:
            source, target = self.pair.source, self.pair.target
            self._initial = target.pseudo_labels if target.pseudo_labels is not None else (
                _read_only(nn_classify(source.features, source.labels, target.features)))
        return self._initial
