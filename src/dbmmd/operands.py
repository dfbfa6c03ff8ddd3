"""Input-space operands shared by every model cell of one (pair, config).

An experiment runs several models over one pair under one config, and
they all read the same input-space quantities: the packed features x, the
bandwidth sigma, the kernel matrix K and its numerical range, the
source-by-target block of the dense affinity behind the boundary graphs,
MEDA's normalized kNN Laplacian and the fixed part of MEDA's system in
the range of K. ``InputOperands`` builds each one the first time a cell
asks for it and hands out read-only arrays, so a cell that writes into K
or the affinity raises instead of corrupting the cells after it.

In rbf mode one distance pass gives both the median sigma and K, and the
distances become K in place. The affinity's cross block is then a view of
K[:ns, ns:]: the same exponent of the same distances, so it equals that
block of ``build_affinity`` bit for bit. In the other modes the block is
copied out of one dense ``build_affinity``, which is then dropped.
"""
from __future__ import annotations

import numpy as np

from .datamodel import AdaptConfig, DomainPair
from .errors import ParameterError
from .graphs import AffinityMatrix, build_affinity, build_laplacian, median_bandwidth
from .linalg import kernel_matrix, kernel_range, matmul, pairwise_sq_dists


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def range_products(basis: np.ndarray, ns: int, lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U[:ns]^T U[:ns], U^T L U) for a basis U of n rows, ns of them source."""
    return matmul(basis[:ns].T, basis[:ns]), matmul(basis.T, matmul(lap, basis))


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
        self._laplacian: np.ndarray | None = None

    @classmethod
    def for_cell(cls, pair: DomainPair, cfg: AdaptConfig,
                 operands: "InputOperands | None") -> "InputOperands":
        """``operands`` checked against the cell's pair and config, or fresh ones."""
        if operands is None:
            return cls(pair, cfg)
        if operands.pair is not pair or operands.cfg != cfg:
            raise ParameterError("shared operands were built for another pair or config")
        return operands

    def kernel(self) -> np.ndarray:
        """K, the (n, n) kernel matrix of x. Needs a kernel config."""
        if self._kernel is None:
            cfg = self.cfg
            if cfg.kernel == "primal":
                raise ParameterError("primal mode has no kernel matrix")
            if cfg.kernel == "rbf" and self._sigma is None:
                d2 = pairwise_sq_dists(self.x)
                self._sigma = median_bandwidth(d2)
                kmat = kernel_matrix(self.x, "rbf", sigma=self._sigma, sq_dists=d2)
            else:
                sigma = self._sigma if cfg.kernel == "rbf" else None
                kmat = kernel_matrix(self.x, cfg.kernel, sigma=sigma, degree=cfg.degree)
            self._kernel = _read_only(kmat)
        return self._kernel

    def kernel_range(self) -> tuple[np.ndarray, np.ndarray]:
        """(U_r, w_r) of ``linalg.kernel_range`` for K."""
        if self._range is None:
            self._range = tuple(_read_only(a) for a in kernel_range(self.kernel()))
        return self._range

    def range_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(U_r[:ns]^T U_r[:ns], U_r^T L U_r), the fixed part of MEDA's system.

        The source indicator E and the Laplacian L seen from the range of K.
        """
        if self._range_terms is None:
            basis, _ = self.kernel_range()
            terms = range_products(basis, self.pair.n_source, self.laplacian())
            self._range_terms = tuple(_read_only(a) for a in terms)
        return self._range_terms

    def affinity(self) -> np.ndarray:
        """The (ns, nt) cross block of the dense Gaussian affinity of x.

        The boundary graphs read nothing else of the affinity.
        """
        if self._affinity is None:
            ns = self.pair.n_source
            if self.cfg.kernel == "rbf":
                self._affinity = self.kernel()[:ns, ns:]
            else:
                self._affinity = _read_only(self._gaussian(0).entries[:ns, ns:].copy())
        return self._affinity

    def laplacian(self) -> np.ndarray:
        """Normalized Laplacian of the kNN affinity of x (MEDA's manifold term)."""
        if self._laplacian is None:
            knn = self._gaussian(self.cfg.neighborhood_p)
            self._laplacian = _read_only(build_laplacian(knn))
        return self._laplacian

    def _gaussian(self, p: int) -> AffinityMatrix:
        """``build_affinity`` of x with p neighbors, reusing a resolved sigma.

        In rbf mode the kernel's distance pass resolves a median sigma;
        otherwise the first affinity built does, and later ones reuse it.
        """
        if self._sigma is None and self.cfg.kernel == "rbf":
            self.kernel()
        aff = build_affinity(self.x, self._sigma, p)
        self._sigma = aff.sigma
        return aff
