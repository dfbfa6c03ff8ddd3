"""Domain containers and run configuration.

Arrays stored on the containers are defensive copies with the writeable
flag cleared: pseudo-labels are replaced via ``with_pseudo_labels``, never
edited in place, so a fixed config and seed always replays bit-identically.

The harness's JSON has one codec: ``from_json`` builds a frozen dataclass
from an object, typing each value by its field (a dataclass field from a
nested object), and ``to_json`` writes a dataclass back by its fields.
Every ``from_dict`` and ``to_dict`` here and in ``synthetic`` and
``experiment`` is a call of one of the two.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import numbers
import types
import typing
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

KERNEL_KINDS = ("primal", "linear", "rbf", "poly")


def _frozen_features(x) -> np.ndarray:
    x = np.array(x, dtype=float, copy=True)
    if x.ndim != 2:
        raise DimensionError(f"features must be 2-D (dim, samples), got shape {x.shape}")
    if x.shape[1] == 0:
        raise ParameterError("domain has no samples")
    if not np.isfinite(x).all():
        raise ParameterError("features contain non-finite entries")
    x.setflags(write=False)
    return x


def _integral_labels(y: np.ndarray, what: str) -> np.ndarray:
    """y unchanged when of an integer dtype, else its integral values as int64.

    A float outside the int64 range (inf, 1e30) raises; a cast would give INT64_MIN.
    """
    if np.issubdtype(y.dtype, np.integer):
        return y
    if not np.all(y == np.floor(y)):
        raise ParameterError(f"{what} must be integers")
    if not np.all((y >= -2.0**63) & (y < 2.0**63)):
        raise ParameterError(f"{what} outside the int64 range")
    return y.astype(np.int64)


def _frozen_labels(y, m: int, what: str) -> np.ndarray:
    y = np.array(y, copy=True)
    if y.ndim != 1 or y.shape[0] != m:
        raise DimensionError(f"{what} must be 1-D of length {m}, got shape {y.shape}")
    y = _integral_labels(y, what)
    if y.dtype.kind == "u" and y.size and y.max() > np.iinfo(np.int64).max:
        raise ParameterError(f"{what} outside the int64 range")
    y = y.astype(np.int64, copy=False)
    if (y < 0).any():
        raise ParameterError(f"{what} must be nonnegative")
    y.setflags(write=False)
    return y


def _integral(value, key: str) -> int:
    """value as an int, when it is an integral number such as 2 or 2.0.

    A bool, a fractional or non-finite float and a non-number raise
    ParameterError naming key.
    """
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise ParameterError(f"{key} must be int, got {value!r}")


@functools.cache
def _int_fields(cls) -> tuple[str, ...]:
    return tuple(name for name, tp in typing.get_type_hints(cls).items() if tp is int)


def fit_int_fields(obj) -> None:
    """Hold every int field of the frozen dataclass obj as an int (``_integral``)."""
    for name in _int_fields(type(obj)):
        object.__setattr__(obj, name, _integral(getattr(obj, name), name))


def _fit(tp, value, key: str):
    """value, read from JSON, as a field declared tp holds it.

    An int takes an integral number, a float any number, a tuple[X, ...]
    an array of X, a dataclass an object (``from_json``), X | None null or
    what X takes, and only a bool field takes a bool. ParameterError names
    key when the value does not fit.
    """
    if isinstance(tp, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        alts = [alt for alt in typing.get_args(tp) if alt is not type(None)]
        if len(alts) == 1:
            return _fit(alts[0], value, key)
        for alt in alts:
            with contextlib.suppress(ParameterError):
                return _fit(alt, value, key)
    elif dataclasses.is_dataclass(tp):
        return from_json(tp, value, key)
    elif typing.get_origin(tp) is tuple:
        if isinstance(value, list):
            item = typing.get_args(tp)[0]
            return tuple(_fit(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    elif isinstance(value, bool) != (tp is bool):
        pass  # a bool is not a number here, and a bool field takes nothing else
    elif tp is int:
        return _integral(value, key)
    elif isinstance(value, (int, float) if tp is float else tp):
        return value
    raise ParameterError(f"{key} must be {tp.__name__ if isinstance(tp, type) else tp}, "
                         f"got {value!r}")


def from_json(cls, d, what: str, prefix: str | None = None):
    """The frozen dataclass cls built from d, the JSON object called what.

    Every key must name a field and every value fit that field's type
    (``_fit``); omitted keys take the field defaults, and a field without
    one must be given. Errors name a field's key as prefix.key, prefix
    being what unless given ("" names the bare key).
    """
    if not isinstance(d, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(d).__name__}")
    fields = dataclasses.fields(cls)
    extra = set(d) - {f.name for f in fields}
    if extra:
        raise ParameterError(f"unknown {what} keys: {sorted(extra)}")
    missing = [f.name for f in fields if f.name not in d
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ParameterError(f"{what} missing required keys: {missing}")
    prefix = what if prefix is None else prefix
    hints = typing.get_type_hints(cls)
    return cls(**{k: _fit(hints[k], v, f"{prefix}.{k}" if prefix else k) for k, v in d.items()})


def to_json(value):
    """value as JSON holds it, the inverse of ``from_json``: a dataclass as
    an object of its fields, an array by ``tolist()``, a tuple as a list."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    return value


def remap_labels(raw) -> tuple[np.ndarray, tuple[int, ...]]:
    """Map arbitrary integer label values onto dense indices 0..C-1.

    Returns the dense labels and the original value for each dense index
    (sorted ascending), so reports can show the caller's own labels.
    """
    raw = np.asarray(raw)
    if raw.ndim != 1 or raw.size == 0:
        raise ParameterError("labels must be a nonempty 1-D array")
    values, dense = np.unique(_integral_labels(raw, "labels"), return_inverse=True)
    return dense.astype(np.int64), tuple(int(v) for v in values)


@dataclass(frozen=True)
class LabeledDomain:
    """Feature matrix (dim, m) with one integer class label per column."""

    features: np.ndarray
    labels: np.ndarray
    name: str = ""
    label_values: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen_features(self.features))
        object.__setattr__(
            self, "labels", _frozen_labels(self.labels, self.features.shape[1], "labels")
        )

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class UnlabeledDomain:
    """Feature matrix (dim, m), optionally carrying current pseudo-labels."""

    features: np.ndarray
    pseudo_labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen_features(self.features))
        if self.pseudo_labels is not None:
            object.__setattr__(
                self,
                "pseudo_labels",
                _frozen_labels(self.pseudo_labels, self.features.shape[1], "pseudo-labels"),
            )

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class DomainPair:
    """A labeled source and an unlabeled target over a shared feature space.

    ``make_pair`` is the validating constructor for real runs (it requires
    at least two classes); degenerate single-class pairs can be built
    directly for identity checks.
    """

    source: LabeledDomain
    target: UnlabeledDomain
    class_count: int

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise DimensionError(
                f"feature dims differ: source {self.source.dim}, target {self.target.dim}"
            )
        c = self.class_count
        if int(c) != c or c < 1:
            raise ParameterError(f"class_count must be a positive integer, got {c}")
        if self.source.labels.max() >= c:
            raise ParameterError("source label out of range for class_count")
        present = np.bincount(self.source.labels, minlength=c) > 0
        if not present.all():
            missing = int(np.flatnonzero(~present)[0])
            raise ParameterError(f"source has no samples of class {missing}")
        if self.target.pseudo_labels is not None and self.target.pseudo_labels.max() >= c:
            raise ParameterError("target pseudo-label out of range for class_count")

    @property
    def n_source(self) -> int:
        return self.source.n

    @property
    def n_target(self) -> int:
        return self.target.n

    @property
    def n_total(self) -> int:
        return self.source.n + self.target.n

    def packed_features(self) -> np.ndarray:
        """Samples in the packed order [source | target] used by all matrices."""
        return np.hstack([self.source.features, self.target.features])

    def with_pseudo_labels(self, pseudo) -> "DomainPair":
        target = UnlabeledDomain(self.target.features, pseudo, self.target.name)
        return DomainPair(self.source, target, self.class_count)


def make_pair(source: LabeledDomain, target: UnlabeledDomain) -> DomainPair:
    """Validated pair with the class count inferred from the source labels."""
    class_count = int(source.labels.max()) + 1
    if class_count < 2:
        raise ParameterError("need at least two source classes")
    return DomainPair(source, target, class_count)


@dataclass(frozen=True)
class AdaptConfig:
    """Hyper-parameters for one adaptation run.

    Defaults follow the published settings (k=100, lambda=1, mu=0.01,
    alpha=10, rho=0.1, eta=1, 10 refinement rounds); desk-scale synthetic
    runs override k and lambda explicitly.
    """

    k: int = 100
    lam: float = 1.0
    mu: float = 0.01
    max_iter: int = 10
    kernel: str = "primal"
    sigma: float | None = None  # None: the median pairwise distance
    degree: int = 2
    neighborhood_p: int = 5
    meda_alpha: float = 10.0
    meda_rho: float = 0.1
    meda_eta: float = 1.0

    def __post_init__(self):
        fit_int_fields(self)
        for key in ("lam", "mu", "meda_alpha", "meda_rho", "meda_eta"):
            if not math.isfinite(value := getattr(self, key)):
                raise ParameterError(f"{key} must be finite, got {value}")
        if self.k < 1:
            raise ParameterError(f"k must be a positive integer, got {self.k}")
        if not self.lam > 0.0:
            raise ParameterError(f"lam must be positive, got {self.lam}")
        if not self.mu > 0.0:
            raise ParameterError(f"mu must be positive, got {self.mu}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be a positive integer, got {self.max_iter}")
        if self.kernel not in KERNEL_KINDS:
            raise ParameterError(f"kernel must be one of {KERNEL_KINDS}, got {self.kernel!r}")
        if self.sigma is not None and not self.sigma > 0.0:
            raise ParameterError(f"sigma must be positive or None, got {self.sigma}")
        if self.degree < 1:
            raise ParameterError(f"degree must be a positive integer, got {self.degree}")
        if self.neighborhood_p < 0:
            raise ParameterError(
                f"neighborhood_p must be a nonnegative integer, got {self.neighborhood_p}"
            )
        if not self.meda_eta > 0.0:
            raise ParameterError(f"meda_eta must be positive, got {self.meda_eta}")
        if not self.meda_alpha >= 0.0 or not self.meda_rho >= 0.0:
            raise ParameterError("meda_alpha and meda_rho must be nonnegative")

    def replace(self, **kw) -> "AdaptConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, d: dict) -> "AdaptConfig":
        return from_json(cls, d, "config")


@dataclass(frozen=True)
class IterationRecord:
    """State after one refinement round."""

    iteration: int
    churn: int
    objective: float
    eigenvalues: tuple[float, ...]
    pseudo_labels: np.ndarray
    accuracy: float | None = None

    def __post_init__(self):
        labels = np.array(self.pseudo_labels, dtype=np.int64, copy=True)
        labels.setflags(write=False)
        object.__setattr__(self, "pseudo_labels", labels)
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ParameterError(f"accuracy outside [0, 1]: {self.accuracy}")


@dataclass
class AdaptationReport:
    """Everything a run produced, in iteration order."""

    model: str
    config: AdaptConfig
    baseline_accuracy: float | None
    iterations: list[IterationRecord]
    predicted_labels: np.ndarray
    projection: np.ndarray
    fixed_point_iteration: int | None
    wall_time: float
    embedding: np.ndarray | None = None
    label_values: tuple[int, ...] | None = None
    # r, the numerical rank of K that kernel mode solves in; None in primal mode
    kernel_rank: int | None = None

    @property
    def final_accuracy(self) -> float | None:
        if not self.iterations:
            return self.baseline_accuracy
        return self.iterations[-1].accuracy

    def to_dict(self) -> dict:
        """JSON-friendly view. Embeddings are dumped separately as raw files."""
        view = {f.name: to_json(getattr(self, f.name))
                for f in dataclasses.fields(self) if f.name != "embedding"}
        # the propagation trade-off is sometimes quoted as 1/(1+mu); record both
        view["config"]["mu_alpha_tradeoff"] = 1.0 / (1.0 + self.config.mu)
        return view
