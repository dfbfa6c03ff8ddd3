"""Decision-boundary-aware MMD domain adaptation.

Aligns a labeled source domain with an unlabeled target by minimizing
marginal and class-conditional MMD under a shared projection, optionally
reweighted by boundary graphs that compact same-class cross-domain pairs
and separate near-boundary different-class pairs. Ships the JDA, CDDA,
DGA-DA, and MEDA bases plus their +CG / +DB variants, a seeded synthetic
generator, and an experiment harness with a CLI.
"""
from .adapt import ModelKind, run_adaptation, run_meda_cg
from .classify import accuracy
from .datamodel import (
    AdaptConfig,
    AdaptationReport,
    DomainPair,
    IterationRecord,
    LabeledDomain,
    UnlabeledDomain,
    make_pair,
    remap_labels,
)
from .errors import (
    BandwidthError,
    DimensionError,
    FormatError,
    NumericError,
    ParameterError,
    StateError,
    UnsupportedModelError,
)
from .experiment import (DatasetSpec, ExperimentSpec, rerender_summary, run_experiment,
                         write_synthetic_files)
from .io import load_features, save_features
from .synthetic import SyntheticDataset, SyntheticRecipe, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "AdaptationReport",
    "BandwidthError",
    "DatasetSpec",
    "DimensionError",
    "DomainPair",
    "ExperimentSpec",
    "FormatError",
    "IterationRecord",
    "LabeledDomain",
    "ModelKind",
    "NumericError",
    "ParameterError",
    "StateError",
    "SyntheticDataset",
    "SyntheticRecipe",
    "UnlabeledDomain",
    "UnsupportedModelError",
    "accuracy",
    "generate_synthetic",
    "load_features",
    "make_pair",
    "remap_labels",
    "rerender_summary",
    "run_adaptation",
    "run_experiment",
    "run_meda_cg",
    "save_features",
    "write_synthetic_files",
]
