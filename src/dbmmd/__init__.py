"""Decision-boundary-aware MMD domain adaptation.

Aligns a labeled source domain with an unlabeled target by minimizing
marginal and class-conditional MMD under a shared projection, optionally
reweighted by boundary graphs that compact same-class cross-domain pairs
and separate near-boundary different-class pairs. Ships the JDA, CDDA,
DGA-DA, and MEDA bases plus their +CG / +DB variants, a seeded synthetic
generator, and an experiment harness with a CLI.
"""
from .adapt import (MmdOperator, ModelKind, assemble_db, run_adaptation, run_meda_cg,
                    solve_projection)
from .classify import accuracy, hard_labels, nn_classify, one_hot, propagate_labels
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
from .experiment import ExperimentSpec, rerender_summary, run_experiment, write_synthetic_files
from .graphs import AffinityMatrix, BoundaryGraphs, build_affinity, build_graphs, build_laplacian
from .io import load_features, save_features
from .linalg import (
    EigPair,
    centering_matrix,
    gen_eig_smallest,
    kernel_matrix,
    median_pairwise_distance,
    pairwise_sq_dists,
)
from .mmd import MmdTables, build_all
from .synthetic import SyntheticDataset, SyntheticRecipe, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "AdaptationReport",
    "AffinityMatrix",
    "BandwidthError",
    "BoundaryGraphs",
    "DimensionError",
    "DomainPair",
    "EigPair",
    "ExperimentSpec",
    "FormatError",
    "IterationRecord",
    "LabeledDomain",
    "MmdOperator",
    "MmdTables",
    "ModelKind",
    "NumericError",
    "ParameterError",
    "StateError",
    "SyntheticDataset",
    "SyntheticRecipe",
    "UnlabeledDomain",
    "UnsupportedModelError",
    "accuracy",
    "assemble_db",
    "build_affinity",
    "build_all",
    "build_graphs",
    "build_laplacian",
    "centering_matrix",
    "gen_eig_smallest",
    "generate_synthetic",
    "hard_labels",
    "kernel_matrix",
    "load_features",
    "make_pair",
    "median_pairwise_distance",
    "nn_classify",
    "one_hot",
    "pairwise_sq_dists",
    "propagate_labels",
    "remap_labels",
    "rerender_summary",
    "run_adaptation",
    "run_experiment",
    "run_meda_cg",
    "save_features",
    "solve_projection",
    "write_synthetic_files",
]
