"""Workload definitions: plain data, importable without numpy or dbmmd.

Each workload is one or more model groups run through
``dbmmd.experiment.run_experiment`` on a seeded synthetic recipe. A pass
runs every group once; the measured phase repeats passes in a closed
loop, each starting after the previous returns.

``max_iter`` is capped below the published 10 so that every seed does
the same number of refinement rounds: at max_iter=10 the rounds to a
fixed point vary with the data (7 to 15 over seeds 7-11 on proj-large),
which would make wall time a property of the seed rather than of the
code. With the cap every cell still runs each stage of a round.
"""
from __future__ import annotations

from dataclasses import dataclass

PROJECTION_ZOO = (
    "JDA", "JDA+CG",
    "CDDA", "CDDA+CG", "CDDA+DB",
    "DGA-DA", "DGA-DA+CG", "DGA-DA+DB",
)

# The public functions the traced run wraps, as "<module>.<function>" of dbmmd.
LAYERS = (
    "experiment.run_experiment",
    "adapt.run_adaptation",
    "adapt.run_meda_cg",
    "adapt.assemble_db",
    "adapt.solve_projection",
    "linalg.gen_eig_smallest",
    "linalg.centering_matrix",
    "linalg.kernel_matrix",
    "linalg.pairwise_sq_dists",
    "linalg.median_pairwise_distance",
    "mmd.build_all",
    "graphs.build_affinity",
    "graphs.build_graphs",
    "graphs.build_laplacian",
    "classify.nn_classify",
    "classify.propagate_labels",
    "synthetic.generate_synthetic",
    "io.load_features",
    "io.atomic_write_text",
)
ALL_LAYERS = frozenset(LAYERS)


@dataclass(frozen=True)
class Workload:
    name: str
    class_count: int
    samples_per_class: int
    feature_dim: int
    groups: tuple[tuple[tuple[str, ...], dict], ...]  # (models, AdaptConfig kwargs)
    repeat: int  # synthetic repeats re-seed the recipe: seed, seed+1, ...
    file_dataset: bool  # write the pair to CSV in set-up, load it in each pass
    warmup_per_class: int
    # Layers every pass reaches; a traced run with no call to one of them fails.
    reaches: frozenset


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="zoo-small",
            class_count=3,
            samples_per_class=50,
            feature_dim=2,
            groups=(
                (PROJECTION_ZOO, dict(k=2, lam=1.0, max_iter=1)),
                (("MEDA", "MEDA+CG"), dict(k=2, lam=1.0, max_iter=1, kernel="rbf")),
            ),
            repeat=8,
            file_dataset=False,
            warmup_per_class=50,
            reaches=ALL_LAYERS - {"io.load_features"},
        ),
        Workload(
            name="proj-large",
            class_count=10,
            samples_per_class=150,
            feature_dim=64,
            groups=((("JDA", "CDDA+DB", "DGA-DA+DB"), dict(k=10, lam=1.0, max_iter=2)),),
            repeat=1,
            file_dataset=True,
            warmup_per_class=10,
            reaches=ALL_LAYERS - {
                "adapt.run_meda_cg", "linalg.kernel_matrix", "synthetic.generate_synthetic",
            },
        ),
        Workload(
            name="kernel-mid",
            class_count=3,
            samples_per_class=300,
            feature_dim=2,
            groups=(
                (("JDA", "JDA+CG", "MEDA+CG"), dict(k=10, lam=1.0, max_iter=2, kernel="rbf")),
            ),
            repeat=1,
            file_dataset=False,
            warmup_per_class=20,
            reaches=ALL_LAYERS - {"classify.propagate_labels", "io.load_features"},
        ),
    )
}

# Shared by every workload: the golden recipe's shift and noise.
SHIFT = "rotation"
SHIFT_PARAM = 30.0
NOISE_SIGMA = 0.8
DEFAULT_SEED = 7
