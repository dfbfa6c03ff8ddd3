#!/usr/bin/env python3
"""Run the full model zoo on the rotated-Gaussians benchmark pair.

Writes two experiment directories (the projection models run primal, the
structural-risk models run on an rbf kernel) and prints both summaries.

    python3 scripts/run_benchmark.py [--out DIR]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dbmmd.datamodel import AdaptConfig
from dbmmd.experiment import DatasetSpec, ExperimentSpec, run_experiment
from dbmmd.synthetic import SyntheticRecipe

RECIPE = SyntheticRecipe(
    class_count=3,
    samples_per_class=50,
    feature_dim=2,
    shift="rotation",
    shift_param=30.0,
    noise_sigma=0.8,
    seed=7,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="benchmark_out", help="output directory")
    parser.add_argument("--repeat", type=int, default=3, help="seeded repetitions")
    args = parser.parse_args()
    out = Path(args.out)

    projection = ExperimentSpec(
        models=(
            "JDA", "JDA+CG",
            "CDDA", "CDDA+CG", "CDDA+DB",
            "DGA-DA", "DGA-DA+CG", "DGA-DA+DB",
        ),
        config=AdaptConfig(k=2, lam=1.0, max_iter=10),
        output_dir=str(out / "projection"),
        dataset=DatasetSpec(synthetic=RECIPE),
        repeat=args.repeat,
    )
    risk = ExperimentSpec(
        models=("MEDA", "MEDA+CG"),
        config=AdaptConfig(k=2, lam=1.0, max_iter=10, kernel="rbf"),
        output_dir=str(out / "structural_risk"),
        dataset=DatasetSpec(synthetic=RECIPE),
        repeat=args.repeat,
    )

    code = 0
    for spec in (projection, risk):
        result = run_experiment(spec)
        print((result.output_dir / "summary.md").read_text())
        code = max(code, result.exit_code)
    return code


if __name__ == "__main__":
    sys.exit(main())
