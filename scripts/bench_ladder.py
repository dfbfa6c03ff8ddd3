#!/usr/bin/env python3
"""Run a named ladder of adaptation cells, each in a fresh process, and write BENCH_<label>.json.

    python3 scripts/bench_ladder.py --label NAME [--top]

A cell is one model on one seeded synthetic pair (rotation 30 degrees,
noise 0.8, seed 7), run through ``adapt.run_adaptation``. Each cell runs
in its own interpreter, so its peak resident memory is its own; a
warm-up run on a 10-per-class pair first takes the one-off costs of a
process, such as the first eigensolver call. Per cell the file records:

  wall_s         the median run_adaptation call (operands, rounds,
                 labels) over at least three runs, and up to five while
                 they fit in a second; generating the pair is left out
  walls_s        each run's wall time, in order, so the spread beside
                 the median is in the file
  max_rss_mb     the process's resident high-water mark (ru_maxrss),
                 imports and the pair included
  first_rss_mb   the same mark after the warm-up and the first timed
                 run, so that cells which took different numbers of runs
                 compare: later runs in one process can raise it
  labels_sha256  of the predicted target labels, written as in perfbench
  rounds, churns, accuracy

A speed-up between two files counts only where a cell's digest, rounds and
churns are equal, and by more than the spread of their walls_s. The
default cells have n <= 3000 and take about a minute; --top adds the
cells at n = 12000: primal CDDA+DB and DGA-DA+DB,
and rbf-kernel JDA+CG and MEDA+CG.
BLAS threads are min(2, nproc) unless OPENBLAS_NUM_THREADS is set.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cells(prefix: str, models: tuple[str, ...], data: dict, config: dict) -> dict:
    return {f"{prefix}-{m}": {"model": m, "data": data, "config": config} for m in models}


PROJ_3000 = dict(class_count=10, samples_per_class=150, feature_dim=64)
SMALL_300 = dict(class_count=3, samples_per_class=50, feature_dim=8)
RBF_1800 = dict(class_count=3, samples_per_class=300, feature_dim=2)
PROJ_12000 = dict(class_count=10, samples_per_class=600, feature_dim=64)
RBF_12000 = dict(class_count=3, samples_per_class=2000, feature_dim=2)

CELLS = {
    **_cells("small300", ("JDA+CG", "CDDA+DB", "DGA-DA+DB"), SMALL_300,
             dict(k=3, lam=1.0, max_iter=5)),
    **_cells("small300-rbf", ("MEDA+CG",), SMALL_300,
             dict(k=3, lam=1.0, max_iter=5, kernel="rbf")),
    **_cells("rbf1800", ("JDA+CG", "MEDA+CG"), RBF_1800,
             dict(k=10, lam=1.0, max_iter=2, kernel="rbf")),
    **_cells("proj3000", ("JDA", "CDDA+DB", "DGA-DA+DB"), PROJ_3000,
             dict(k=10, lam=1.0, max_iter=2)),
}
TOP_CELLS = {
    **_cells("proj12000", ("CDDA+DB", "DGA-DA+DB"), PROJ_12000,
             dict(k=10, lam=1.0, max_iter=2)),
    **_cells("rbf12000", ("JDA+CG", "MEDA+CG"), RBF_12000,
             dict(k=10, lam=1.0, max_iter=2, kernel="rbf")),
}


def run_cell(cell: dict) -> dict:
    """Run one cell in this process and return its record."""
    import resource
    import statistics
    import time
    from hashlib import sha256

    sys.path.insert(0, str(ROOT / "src"))
    from dbmmd.adapt import ModelKind, run_adaptation
    from dbmmd.datamodel import AdaptConfig
    from dbmmd.synthetic import SyntheticRecipe, generate_synthetic

    kind, cfg = ModelKind.parse(cell["model"]), AdaptConfig(**cell["config"])

    def pair(per_class: int):
        return generate_synthetic(SyntheticRecipe(
            **{**cell["data"], "samples_per_class": per_class}, shift="rotation",
            shift_param=30.0, noise_sigma=0.8, seed=7))

    def rss_mb() -> float:
        return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)

    warm = pair(10)
    run_adaptation(warm.pair, cfg, kind, warm.target_truth)
    ds = pair(cell["data"]["samples_per_class"])
    walls, spent = [], 0.0
    while len(walls) < 3 or (spent < 1.0 and len(walls) < 5):
        t0 = time.perf_counter()
        report = run_adaptation(ds.pair, cfg, kind, ds.target_truth)
        walls.append(time.perf_counter() - t0)
        spent += walls[-1]
        if len(walls) == 1:
            first_rss = rss_mb()
    labels = ",".join(str(v) for v in report.predicted_labels.tolist())
    return {
        "n": ds.pair.n_total,
        "wall_s": round(statistics.median(walls), 4),
        "walls_s": [round(w, 4) for w in walls],
        "runs": len(walls),
        "max_rss_mb": rss_mb(),
        "first_rss_mb": first_rss,
        "labels_sha256": sha256(labels.encode()).hexdigest(),
        "rounds": len(report.iterations),
        "churns": [r.churn for r in report.iterations],
        "accuracy": report.iterations[-1].accuracy,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", help="writes BENCH_<label>.json")
    parser.add_argument("--top", action="store_true", help="add the n = 12000 cells")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    known = {**CELLS, **TOP_CELLS}
    if args.child:
        print(json.dumps(run_cell(known[args.child])))
        return 0
    if not args.label:
        parser.error("--label is required")
    names = [*CELLS, *(TOP_CELLS if args.top else ())]
    env = dict(os.environ)
    threads = env.get("OPENBLAS_NUM_THREADS") or str(min(2, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    results = {}
    for name in names:
        done = subprocess.run([sys.executable, __file__, "--child", name], env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            results[name] = {**known[name], "error": done.stderr.strip().splitlines()[-1]}
            print(f"{name}: failed", flush=True)
            continue
        results[name] = {**known[name], **json.loads(done.stdout.strip().splitlines()[-1])}
        print(f"{name}: {results[name]['wall_s']} s, {results[name]['max_rss_mb']} MB",
              flush=True)
    import numpy
    import scipy
    doc = {
        "label": args.label,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "machine": platform.machine(),
                "nproc": os.cpu_count(), "blas_threads": int(threads)},
        "cells": results,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 1 if any("error" in r for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
