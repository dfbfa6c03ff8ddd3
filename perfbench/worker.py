"""One benchmark process: set a workload up, then optionally measure it.

    python3 perfbench/worker.py --workload W --seed N --work DIR --mode setup
    python3 perfbench/worker.py --workload W --seed N --work DIR --mode measure \
        --seconds S --trace 0|1

run.py starts a fresh worker for every set-up sample and for the
measured run, so imports, the first LAPACK calls and the resident-memory
high-water mark belong to one workload only. The last line of standard
output is one JSON object.

Set-up is: importing numpy, scipy and dbmmd; building the specs (for file
workloads, generating the pair and writing it to CSV); and one warm-up
pass on a small pair through the same models, so one-off costs such as the
first eigensolver call in a process (up to about 0.7 s) land in set-up,
not in the passes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from hashlib import sha256
from pathlib import Path

from workloads import NOISE_SIGMA, SHIFT, SHIFT_PARAM, WORKLOADS

T0 = time.perf_counter()  # set-up starts here: the imports below count

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from dbmmd import experiment  # noqa: E402
from dbmmd.experiment import ExperimentSpec, write_synthetic_files  # noqa: E402
from dbmmd.synthetic import SyntheticRecipe  # noqa: E402

import spans  # noqa: E402


def build_specs(wl, seed: int, per_class: int, repeat: int, out: Path) -> list[ExperimentSpec]:
    recipe = SyntheticRecipe(
        wl.class_count, per_class, wl.feature_dim, SHIFT, SHIFT_PARAM, NOISE_SIGMA, seed
    )
    if wl.file_dataset:
        paths = write_synthetic_files(recipe, out / "data", "csv")
        dataset = {key: str(path) for key, path in paths.items()}
    else:
        dataset = {"synthetic": recipe.to_dict()}
    return [
        ExperimentSpec.from_dict({
            "models": list(models),
            "config": config,
            "output_dir": str(out / f"group{i}"),
            "repeat": repeat,
            "dataset": dataset,
        })
        for i, (models, config) in enumerate(wl.groups)
    ]


def cell_digest(out_dir: Path, row: dict) -> dict:
    """What the correctness check compares for one (model, repeat) cell."""
    cell = {"model": row["model"], "repeat": row["repeat"], "status": row["status"]}
    if row["status"] != "ok":
        cell["error"] = row["error"]
        return cell
    report = json.loads((out_dir / row["report"]).read_text())
    labels = ",".join(str(v) for v in report["predicted_labels"])
    cell.update(
        labels_sha256=sha256(labels.encode()).hexdigest(),
        fixed_point_iteration=report["fixed_point_iteration"],
        rounds=len(report["iterations"]),
        accuracy=row["accuracy"],
    )
    return cell


def run_pass(specs: list[ExperimentSpec]) -> tuple[float, list[dict]]:
    """Every cell once; the clock stops before reports are read back."""
    start = time.perf_counter()
    # Looked up on the module at call time, so the traced run sees its wrapper.
    results = [experiment.run_experiment(spec) for spec in specs]
    wall = time.perf_counter() - start
    return wall, [cell_digest(r.output_dir, row) for r in results for row in r.runs]


def measure(specs, seconds: float, tracer=None):
    """Closed loop of passes until the next would end half a pass past ``seconds``.

    With a tracer, passes alternate untraced and traced, so that drift in
    machine speed falls on both alike, and the loop ends after a traced pass.
    Returns (untraced walls, traced walls, cells per pass, layer summaries).
    """
    walls, traced_walls, passes, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            mark = tracer.mark()
            with tracer:
                wall, cells = run_pass(specs)
            layers.append(tracer.summarize(mark))
        else:
            wall, cells = run_pass(specs)
        (traced_walls if traced else walls).append(wall)
        passes.append(cells)
        elapsed = time.perf_counter() - start
        if (tracer is None or traced) and (
            elapsed + statistics.median(walls + traced_walls) / 2 >= seconds
        ):
            return walls, traced_walls, passes, layers


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_id,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    work = Path(args.work)

    specs = build_specs(wl, args.seed, wl.samples_per_class, wl.repeat, work / "measure")
    for spec in build_specs(wl, args.seed, wl.warmup_per_class, 1, work / "warmup"):
        experiment.run_experiment(spec)
    out = {"setup_s": time.perf_counter() - T0}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = spans.Tracer() if args.trace else None
    out["walls"], traced_walls, out["passes"], layers = measure(specs, args.seconds, tracer)
    if tracer:
        out["traced_walls"] = traced_walls
        summary = spans.median_summary(layers)
        spans.check_reached(wl.reaches, summary, wl.name)
        for layer, nbytes in tracer.out_bytes.items():
            summary[f"{layer}.out_mb"] = nbytes / 2**20
        summary[f"{spans.ORDER_LAYER}.order_max"] = tracer.order_max
        out["layers"] = summary
        dump = ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": tracer.spans}))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = environment(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
