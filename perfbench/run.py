#!/usr/bin/env python3
"""Layered benchmark of the dbmmd adaptation pipeline.

    python3 perfbench/run.py --workload zoo-small|proj-large|kernel-mid \
        [--seed 7] [--seconds 30] [--trace 0|1] [--record]

Run from anywhere inside a checkout that holds ``src/dbmmd``. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (wall_s, setup_s, peak_rss_mb, accuracy, rounds,
ok_ratio); with --trace 1 it holds the per-layer metrics of a traced run
instead. The lines before it give the environment and, for a seed with no
stored expected values, the per-cell digests to compare two commits by.
--record stores the cells of a default-seed run as the expected values.
See NOTES.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_names
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 7  # fresh processes timed per untraced run; setup_s is their median
TIME_LIMIT = 170.0  # seconds for all worker processes of one run
CHECKED = ("labels_sha256", "fixed_point_iteration", "rounds", "accuracy")


class BenchError(RuntimeError):
    pass


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT:g} s spent before {argv}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv} passed the {TIME_LIMIT:g} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not EXPECTED.exists():
        return None
    cells = json.loads(EXPECTED.read_text())["workloads"].get(workload)
    return None if cells is None else {(c["model"], c["repeat"]): c for c in cells}


def check_cells(passes: list[list[dict]], expected: dict | None) -> tuple[int, int]:
    """(attempted, failed) over every cell of every pass.

    A cell fails when it raised, or when its digest differs from the
    stored expected value, or, for a seed with none stored, from the same
    cell in the first pass. An expected cell missing from a pass fails too.
    """
    reference = expected or {(c["model"], c["repeat"]): c for c in passes[0]}
    attempted = failed = 0
    for cells in passes:
        seen = set()
        for cell in cells:
            key = (cell["model"], cell["repeat"])
            seen.add(key)
            want = reference.get(key)
            attempted += 1
            if cell["status"] != "ok":
                failed += 1
                print(f"cell {key} failed: {cell.get('error')}", file=sys.stderr)
            elif want is None or any(cell[k] != want.get(k) for k in CHECKED):
                failed += 1
                print(f"cell {key} differs: got {cell}, want {want}", file=sys.stderr)
        missing = set(reference) - seen
        attempted += len(missing)
        failed += len(missing)
    return attempted, failed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's cells as the expected values")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.record and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--record needs --seed {DEFAULT_SEED} and --trace 0")
    if not (ROOT / "src" / "dbmmd" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'dbmmd'} not found; run inside a dbmmd checkout",
              file=sys.stderr)
        return 2

    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + TIME_LIMIT
    setups = []
    try:
        work.mkdir(parents=True)
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                argv = base + ["--work", str(work / f"setup{i}"), "--mode", "setup"]
                setups.append(run_worker(argv, env, deadline)["setup_s"])
        argv = base + ["--work", str(work / "run"), "--mode", "measure",
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = run_worker(argv, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    expected = load_expected(args.workload, args.seed)
    passes = result["passes"]
    attempted, failed = check_cells(passes, expected)
    setups.append(result["setup_s"])
    walls = result["walls"]
    info = dict(result["env"], workload=args.workload, seconds=args.seconds,
                trace=args.trace, expected_values=expected is not None,
                untraced_passes=len(walls), wall_samples_s=walls,
                setup_samples_s=setups)
    if args.trace:
        traced = result["traced_walls"]
        overhead = statistics.median(traced) - statistics.median(walls)
        info.update(traced_passes=len(traced), traced_wall_samples_s=traced,
                    trace_overhead_s=overhead)
    print(json.dumps({"env": info}))
    if expected is None:
        print(json.dumps({"digests": passes[0]}))

    if args.trace:
        layers = dict(result["layers"], **{"trace.overhead_s": overhead})
        metrics = {name: metric(layers[name], unit) for name, unit, _ in per_layer_names()}
    else:
        ok = [c for c in passes[0] if c["status"] == "ok"]
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "accuracy": metric(statistics.fmean(c["accuracy"] for c in ok) if ok else 0.0,
                               "fraction"),
            "rounds": metric(sum(c["rounds"] for c in ok), "count"),
            "ok_ratio": metric((attempted - failed) / attempted, "fraction"),
        }
    if args.record:
        if failed:
            print("error: not recording a run with failed cells", file=sys.stderr)
            return 1
        stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {
            "seed": DEFAULT_SEED, "workloads": {}}
        stored["workloads"][args.workload] = [
            {k: c[k] for k in ("model", "repeat", *CHECKED)} for c in passes[0]]
        EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
