"""Smoke test of the command-line scripts under ``scripts/``."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_benchmark_writes_both_summaries(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_benchmark.py"),
         "--repeat", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    for group in ("projection", "structural_risk"):
        summary = tmp_path / group / "summary.md"
        assert summary.exists(), group
        assert summary.read_text() in out.stdout


def check_golden(env=None):
    fixture = SCRIPTS.parent / "tests" / "fixtures" / "golden.json"
    before = fixture.read_bytes()
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_golden.py"), "--check"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert "labels, churns, fixed points, accuracies, configs and digests: match" in lines
    assert "objectives and eigenvalues within 1e-12 relative: match" in lines
    assert fixture.read_bytes() == before


def test_make_golden_check_matches_the_fixture():
    check_golden()


def test_make_golden_check_matches_the_fixture_at_one_blas_thread():
    # results must not depend on the BLAS thread count. The pool size is
    # read at load time, hence the fresh interpreter. It runs the default
    # kernels of the machine: the core type has its own check above.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    check_golden({**env, "OPENBLAS_NUM_THREADS": "1"})


def test_bench_ladder_child_records_every_documented_field():
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_ladder.py"), "--child", "small300-JDA+CG"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.strip().splitlines()[-1])
    # the fields the script's docstring lists per cell
    for field in ("wall_s", "walls_s", "max_rss_mb", "first_rss_mb", "labels_sha256",
                  "rounds", "churns", "accuracy"):
        assert field in record, field
    # the high-water mark after the first timed run, which later runs only raise
    assert 0.0 < record["first_rss_mb"] <= record["max_rss_mb"]
    assert record["rounds"] == len(record["churns"])
    # at least three runs, each one's time beside their median
    assert len(record["walls_s"]) == record["runs"] >= 3
    assert min(record["walls_s"]) <= record["wall_s"] <= max(record["walls_s"])
