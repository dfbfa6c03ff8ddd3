"""Smoke test of the command-line scripts under ``scripts/``."""
from __future__ import annotations

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
