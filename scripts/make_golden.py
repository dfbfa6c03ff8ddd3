#!/usr/bin/env python3
"""Regenerate tests/fixtures/golden.json.

The fixture pins every number the acceptance tests compare: per-iteration
churns, objectives, eigenvalues, accuracies, the predicted labels, and
sha256 digests of the generated features. The discrete fields are compared
exactly; objectives and eigenvalues to FLOAT_REL_TOL relative, because
their last bits depend on the BLAS kernel the CPU dispatches to. Rerun
this script only when an intentional behavior change invalidates the
frozen values, and say why in the commit message.

    python3 scripts/make_golden.py           # rewrite the fixture
    python3 scripts/make_golden.py --check   # compare only, write nothing

``--check`` regenerates the fixture in memory and prints, per section, how
many iteration records differ from the file and the largest relative
drift of the objectives and eigenvalues. It exits 1 if any predicted
label, churn, fixed-point iteration or accuracy differs, or if an
objective or eigenvalue drifts by more than FLOAT_REL_TOL relative: the
same criterion as ``tests/test_acceptance.py::test_criterion_4_golden_pair``.
The config dicts, the recipe and the feature digests count as discrete
fields too: each that differs from what the script would write is one
mismatch.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dbmmd.adapt import ModelKind, run_adaptation
from dbmmd.datamodel import AdaptConfig
from dbmmd.synthetic import SyntheticRecipe, generate_synthetic

FIXTURE_PATH = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "golden.json"

RECIPE = SyntheticRecipe(
    class_count=3,
    samples_per_class=50,
    feature_dim=2,
    shift="rotation",
    shift_param=30.0,
    noise_sigma=0.8,
    seed=7,
)

# k=2 keeps both synthetic directions; lam=1 matches the published default.
CONFIG = AdaptConfig(k=2, lam=1.0, max_iter=10)

PRIMAL_MODELS = (
    "JDA",
    "JDA+CG",
    "CDDA",
    "CDDA+CG",
    "CDDA+DB",
    "DGA-DA",
    "DGA-DA+CG",
    "DGA-DA+DB",
)

MEDA_CONFIG = CONFIG.replace(kernel="rbf")
MEDA_MODELS = ("MEDA", "MEDA+CG")

LINEAR_CONFIG = CONFIG.replace(kernel="linear")

# Relative tolerance on pinned objectives and eigenvalues; the acceptance
# suite's FLOAT_PIN_REL gives the measurements behind it.
FLOAT_REL_TOL = 1e-12


def report_slice(report) -> dict:
    return {
        "baseline_accuracy": report.baseline_accuracy,
        "final_accuracy": report.final_accuracy,
        "fixed_point_iteration": report.fixed_point_iteration,
        "predicted_labels": [int(v) for v in report.predicted_labels],
        "iterations": [
            {
                "iteration": r.iteration,
                "churn": r.churn,
                "objective": r.objective,
                "accuracy": r.accuracy,
                "eigenvalues": list(r.eigenvalues),
            }
            for r in report.iterations
        ],
    }


def build_fixture() -> dict:
    ds = generate_synthetic(RECIPE)
    fixture = {
        "recipe": RECIPE.to_dict(),
        "config": CONFIG.to_dict(),
        "meda_config": MEDA_CONFIG.to_dict(),
        "linear_config": LINEAR_CONFIG.to_dict(),
        "feature_sha256": {
            "source": hashlib.sha256(ds.pair.source.features.tobytes()).hexdigest(),
            "target": hashlib.sha256(ds.pair.target.features.tobytes()).hexdigest(),
        },
        "models": {},
        "meda": {},
        "linear_kernel": {},
    }
    for name in PRIMAL_MODELS:
        report = run_adaptation(ds.pair, CONFIG, ModelKind.parse(name), ds.target_truth)
        fixture["models"][name] = report_slice(report)
        print(
            f"{name:12s} acc={report.final_accuracy:.3f} "
            f"fp={report.fixed_point_iteration} "
            f"baseline={report.baseline_accuracy:.3f}"
        )
    for name in MEDA_MODELS:
        report = run_adaptation(ds.pair, MEDA_CONFIG, ModelKind.parse(name), ds.target_truth)
        fixture["meda"][name] = report_slice(report)
        print(
            f"{name:12s} acc={report.final_accuracy:.3f} fp={report.fixed_point_iteration}"
        )
    report = run_adaptation(ds.pair, LINEAR_CONFIG, ModelKind.parse("JDA"), ds.target_truth)
    fixture["linear_kernel"]["JDA"] = report_slice(report)
    print(f"{'JDA(linear)':12s} acc={report.final_accuracy:.3f}")
    return fixture


def _rel(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def check(fixture: dict, pinned: dict) -> tuple[int, int]:
    """Print drift per section; return (discrete mismatches, float mismatches).

    A discrete mismatch is a differing label, churn, fixed point, accuracy,
    count, config, recipe or feature digest; a float mismatch is an
    objective or eigenvalue list off by more than FLOAT_REL_TOL relative.
    """
    exact_keys = ("baseline_accuracy", "final_accuracy", "fixed_point_iteration",
                  "predicted_labels")
    discrete = floats = 0
    for key in ("config", "meda_config", "linear_config", "recipe", "feature_sha256"):
        written = json.loads(json.dumps(fixture[key]))  # tuples as the file holds them
        held = pinned.get(key, {})
        differ = sorted(k for k in written.keys() | held.keys() if written.get(k) != held.get(k))
        if differ:
            print(f"MISMATCH {key}: keys {', '.join(differ)} differ from what the script writes")
            discrete += 1
    for section in ("models", "meda", "linear_kernel"):
        differ = total = 0
        obj_drift = eig_drift = 0.0
        for name, pin in pinned[section].items():
            got = fixture[section][name]
            bad = [k for k in exact_keys if got[k] != pin[k]]
            if len(got["iterations"]) != len(pin["iterations"]):
                bad.append("iteration count")
            drifted = []
            for rec, ref in zip(got["iterations"], pin["iterations"]):
                total += 1
                differ += rec != ref
                at = f"iteration {ref['iteration']}"
                bad += [f"{at} {k}" for k in ("churn", "accuracy") if rec[k] != ref[k]]
                if len(rec["eigenvalues"]) != len(ref["eigenvalues"]):
                    bad.append(f"{at} eigenvalue count")
                drifts = {
                    "objective": _rel(rec["objective"], ref["objective"]),
                    "eigenvalues": max(
                        (_rel(a, b) for a, b in zip(rec["eigenvalues"], ref["eigenvalues"])),
                        default=0.0,
                    ),
                }
                drifted += [f"{at} {k} drift {v:.3g}" for k, v in drifts.items()
                            if v > FLOAT_REL_TOL]
                obj_drift = max(obj_drift, drifts["objective"])
                eig_drift = max(eig_drift, drifts["eigenvalues"])
            for item in bad + drifted:
                print(f"MISMATCH {section}/{name}: {item}")
            discrete += len(bad)
            floats += len(drifted)
        print(f"{section:14s} {differ}/{total} iteration records differ; max relative drift "
              f"objective {obj_drift:.3g}, eigenvalues {eig_drift:.3g}")
    return discrete, floats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the fixture instead of writing it")
    args = parser.parse_args(argv)
    fixture = build_fixture()
    if args.check:
        discrete, floats = check(fixture, json.loads(FIXTURE_PATH.read_text()))
        print("labels, churns, fixed points, accuracies, configs and digests:",
              "match" if not discrete else f"{discrete} mismatches")
        print(f"objectives and eigenvalues within {FLOAT_REL_TOL:g} relative:",
              "match" if not floats else f"{floats} mismatches")
        return 1 if discrete or floats else 0
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
