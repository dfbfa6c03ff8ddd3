"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
happen; without -s pytest shows them only for failures. The frozen numbers
live in tests/fixtures/golden.json (regenerated by scripts/make_golden.py).
"""
from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose

import dbmmd
from dbmmd import linalg
from dbmmd.adapt import ModelKind, assemble_db, run_adaptation
from dbmmd.classify import propagate_labels
from dbmmd.datamodel import AdaptConfig, DomainPair, LabeledDomain, UnlabeledDomain, make_pair
from dbmmd.experiment import DatasetSpec, ExperimentSpec, run_experiment
from dbmmd.io import load_features, save_features
from dbmmd.linalg import gen_eig_smallest
from dbmmd.mmd import build_all, group_sums
from dbmmd.operands import InputOperands
from dbmmd.synthetic import SyntheticRecipe, generate_synthetic

from dense_reference import (boundary_block, build_repulsive, cross_block, cross_term,
                             dense_build_affinity, dense_operator, edge_graph)

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden.json"

# Relative tolerance for pinned objectives and eigenvalues. Each comes out
# of a BLAS reduction or a LAPACK solve (MEDA's beta from
# scipy.linalg.solve), whose rounding depends on the CPU kernel OpenBLAS
# dispatches to. Every product and solve runs on scipy's OpenBLAS
# (``linalg.matmul``). Across the core types of one scipy-openblas 0.3.30
# build (OPENBLAS_CORETYPE SkylakeX, Haswell, Nehalem, Prescott) the golden
# runs stay within 9.8e-14 relative of the fixture (primal 1.3e-15
# objective, 3.5e-15 eigenvalues; MEDA, solved in the numerical range of
# K, 9.8e-14; linear kernel 1e-15). 1e-12 sits an order above that and
# four below the 1e-8 core-type drift of a kernel pencil solved outside the
# numerical range of K. Every discrete field (labels, churns, fixed
# points, accuracies, digests) stays exact.
FLOAT_PIN_REL = 1e-12


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def golden_rerun(golden):
    """Re-execute every pinned run once; criteria 4, 5, 6 all read from it."""
    recipe = SyntheticRecipe.from_dict(golden["recipe"])
    config = AdaptConfig.from_dict(golden["config"])
    meda_config = AdaptConfig.from_dict(golden["meda_config"])
    linear_config = AdaptConfig.from_dict(golden["linear_config"])
    ds = generate_synthetic(recipe)
    t0 = time.perf_counter()
    reports = {}
    for name in golden["models"]:
        reports[name] = run_adaptation(ds.pair, config, ModelKind.parse(name), ds.target_truth)
    for name in golden["meda"]:
        reports[name] = run_adaptation(
            ds.pair, meda_config, ModelKind.parse(name), ds.target_truth
        )
    linear = {
        name: run_adaptation(ds.pair, linear_config, ModelKind.parse(name), ds.target_truth)
        for name in golden["linear_kernel"]
    }
    elapsed = time.perf_counter() - t0
    return ds, reports, linear, elapsed


def assert_report_matches_pin(report, pinned):
    assert report.baseline_accuracy == pinned["baseline_accuracy"]
    assert report.final_accuracy == pinned["final_accuracy"]
    assert report.fixed_point_iteration == pinned["fixed_point_iteration"]
    assert [int(v) for v in report.predicted_labels] == pinned["predicted_labels"]
    assert len(report.iterations) == len(pinned["iterations"])
    for rec, pin in zip(report.iterations, pinned["iterations"]):
        assert rec.iteration == pin["iteration"]
        assert rec.churn == pin["churn"]
        assert rec.objective == pytest.approx(pin["objective"], rel=FLOAT_PIN_REL, abs=0)
        assert rec.accuracy == pin["accuracy"]
        assert list(rec.eigenvalues) == pytest.approx(pin["eigenvalues"], rel=FLOAT_PIN_REL, abs=0)


def test_criterion_1_mmd_trace_composition():
    """Trace identities of all MMD matrices on 20 seeded instances, < 1 s."""
    with criterion(1, "MMD trace oracles"):
        t0 = time.perf_counter()
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            c = int(rng.integers(2, 5))
            n_s = int(rng.integers(c, 31))
            n_t = int(rng.integers(c, 61 - n_s)) if 61 - n_s > c else c
            ys = np.concatenate([np.arange(c), rng.integers(0, c, n_s - c)])
            yt = np.concatenate([np.arange(c), rng.integers(0, c, n_t - c)])
            src = LabeledDomain(rng.normal(size=(3, n_s)), ys, name="source")
            tgt = UnlabeledDomain(rng.normal(size=(3, n_t)), name="target")
            pair = make_pair(src, tgt).with_pseudo_labels(yt)
            z = rng.normal(size=(3, pair.n_total))
            zs, zt = z[:, :n_s], z[:, n_s:]

            def msq(a, b):
                d = a.mean(axis=1) - b.mean(axis=1)
                return float(d @ d)

            mats = build_all(pair)
            zp = group_sums(z, mats.groups, 2 * c)

            def trace(table):
                return float(np.trace(zp @ table @ zp.T))

            got = trace(mats.marginal)
            assert abs(got - msq(zs, zt)) < 1e-10

            got = trace(mats.conditional)
            want = sum(
                msq(zs[:, ys == k], zt[:, yt == k])
                for k in range(c)
                if (ys == k).any() and (yt == k).any()
            )
            assert abs(got - want) < 1e-10

            # The separation table is R + R, R the printed repulsive rule over
            # the ordered pairs (source k, target r != k), both groups non-empty.
            ns_k, nt_r = np.bincount(ys, minlength=c), np.bincount(yt, minlength=c)
            pairs = [(k, r) for k in range(c) for r in range(c)
                     if k != r and ns_k[k] and nt_r[r]]
            rep = np.zeros((2 * c, 2 * c))
            for k, r in pairs:
                rep[k, k] = 1.0 / (ns_k[k] * ns_k[k])
                rep[c + r, c + r] = 1.0 / (nt_r[r] * nt_r[r])
                rep[k, c + r] = rep[c + r, k] = -1.0 / (ns_k[k] * nt_r[r])
            assert mats.separation.tobytes() == (rep + rep).tobytes()
            mu_s = {k: zs[:, ys == k].mean(axis=1) for k, _ in pairs}
            mu_t = {r: zt[:, yt == r].mean(axis=1) for _, r in pairs}
            want = (sum(m @ m for m in mu_s.values()) + sum(m @ m for m in mu_t.values())
                    - 2.0 * sum(mu_s[k] @ mu_t[r] for k, r in pairs))
            assert abs(trace(rep) - want) < 1e-10

            # The accumulated reading of each direction, sum_{c != r} e e^T,
            # is the mean-difference sum; it lives in the dense oracle.
            for direction in ("source_to_target", "target_to_source"):
                m = build_repulsive(pair, direction, "rank_one_sum")
                got = float(np.trace(z @ m @ z.T))
                want = 0.0
                for ca in range(c):
                    for cb in range(c):
                        if ca == cb:
                            continue
                        if direction == "source_to_target":
                            a_pts, b_pts = zs[:, ys == ca], zt[:, yt == cb]
                        else:
                            a_pts, b_pts = zt[:, yt == ca], zs[:, ys == cb]
                        if a_pts.shape[1] and b_pts.shape[1]:
                            want += msq(a_pts, b_pts)
                assert abs(got - want) < 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_eigensolver():
    """Residuals on 50 seeded pencils plus a char-poly cross-check."""
    with criterion(2, "generalized eigensolver"):
        for seed in range(50):
            rng = np.random.default_rng(2000 + seed)
            n = int(rng.integers(2, 31))
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T)
            cmat = rng.normal(size=(n, n))
            b = cmat @ cmat.T + float(n) * np.eye(n)
            k = int(rng.integers(1, n + 1))
            ridge = 1e-9 * np.trace(b) / n
            w, v = gen_eig_smallest(a, b, k)
            b_reg = b + ridge * np.eye(n)
            for value, vector in zip(w, v.T):
                res = np.linalg.norm(a @ vector - value * (b_reg @ vector))
                assert res <= 1e-8
        # independent 4x4 oracle: eigenvalues are the roots of det(A - t B),
        # recovered by interpolating the degree-4 determinant polynomial
        rng = np.random.default_rng(4242)
        a = rng.normal(size=(4, 4))
        a = 0.5 * (a + a.T)
        cmat = rng.normal(size=(4, 4))
        b = cmat @ cmat.T + 4.0 * np.eye(4)
        b_reg = b + 1e-9 * np.trace(b) / 4 * np.eye(4)  # the solver's ridge
        ts = np.linspace(-3.0, 3.0, 9)
        dets = [np.linalg.det(a - t * b_reg) for t in ts]
        roots = np.sort(np.roots(np.polyfit(ts, dets, 4)).real)
        got, _ = gen_eig_smallest(a, b, 4)
        assert_allclose(got, roots, atol=1e-6)


def test_criterion_3_unit_affinity_reductions(golden):
    """W == 1 collapses every reweighted model onto its plain counterpart."""
    with criterion(3, "unit-affinity reductions"):
        recipe = SyntheticRecipe.from_dict(golden["recipe"])
        ds = generate_synthetic(recipe)
        cfg = AdaptConfig.from_dict(golden["config"]).replace(sigma=float("inf"))
        pair = ds.pair.with_pseudo_labels(ds.target_truth)
        mats = build_all(pair)
        cross = cross_term(pair, cross_block(pair, dense_build_affinity(pair.packed_features(),
                                                                          float("inf"))))
        plain = assemble_db(mats, None, ModelKind("CDDA"))
        reweighted = assemble_db(mats, cross, ModelKind("CDDA", "DB"))
        assert np.array_equal(plain.table, reweighted.table)
        assert not np.any(boundary_block(reweighted))
        assert np.array_equal(dense_operator(plain), dense_operator(reweighted))

        a = run_adaptation(ds.pair, cfg, ModelKind("CDDA"), ds.target_truth)
        b = run_adaptation(ds.pair, cfg, ModelKind("CDDA", "DB"), ds.target_truth)
        assert len(a.iterations) == len(b.iterations)
        for ra, rb in zip(a.iterations, b.iterations):
            assert np.array_equal(ra.pseudo_labels, rb.pseudo_labels)
            assert ra.objective == rb.objective
            assert ra.eigenvalues == rb.eigenvalues
        assert np.array_equal(a.projection, b.projection)

        # single-class degenerate pair: the conditional term IS the marginal
        rng = np.random.default_rng(33)
        src = LabeledDomain(rng.normal(size=(2, 6)), np.zeros(6, dtype=int), name="source")
        tgt = UnlabeledDomain(
            rng.normal(size=(2, 5)), pseudo_labels=np.zeros(5, dtype=int), name="target"
        )
        degenerate = build_all(DomainPair(src, tgt, class_count=1))
        assert np.array_equal(degenerate.conditional, degenerate.marginal)


def test_criterion_4_golden_pair(golden, golden_rerun):
    """Ordering claims plus a match against the frozen fixture.

    Digests, labels, churns, fixed points and accuracies match exactly;
    objectives and eigenvalues to FLOAT_PIN_REL relative.
    """
    with criterion(4, "golden-pair results"):
        ds, reports, linear, elapsed = golden_rerun
        assert elapsed < 30.0
        source_sha = golden["feature_sha256"]["source"]
        target_sha = golden["feature_sha256"]["target"]
        import hashlib

        assert hashlib.sha256(ds.pair.source.features.tobytes()).hexdigest() == source_sha
        assert hashlib.sha256(ds.pair.target.features.tobytes()).hexdigest() == target_sha

        baseline = reports["JDA"].baseline_accuracy
        assert reports["JDA"].final_accuracy > baseline
        assert reports["CDDA+DB"].final_accuracy >= reports["CDDA"].final_accuracy
        assert reports["DGA-DA+DB"].final_accuracy >= reports["DGA-DA"].final_accuracy

        for name, pinned in golden["models"].items():
            assert_report_matches_pin(reports[name], pinned)
        for name, pinned in golden["meda"].items():
            assert_report_matches_pin(reports[name], pinned)
        for name, pinned in golden["linear_kernel"].items():
            assert_report_matches_pin(linear[name], pinned)


def test_golden_labels_and_trajectories(golden, golden_rerun):
    """Every golden run's labels, churns, fixed point and accuracies, exactly.

    Criterion 4 also pins objectives and eigenvalues to FLOAT_PIN_REL and
    stops at the first float mismatch; this check covers the discrete
    outcome of all 11 runs whatever the float pins do.
    """
    _, reports, linear, _ = golden_rerun
    runs = [
        (golden[section][name], (linear if section == "linear_kernel" else reports)[name], name)
        for section in ("models", "meda", "linear_kernel")
        for name in golden[section]
    ]
    assert len(runs) == 11
    for pinned, report, name in runs:
        assert [int(v) for v in report.predicted_labels] == pinned["predicted_labels"], name
        assert report.fixed_point_iteration == pinned["fixed_point_iteration"], name
        assert report.baseline_accuracy == pinned["baseline_accuracy"], name
        assert report.final_accuracy == pinned["final_accuracy"], name
        assert [r.churn for r in report.iterations] == [
            p["churn"] for p in pinned["iterations"]
        ], name
        assert [r.accuracy for r in report.iterations] == [
            p["accuracy"] for p in pinned["iterations"]
        ], name


def _openblas_dynamic_arch() -> bool:
    """scipy's BLAS is an x86-64 OpenBLAS that picks its kernels at load time.

    Every product and solve of a run goes through scipy's BLAS and LAPACK,
    so that is the build OPENBLAS_CORETYPE has to switch.
    """
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    blas = scipy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


_KERNEL_RUNS_SCRIPT = """
import json, sys
from dbmmd.adapt import ModelKind, run_adaptation
from dbmmd.datamodel import AdaptConfig
from dbmmd.synthetic import SyntheticRecipe, generate_synthetic
golden = json.loads(open(sys.argv[1]).read())
ds = generate_synthetic(SyntheticRecipe.from_dict(golden["recipe"]))
runs = [("linear_config", "JDA")] + [("meda_config", name) for name in golden["meda"]]
out = {}
for section, name in runs:
    cfg = AdaptConfig.from_dict(golden[section])
    report = run_adaptation(ds.pair, cfg, ModelKind.parse(name), ds.target_truth)
    out[section + "/" + name] = [[r.objective, list(r.eigenvalues), r.pseudo_labels.tolist()]
                                 for r in report.iterations]
print(json.dumps(out))
"""


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="needs scipy on an x86-64 OpenBLAS built with DYNAMIC_ARCH")
def test_linear_kernel_pins_hold_across_blas_kernels(golden, golden_rerun):
    """The golden kernel-mode runs under OPENBLAS_CORETYPE=Prescott.

    Prescott's SSE3 kernels round differently from the FMA kernels a modern
    CPU dispatches to. The linear-kernel JDA pencil and the MEDA and MEDA+CG
    systems are all solved in the numerical range of K, whose rank r comes
    from a cut at n * eps * max eigenvalue. Each run must still give the
    in-process labels exactly and its objectives and eigenvalues to
    FLOAT_PIN_REL; an n x n pencil held together by its ridge drifts by
    1e-9 to 1e-8 between core types.
    """
    _, reports, linear, _ = golden_rerun
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    src = str(Path(dbmmd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _KERNEL_RUNS_SCRIPT, str(FIXTURE_PATH)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    other = json.loads(out.stdout)
    here = {"linear_config/JDA": linear["JDA"]}
    here.update({f"meda_config/{name}": reports[name] for name in golden["meda"]})
    assert sorted(other) == sorted(here)
    for key, report in here.items():
        assert len(other[key]) == len(report.iterations), key
        for rec, (objective, eigenvalues, labels) in zip(report.iterations, other[key]):
            assert labels == rec.pseudo_labels.tolist(), key
            assert objective == pytest.approx(rec.objective, rel=FLOAT_PIN_REL, abs=0), key
            assert eigenvalues == pytest.approx(list(rec.eigenvalues), rel=FLOAT_PIN_REL,
                                                abs=0), key


# The golden recipe at 60 samples a class: n = 360 >= 2 l, so K's range comes
# from kernel_range's randomized sketch instead of a full eigh.
SKETCHED_PER_CLASS = 60
SKETCHED_MODELS = ("JDA+CG", "MEDA+CG")


def sketched_runs(fixture_path) -> dict:
    """r and every round's labels of rbf JDA+CG and MEDA+CG on the wider recipe."""
    golden = json.loads(Path(fixture_path).read_text())
    recipe = dict(golden["recipe"], samples_per_class=SKETCHED_PER_CLASS)
    ds = generate_synthetic(SyntheticRecipe.from_dict(recipe))
    cfg = AdaptConfig.from_dict(golden["meda_config"])
    basis, _ = InputOperands(ds.pair, cfg).kernel_range()
    out = {"n": basis.shape[0], "r": basis.shape[1]}
    for name in SKETCHED_MODELS:
        report = run_adaptation(ds.pair, cfg, ModelKind.parse(name), ds.target_truth)
        out[name] = [r.pseudo_labels.tolist() for r in report.iterations]
    return out


_SKETCHED_RUNS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_acceptance import sketched_runs
print(json.dumps(sketched_runs(sys.argv[2])))
"""


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="needs scipy on an x86-64 OpenBLAS built with DYNAMIC_ARCH")
def test_sketched_range_holds_across_blas_kernels():
    """The sketched kernel range gives the same r and labels under Prescott.

    The golden runs (n = 300) factor K exactly; these runs reach the
    sketch. No eigenvalue or objective is pinned: under Prescott the rbf
    JDA+CG pencil's eigenvalues here move by up to 3e-6 relative and its
    objectives by 1.5e-11, above FLOAT_PIN_REL.
    """
    here = sketched_runs(FIXTURE_PATH)
    assert here["n"] >= 2 * linalg._SKETCH_COLS
    assert here["r"] < linalg._SKETCH_COLS - linalg._SKETCH_OVERSAMPLE
    assert sketched_runs_under(OPENBLAS_CORETYPE="Prescott") == here


def test_sketched_range_holds_across_blas_threads():
    """The sketched kernel range gives the same r and labels at 1 and 2 BLAS threads.

    The sketch's QR and products split their sums by thread, so Q's bits
    differ between the two counts; r and every round's labels must not.
    """
    here = sketched_runs(FIXTURE_PATH)
    for threads in ("1", "2"):
        assert sketched_runs_under(OPENBLAS_NUM_THREADS=threads) == here, threads


def sketched_runs_under(**env_vars: str) -> dict:
    """``sketched_runs`` in a fresh interpreter with these environment variables set.

    OpenBLAS reads its core type and thread count at load time.
    """
    env = dict(os.environ, **env_vars)
    src = str(Path(dbmmd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _SKETCHED_RUNS_SCRIPT, str(Path(__file__).parent),
         str(FIXTURE_PATH)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def test_criterion_5_fixed_points(golden, golden_rerun):
    """Every golden run reaches churn 0 within the iteration cap."""
    with criterion(5, "pseudo-label fixed points"):
        _, reports, linear, _ = golden_rerun
        cap = golden["config"]["max_iter"]
        everything = list(reports.items()) + list(linear.items())
        for name, report in everything:
            assert report.fixed_point_iteration is not None, name
            assert report.fixed_point_iteration <= cap, name
            assert report.iterations[-1].churn == 0, name
        for name, pinned in golden["models"].items():
            assert reports[name].fixed_point_iteration == pinned["fixed_point_iteration"]
        for name, pinned in golden["meda"].items():
            assert reports[name].fixed_point_iteration == pinned["fixed_point_iteration"]


def test_criterion_6_linear_kernel_vs_primal(golden, golden_rerun):
    """Linear kernel and primal mode land within two points of each other."""
    with criterion(6, "linear kernel vs primal"):
        _, reports, linear, _ = golden_rerun
        primal_acc = reports["JDA"].final_accuracy
        linear_acc = linear["JDA"].final_accuracy
        assert abs(primal_acc - linear_acc) <= 0.02
        assert linear_acc == golden["linear_kernel"]["JDA"]["final_accuracy"]


def test_criterion_7_label_propagation():
    """Hand-solved path-graph fixture and the large-mu clamping limit."""
    with criterion(7, "label propagation"):
        lap = np.array(
            [
                [1.0, -1.0, 0.0],
                [-1.0, 2.0, -1.0],
                [0.0, -1.0, 1.0],
            ]
        )
        y0 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        f = propagate_labels(edge_graph(lap), y0, mu=1.0)
        expect = np.array(
            [
                [5.0 / 6.0, 1.0 / 6.0],
                [0.5, 0.5],
                [1.0 / 6.0, 5.0 / 6.0],
            ]
        )
        assert np.max(np.abs(f - expect)) < 1e-10
        # clamping limit: with every row labeled, mu = 1e9 returns Y0 no
        # matter which Laplacian sits underneath
        rng = np.random.default_rng(77)
        for trial in range(5):
            w = rng.uniform(0.0, 1.0, size=(6, 6))
            w = 0.5 * (w + w.T)
            np.fill_diagonal(w, 0.0)
            any_lap = np.diag(w.sum(axis=1)) - w
            labels = rng.integers(0, 3, 6)
            y_full = np.zeros((6, 3))
            y_full[np.arange(6), labels] = 1.0
            f_clamped = propagate_labels(edge_graph(any_lap), y_full, mu=1e9)
            assert np.max(np.abs(f_clamped - y_full)) < 1e-6


def test_criterion_8_harness_reproducibility(golden, tmp_path):
    """Byte-identical summaries across reruns and bitwise feature files."""
    with criterion(8, "harness reproducibility"):
        recipe = SyntheticRecipe.from_dict(golden["recipe"])
        config = AdaptConfig.from_dict(golden["config"]).replace(max_iter=3)
        small = SyntheticRecipe.from_dict({**recipe.to_dict(), "samples_per_class": 10})

        def spec(out):
            return ExperimentSpec(
                models=("JDA", "CDDA+DB"),
                config=config,
                output_dir=str(out),
                dataset=DatasetSpec(synthetic=small),
            )

        a = run_experiment(spec(tmp_path / "a"))
        b = run_experiment(spec(tmp_path / "b"))
        assert a.exit_code == 0 and b.exit_code == 0
        assert (a.output_dir / "summary.csv").read_bytes() == (
            b.output_dir / "summary.csv"
        ).read_bytes()
        assert (a.output_dir / "runs.json").read_bytes() == (
            b.output_dir / "runs.json"
        ).read_bytes()

        rng = np.random.default_rng(88)
        x = rng.normal(size=(4, 9))
        labels = rng.integers(0, 3, 9)
        for fmt, suffix in (("csv", "csv"), ("raw", "f64")):
            path = tmp_path / f"feat.{suffix}"
            save_features(path, x, labels, fmt)
            dom = load_features(path, fmt)
            assert np.array_equal(dom.features, x)
            assert np.array_equal(dom.labels, labels)
