"""Tests for the benchmark's tracing wrappers and cell check.

    python3 -m pytest perfbench -q

Each workload is run at its small warm-up size, which takes the same code
paths as the measured size.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import spans
import worker
from workloads import LAYERS, WORKLOADS

import dbmmd
import dbmmd.adapt
import dbmmd.mmd


def bindings() -> dict[tuple[str, str], object]:
    """Every dbmmd module attribute that holds a traced function or its wrapper."""
    mods = spans.dbmmd_modules()
    originals = set()
    for layer in LAYERS:
        mod_name, fn_name = layer.split(".")
        originals.add(id(getattr(getattr(dbmmd, mod_name), fn_name)))
    return {
        (mod.__name__, attr): value
        for mod in mods
        for attr, value in vars(mod).items()
        if id(value) in originals or hasattr(value, "__traced_layer__")
    }


def traced_small_pass(wl, tmp_path: Path) -> spans.Tracer:
    """One pass at warm-up size, set up untraced as the benchmark does."""
    specs = worker.build_specs(wl, 7, wl.warmup_per_class, 1, tmp_path)
    tracer = spans.Tracer()
    with tracer:
        worker.run_pass(specs)
    return tracer


def test_install_patches_every_binding_and_uninstall_restores():
    before = bindings()
    # Callers that import by name hold their own binding, e.g. adapt.build_all.
    assert ("dbmmd.adapt", "build_all") in before
    assert ("dbmmd.experiment", "run_adaptation") in before
    assert ("dbmmd.graphs", "pairwise_sq_dists") in before
    tracer = spans.Tracer()
    with tracer:
        during = bindings()
        assert set(during) == set(before)
        assert all(getattr(v, "__traced_layer__", None) for v in during.values())
    after = bindings()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(v, "__traced_layer__") for v in after.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_fire_exactly_on_the_layers_a_workload_reaches(name, tmp_path):
    wl = WORKLOADS[name]
    before = bindings()
    tracer = traced_small_pass(wl, tmp_path)
    summary = tracer.summarize()
    spans.check_reached(wl.reaches, summary, name)
    fired = {layer for layer in LAYERS if summary[f"{layer}.calls"]}
    assert fired == set(wl.reaches)
    assert tracer.out_bytes["mmd.build_all"] > 0
    assert tracer.order_max > 0
    after = bindings()
    assert all(after[key] is before[key] for key in before)


def test_layer_defined_elsewhere_fails_at_install(monkeypatch):
    def build_all(pair, mode="literal"):  # a stand-in living in another module
        raise AssertionError("not reached")

    monkeypatch.setattr(dbmmd.mmd, "build_all", build_all)
    before = bindings()
    with pytest.raises(spans.TraceError, match="mmd.build_all"):
        spans.Tracer().install()
    assert bindings() == before


def test_callee_no_longer_looked_up_by_its_name_fails_loudly(monkeypatch, tmp_path):
    original = dbmmd.mmd.build_all
    # As if adapt now held its own copy instead of importing mmd.build_all.
    monkeypatch.setattr(dbmmd.adapt, "build_all", lambda *a, **k: original(*a, **k))
    wl = WORKLOADS["kernel-mid"]
    tracer = traced_small_pass(wl, tmp_path)
    with pytest.raises(spans.TraceError, match="mmd.build_all"):
        spans.check_reached(wl.reaches, tracer.summarize(), wl.name)


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 3.0, 0],
        ["c", 2.0, 4.0, 0],  # overlaps b: covered once
        ["d", 8.0, 12.0, 0],  # clipped to the parent's end
    ]
    assert spans.self_times(spans_) == [5.0, 2.0, 2.0, 4.0]


def test_summary_counts_recursive_layer_once():
    tracer = spans.Tracer()
    layer = "adapt.run_adaptation"
    tracer.spans += [
        [layer, 0.0, 4.0, -1],
        [layer, 1.0, 2.0, 0],
        ["mmd.build_all", 5.0, 6.0, -1],
    ]
    summary = tracer.summarize()
    assert summary[f"{layer}.calls"] == 2
    assert summary[f"{layer}.s"] == 4.0
    assert summary[f"{layer}.self_s"] == 4.0
    assert tracer.summarize(since=2)["mmd.build_all.s"] == 1.0
    assert tracer.summarize(since=2)[f"{layer}.calls"] == 0


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == spans.per_layer_names()
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_check_cells_counts_raised_differing_and_missing_cells():
    good = {"model": "JDA", "repeat": 0, "status": "ok", "labels_sha256": "x",
            "fixed_point_iteration": 2, "rounds": 2, "accuracy": 0.5}
    other = dict(good, model="CDDA")
    expected = {("JDA", 0): good, ("CDDA", 0): other}
    assert run.check_cells([[good, other]], expected) == (2, 0)
    assert run.check_cells([[good, dict(other, rounds=3)]], expected) == (2, 1)
    assert run.check_cells([[good]], expected) == (2, 1)
    raised = {"model": "CDDA", "repeat": 0, "status": "failed", "error": "boom"}
    assert run.check_cells([[good, raised]], expected) == (2, 1)
    # Without stored values later passes are checked against the first.
    assert run.check_cells([[good], [dict(good, accuracy=0.6)]], None) == (2, 1)
