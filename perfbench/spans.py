"""Spans around the public functions of dbmmd, recorded from outside.

``Tracer.install()`` replaces every binding of each function in LAYERS,
in every loaded ``dbmmd`` module, with a wrapper that records a span
(name, start, end, parent). Callers such as ``dbmmd.adapt`` import their
callees by name, so patching only the defining module would miss them;
patching every module attribute that holds the same function object
catches each lookup. ``uninstall()`` puts the original objects back.

A layer that no longer exists where LAYERS says it does raises
TraceError at install time, and ``check_reached`` raises when a layer a
workload is known to reach recorded no call. Either way a refactor that
renames or moves a callee makes the benchmark fail instead of reporting
zero for it.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil
import statistics
import sys
import time

import numpy as np

from workloads import LAYERS

# Layers whose returned arrays are sized: the largest single return value,
# computed from nbytes rather than measured as resident memory.
OUT_MB_LAYERS = (
    "mmd.build_all",
    "graphs.build_affinity",
    "graphs.build_graphs",
    "adapt.assemble_db",
)
ORDER_LAYER = "linalg.gen_eig_smallest"


class TraceError(RuntimeError):
    """A traced layer is missing, moved, or never reached."""


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in order."""
    out = []
    for layer in LAYERS:
        out += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        ]
    out += [(f"{layer}.out_mb", "MB", "lower") for layer in OUT_MB_LAYERS]
    out += [(f"{ORDER_LAYER}.order_max", "count", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


def returned_nbytes(value) -> int:
    """Sum of nbytes over the arrays reachable from a returned value.

    Walks dataclass fields, mappings and sequences; properties that would
    build new arrays on access are not evaluated.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(returned_nbytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return sum(returned_nbytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(returned_nbytes(v) for v in value)
    return 0


def dbmmd_modules() -> list:
    """Import and return every dbmmd submodule (not the CLI entry point)."""
    pkg = importlib.import_module("dbmmd")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"dbmmd.{info.name}"))
    return mods


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans for LAYERS while installed; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.out_bytes = {layer: 0 for layer in OUT_MB_LAYERS}
        self.order_max = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == ORDER_LAYER:
                aop = args[0] if args else kwargs["aop"]
                self.order_max = max(self.order_max, int(np.shape(aop)[0]))
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if layer in self.out_bytes:
                self.out_bytes[layer] = max(self.out_bytes[layer], returned_nbytes(out))
            return out

        traced.__traced_layer__ = layer
        return traced

    def install(self) -> None:
        if self._patched:
            raise TraceError("tracer already installed")
        modules = dbmmd_modules()
        try:
            for layer in LAYERS:
                mod_name, fn_name = layer.split(".")
                home = sys.modules[f"dbmmd.{mod_name}"]
                fn = getattr(home, fn_name, None)
                if not callable(fn) or getattr(fn, "__module__", None) != home.__name__:
                    raise TraceError(f"dbmmd.{layer} is not defined in dbmmd.{mod_name}")
                wrapper = self._wrap(layer, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def mark(self) -> int:
        """Index of the next span; pass to ``summarize`` to cover one pass."""
        return len(self.spans)

    def summarize(self, since: int = 0) -> dict[str, float]:
        """Calls, inclusive and self time per layer over spans[since:].

        Inclusive time counts only the outermost span of a layer, so a
        layer that calls itself is not counted twice.
        """
        spans = self.spans[since:]
        rel = [[n, s, e, p - since if p >= since else -1] for n, s, e, p in spans]
        selfs = self_times(rel)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for i, (name, start, end, parent) in enumerate(rel):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += selfs[i]
            p = parent
            while p >= 0 and rel[p][0] != name:
                p = rel[p][3]
            if p < 0:
                out[f"{name}.s"] += end - start
        return out


def check_reached(layers, summary: dict[str, float], workload: str) -> None:
    """Raise TraceError naming every layer in ``layers`` with no recorded call."""
    missing = sorted(layer for layer in layers if not summary[f"{layer}.calls"])
    if missing:
        raise TraceError(
            f"{workload}: no call recorded for {missing}; the callee was renamed, "
            "moved, or is no longer looked up through the patched name"
        )


def median_summary(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over per-pass summaries."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
