"""Experiment driver: datasets in, per-model reports and summary tables out.

An experiment is described by a JSON spec, whose keys are the fields of
``ExperimentSpec`` and, under "dataset", of ``DatasetSpec``:

    {
      "models": ["JDA", "JDA+CG", "CDDA+DB"],
      "dataset": {"synthetic": {"class_count": 3, ...}}
                 or {"source": "s.csv", "target": "t.csv",
                     "target_labels": "truth.csv"},
      "output_dir": "out",
      "config": {"k": 2, "lam": 1.0, ...},
      "repeat": 1,
      "data_format": "csv",
      "dump_embeddings": false
    }

``datamodel.from_json`` reads it and ``datamodel.to_json`` writes it back
(experiment.json), every field in field order and every dataset key
present, null included. Each model is named once.

Outputs under output_dir:

    reports/<model>_rep<r>.json   full per-run reports, compact JSON
    runs.json                     one status row per (model, repeat)
    experiment.json               the resolved spec, for re-rendering
    summary.csv / summary.md      aggregated table (no wall times, so
                                  reruns of the same spec are byte-identical)
    timing.csv                    wall times, kept out of the summary
    embeddings/<model>_rep<r>.f64 final embeddings, on request

Repeats re-seed the synthetic recipe (seed, seed+1, ...) and report the
mean and spread. A model that throws marks its own cells as failed and
the rest of the run continues.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapt import ModelKind, run_adaptation
from .datamodel import (AdaptConfig, LabeledDomain, UnlabeledDomain, fit_int_fields, from_json,
                        make_pair, to_json)
from .errors import FormatError, ParameterError, UnsupportedModelError
from .io import FORMATS, atomic_write_text, load_features, save_features
from .operands import InputOperands
from .synthetic import SyntheticRecipe, generate_synthetic

SUMMARY_COLUMNS = (
    "model",
    "accuracy_mean",
    "accuracy_range",
    "delta_vs_base",
    "iterations_to_fixed_point",
    "status",
)


def _load_json(path: Path, what: str):
    """The JSON value stored in ``path``; ParameterError naming the file if missing or malformed."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ParameterError(f"{path}: no such {what}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(f"{path}: malformed JSON {what}") from exc


@dataclass(frozen=True)
class DatasetSpec:
    """Where an experiment's pair comes from: a synthetic recipe, or a
    source and a target file, with an optional truth file for the target."""

    synthetic: SyntheticRecipe | None = None
    source: str | None = None
    target: str | None = None
    target_labels: str | None = None

    def __post_init__(self):
        has_files = self.source is not None or self.target is not None
        if self.synthetic is None and not has_files:
            raise ParameterError("dataset missing: give synthetic recipe or file paths")
        if self.synthetic is not None and has_files:
            raise ParameterError("dataset over-specified: synthetic and file paths given")
        if has_files and (self.source is None or self.target is None):
            raise ParameterError("file dataset needs both source and target paths")


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated description of one experiment; its fields are the spec's JSON keys.

    Models are held by their canonical names (``ModelKind.name``), each once.
    """

    models: tuple[str, ...]
    dataset: DatasetSpec
    output_dir: str
    config: AdaptConfig = AdaptConfig()
    repeat: int = 1
    data_format: str | None = None
    dump_embeddings: bool = False

    def __post_init__(self):
        fit_int_fields(self)
        if not self.models:
            raise ParameterError("experiment needs at least one model")
        models = tuple(ModelKind.parse(name).name for name in self.models)
        for i, name in enumerate(models):
            if name in models[:i]:
                raise ParameterError(f"models name {name} twice: {list(self.models)}")
        object.__setattr__(self, "models", models)
        if self.repeat < 1:
            raise ParameterError(f"repeat must be a positive integer, got {self.repeat}")
        if self.data_format is not None and self.data_format not in FORMATS:
            raise ParameterError(f"data_format must be one of {FORMATS} or null, "
                                 f"got {self.data_format!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        return from_json(cls, d, "spec", prefix="")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentSpec":
        """The spec stored in ``path``; its errors name the file."""
        path = Path(path)
        data = _load_json(path, "spec file")
        try:
            return cls.from_dict(data)
        except (ParameterError, UnsupportedModelError) as exc:
            raise type(exc)(f"{path}: {exc}") from None

    def to_dict(self) -> dict:
        return to_json(self)


@dataclass
class ExperimentResult:
    rows: list[dict]
    runs: list[dict]
    output_dir: Path
    exit_code: int


def _mapped_truth(source: LabeledDomain, truth_domain: LabeledDomain) -> np.ndarray:
    """Map truth labels through the source's original-value mapping."""
    src_values = source.label_values or tuple(range(int(source.labels.max()) + 1))
    to_dense = {v: i for i, v in enumerate(src_values)}
    truth_values = truth_domain.label_values or tuple(
        range(int(truth_domain.labels.max()) + 1)
    )
    raw = [truth_values[d] for d in truth_domain.labels]
    missing = sorted({v for v in raw if v not in to_dense})
    if missing:
        raise FormatError(f"target label values {missing} never appear in the source")
    return np.asarray([to_dense[v] for v in raw], dtype=np.int64)


def _file_dataset(dataset: DatasetSpec, fmt: str | None):
    source = load_features(dataset.source, fmt)
    if not isinstance(source, LabeledDomain):
        raise FormatError(f"{dataset.source}: source file has no labels")
    target_loaded = load_features(dataset.target, fmt)
    truth = None
    if isinstance(target_loaded, LabeledDomain):
        truth = _mapped_truth(source, target_loaded)
        target = UnlabeledDomain(target_loaded.features, name=target_loaded.name)
    else:
        target = target_loaded
    if dataset.target_labels is not None:
        labels_domain = load_features(dataset.target_labels, fmt)
        if not isinstance(labels_domain, LabeledDomain):
            raise FormatError(f"{dataset.target_labels}: truth file has no labels")
        if labels_domain.n != target.n:
            raise FormatError(
                f"{dataset.target_labels}: {labels_domain.n} labels for {target.n} "
                "target samples"
            )
        truth = _mapped_truth(source, labels_domain)
    pair = make_pair(source, target)
    return pair, truth, source.label_values


def _repeats(spec: ExperimentSpec):
    """(pair, truth, label values, operands) of each repeat, in order.

    A synthetic recipe is re-seeded per repeat, seed + rep. The repeats of
    a file pair are byte-identical reruns, so its files are loaded and its
    operands built once, and every repeat shares them.
    """
    recipe = spec.dataset.synthetic
    if recipe is None:
        pair, truth, label_values = _file_dataset(spec.dataset, spec.data_format)
        operands = InputOperands(pair, spec.config)
        for _ in range(spec.repeat):
            yield pair, truth, label_values, operands
        return
    for rep in range(spec.repeat):
        ds = generate_synthetic(dataclasses.replace(recipe, seed=recipe.seed + rep))
        yield ds.pair, ds.target_truth, None, InputOperands(ds.pair, spec.config)


def _model_slug(name: str) -> str:
    return name.replace("+", "_")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _aggregate(spec: ExperimentSpec, runs: list[dict]) -> list[dict]:
    by_model: dict[str, list[dict]] = {name: [] for name in spec.models}
    for run in runs:
        by_model[run["model"]].append(run)
    rows = []
    means: dict[str, float | None] = {}
    for name in spec.models:
        cells = by_model[name]
        ok = [r for r in cells if r["status"] == "ok"]
        accs = [r["accuracy"] for r in ok if r["accuracy"] is not None]
        acc_mean = float(np.mean(accs)) if len(accs) == len(cells) and accs else None
        acc_range = (
            float(np.max(accs) - np.min(accs))
            if len(accs) == len(cells) and accs
            else None
        )
        iters = [
            r["fixed_point_iteration"]
            if r["fixed_point_iteration"] is not None
            else spec.config.max_iter
            for r in ok
        ]
        rows.append(
            {
                "model": name,
                "accuracy_mean": acc_mean,
                "accuracy_range": acc_range,
                "delta_vs_base": None,
                "iterations_to_fixed_point": float(np.mean(iters)) if iters else None,
                "status": "ok" if len(ok) == len(cells) and cells else "failed",
            }
        )
        means[name] = acc_mean if rows[-1]["status"] == "ok" else None
    for row in rows:
        kind = ModelKind.parse(row["model"])
        if kind.boundary == "none":
            continue
        base_mean = means.get(kind.base)
        if base_mean is not None and row["accuracy_mean"] is not None:
            row["delta_vs_base"] = row["accuracy_mean"] - base_mean
    return rows


def render_summary_csv(rows: list[dict]) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in SUMMARY_COLUMNS))
    return "\n".join(lines) + "\n"


def render_summary_md(rows: list[dict], title: str) -> str:
    out = [f"# {title}", ""]
    out.append("| " + " | ".join(SUMMARY_COLUMNS) + " |")
    out.append("|" + "|".join([" --- "] * len(SUMMARY_COLUMNS)) + "|")
    for row in rows:
        out.append("| " + " | ".join(_fmt(row[c]) or "-" for c in SUMMARY_COLUMNS) + " |")
    out.append("")
    return "\n".join(out)


def _summarize(spec: ExperimentSpec, runs: list[dict], out_dir: Path) -> ExperimentResult:
    """Aggregate the run rows, write summary.csv/summary.md, and set the exit code."""
    rows = _aggregate(spec, runs)
    atomic_write_text(out_dir / "summary.csv", render_summary_csv(rows))
    atomic_write_text(out_dir / "summary.md", render_summary_md(rows, "Adaptation summary"))
    exit_code = 0 if all(r["status"] == "ok" for r in runs) else 1
    return ExperimentResult(rows=rows, runs=runs, output_dir=out_dir, exit_code=exit_code)


def _write_outputs(spec: ExperimentSpec, runs: list[dict], out_dir: Path) -> None:
    atomic_write_text(
        out_dir / "runs.json",
        json.dumps([{k: v for k, v in r.items() if k != "wall_time"} for r in runs],
                   indent=2) + "\n",
    )
    timing_lines = ["model,repeat,wall_time_seconds"]
    for run in runs:
        if run["status"] == "ok":
            timing_lines.append(f"{run['model']},{run['repeat']},{_fmt(run['wall_time'])}")
    atomic_write_text(out_dir / "timing.csv", "\n".join(timing_lines) + "\n")
    atomic_write_text(out_dir / "experiment.json", json.dumps(spec.to_dict(), indent=2) + "\n")


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute every (model, repeat) cell and write all outputs.

    Returns the aggregated rows plus an exit code: 0 when every cell ran,
    1 when any cell failed. Spec-level problems raise instead. The cells
    of one repeat share one ``InputOperands``, so the kernel, bandwidth
    and input graphs are built at most once per repeat, and for a file
    pair at most once (``_repeats``). A cell's ``wall_time`` includes the
    operands it is the first to build, so for a file pair only repeat 0's
    times include them, and the later repeats time the adaptation alone.
    """
    out_dir = Path(spec.output_dir)
    (out_dir / "reports").mkdir(parents=True, exist_ok=True)
    runs: list[dict] = []
    for rep, (pair, truth, label_values, operands) in enumerate(_repeats(spec)):
        for name in spec.models:
            kind = ModelKind.parse(name)
            row = {
                "model": name,
                "repeat": rep,
                "status": "ok",
                "error": None,
                "accuracy": None,
                "fixed_point_iteration": None,
                "report": None,
                "wall_time": None,
            }
            try:
                report = run_adaptation(pair, spec.config, kind, truth, operands)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the point
                row["status"] = "failed"
                row["error"] = f"{type(exc).__name__}: {exc}"
                runs.append(row)
                continue
            report.label_values = label_values
            report_path = out_dir / "reports" / f"{_model_slug(name)}_rep{rep}.json"
            # Compact: with indent set, json encodes in Python rather than in C.
            atomic_write_text(report_path, json.dumps(report.to_dict()) + "\n")
            if spec.dump_embeddings and report.embedding is not None:
                save_features(
                    out_dir / "embeddings" / f"{_model_slug(name)}_rep{rep}.f64",
                    report.embedding,
                    fmt="raw",
                )
            row["accuracy"] = report.final_accuracy
            row["fixed_point_iteration"] = report.fixed_point_iteration
            row["report"] = str(report_path.relative_to(out_dir))
            row["wall_time"] = report.wall_time
            runs.append(row)
    result = _summarize(spec, runs, out_dir)
    _write_outputs(spec, runs, out_dir)
    return result


# The fields of a runs.json row that _aggregate reads, what each must hold and
# its check; a JSON true or false loads as a bool, whose type is not int.
_RUN_FIELDS = {
    "status": ('"ok" or "failed"', lambda v: v in ("ok", "failed")),
    "accuracy": ("null or a number", lambda v: v is None or type(v) in (int, float)),
    "fixed_point_iteration": ("null or an integer", lambda v: v is None or type(v) is int),
}


def rerender_summary(output_dir: str | Path) -> ExperimentResult:
    """Rebuild summary.csv/summary.md from the stored run rows."""
    out_dir = Path(output_dir)
    spec_path = out_dir / "experiment.json"
    runs_path = out_dir / "runs.json"
    if not spec_path.exists() or not runs_path.exists():
        raise ParameterError(f"{out_dir}: not an experiment directory")
    spec = ExperimentSpec.from_json_file(spec_path)
    runs = _load_json(runs_path, "run list")
    if not isinstance(runs, list) or not all(isinstance(run, dict) for run in runs):
        raise ParameterError(f"{runs_path}: not a list of run objects")
    for run in runs:
        if run.get("model") not in spec.models:
            raise ParameterError(f"{runs_path}: run of model {run.get('model')!r}, "
                                 f"which experiment.json does not list")
        for key, (want, fits) in _RUN_FIELDS.items():
            if key not in run or not fits(run[key]):
                got = repr(run[key]) if key in run else "nothing"
                raise ParameterError(f"{runs_path}: {key} of a {run['model']} run "
                                     f"must be {want}, got {got}")
        run.setdefault("wall_time", None)
    return _summarize(spec, runs, out_dir)


def write_synthetic_files(recipe: SyntheticRecipe, out_dir: str | Path,
                          fmt: str = "csv") -> dict[str, Path]:
    """Materialize a synthetic pair as feature files.

    Writes source (with labels), target (features only), and a truth file
    carrying the target features with their held-back labels.
    """
    if fmt not in FORMATS:
        raise ParameterError(f"format must be one of {FORMATS}, got {fmt!r}")
    ds = generate_synthetic(recipe)
    out = Path(out_dir)
    suffix = "csv" if fmt == "csv" else "f64"
    paths = {
        "source": out / f"source.{suffix}",
        "target": out / f"target.{suffix}",
        "target_labels": out / f"target_labels.{suffix}",
    }
    save_features(paths["source"], ds.pair.source.features, ds.pair.source.labels, fmt)
    save_features(paths["target"], ds.pair.target.features, None, fmt)
    save_features(paths["target_labels"], ds.pair.target.features, ds.target_truth, fmt)
    return paths
