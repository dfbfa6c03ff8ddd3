"""Feature file formats and atomic writes.

Two formats, both storing one sample per row (the in-memory convention is
columns-as-samples, so loaders transpose):

  csv   header row f0,f1,...  plus an optional trailing "label" column.
        Floats are written with repr, which round-trips doubles exactly.
  raw   little-endian float64, row-major, alongside a JSON sidecar
        {"rows": samples, "cols": dims, "labels": [...]?} at the same
        path with a .json suffix; rows, cols and every label are JSON
        integers.

Labels may be arbitrary integers on disk; loading remaps them onto dense
0..C-1 (sorted by original value) and keeps the original values on the
returned domain for reporting.

All writers go through a temp-file-then-rename so readers never observe a
half-written file.
"""
from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .datamodel import LabeledDomain, UnlabeledDomain, remap_labels
from .errors import FormatError

FORMATS = ("csv", "raw")

# Labels are held as int64; a larger integer on disk is a format error.
_LABEL_RANGE = np.iinfo(np.int64)


def _label_fits(label: int) -> bool:
    return _LABEL_RANGE.min <= label <= _LABEL_RANGE.max


def atomic_write_bytes(path: str | Path, blob: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """``atomic_write_bytes`` of the UTF-8 encoding of text, newlines untranslated."""
    atomic_write_bytes(path, text.encode())


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in FORMATS:
            raise FormatError(f"format must be one of {FORMATS}, got {fmt!r}")
        return fmt
    if path.suffix == ".csv":
        return "csv"
    if path.suffix == ".f64":
        return "raw"
    raise FormatError(f"cannot infer format from suffix {path.suffix!r}; pass fmt")


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json")


def save_features(path: str | Path, features, labels=None, fmt: str | None = None) -> None:
    """Write a (dim, m) feature matrix, optionally with one label per sample."""
    path = Path(path)
    fmt = _infer_format(path, fmt)
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise FormatError(f"features must be 2-D (dim, samples), got shape {x.shape}")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (x.shape[1],):
            raise FormatError("need exactly one label per sample")
    rows = x.T
    if fmt == "csv":
        lines = []
        header = [f"f{i}" for i in range(x.shape[0])]
        if labels is not None:
            header.append("label")
        lines.append(",".join(header))
        for i, row in enumerate(rows):
            cells = [repr(float(v)) for v in row]
            if labels is not None:
                cells.append(str(int(labels[i])))
            lines.append(",".join(cells))
        atomic_write_text(path, "\n".join(lines) + "\n")
        return
    blob = np.ascontiguousarray(rows, dtype="<f8").tobytes()
    sidecar = {"rows": int(x.shape[1]), "cols": int(x.shape[0])}
    if labels is not None:
        sidecar["labels"] = [int(v) for v in labels]
    atomic_write_bytes(path, blob)
    atomic_write_text(_sidecar_path(path), json.dumps(sidecar, indent=2) + "\n")


def _finish_domain(x_rows: np.ndarray, labels: np.ndarray | None, name: str):
    if not np.isfinite(x_rows).all():
        raise FormatError(f"{name}: non-finite feature value")
    features = x_rows.T
    if labels is None:
        return UnlabeledDomain(features, name=name)
    dense, values = remap_labels(labels)
    return LabeledDomain(features, dense, name=name, label_values=values)


def _load_csv(path: Path):
    """(x, y): the (rows, dims) features of a csv file and its int64 labels, or None.

    The rows are parsed in C (``_parse_csv``) where that gives what the
    line reader below gives; any other file, and any file with an error,
    goes to the line reader, which names the line at fault.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        label_col = None
        if "label" in header:
            label_col = header.index("label")
        n_cols = len(header)
        feat_cols = [i for i in range(n_cols) if i != label_col]
        if not feat_cols:
            raise FormatError(f"{path}: no feature columns")
        parsed = _parse_csv(fh, n_cols, label_col)
        if parsed is not None:
            return parsed
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        rows, labels = [], []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != n_cols:
                raise FormatError(
                    f"{path}:{lineno}: expected {n_cols} columns, got {len(cells)}"
                )
            try:
                rows.append([float(cells[i]) for i in feat_cols])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: malformed feature value") from exc
            if label_col is not None:
                try:
                    label = int(cells[label_col])
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: malformed label") from exc
                if not _label_fits(label):
                    raise FormatError(f"{path}:{lineno}: label outside the int64 range")
                labels.append(label)
    if not rows:
        raise FormatError(f"{path}: no samples")
    x = np.asarray(rows, dtype=float)
    y = np.asarray(labels, dtype=np.int64) if label_col is not None else None
    return x, y


def _parse_csv(fh, n_cols: int, label_col: int | None):
    """The rows after the header as ``_load_csv`` returns them, parsed by ``np.loadtxt``, or None.

    Features parse as ``float`` does (both round correctly), and labels as
    strict int64: no float form, no overflow. loadtxt rejects what it reads
    differently from the line reader (underscores, non-ASCII digits,
    quotes), and a row of the wrong width fails the labelled record or the
    shape check. Only a label in the last column is read here. None on any
    error or warning (a file with no rows warns), and for a label
    elsewhere.
    """
    if label_col not in (None, n_cols - 1):
        return None
    labeled = label_col is not None
    dtype = np.dtype([("x", float, (n_cols - 1,)), ("y", np.int64)]) if labeled else float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None,
                              ndmin=1 if labeled else 2)
        except (ValueError, OverflowError, Warning):
            return None
    if labeled:
        return np.ascontiguousarray(rows["x"]), np.ascontiguousarray(rows["y"])
    return (rows, None) if rows.shape[1] == n_cols else None


def _load_raw(path: Path):
    sidecar_path = _sidecar_path(path)
    if not sidecar_path.exists():
        raise FormatError(f"{path}: missing sidecar {sidecar_path.name}")
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{sidecar_path}: malformed JSON sidecar") from exc
    # A JSON integer loads as an int; true and false load as bools, whose type is not int.
    if not isinstance(sidecar, dict) or {type(sidecar.get(k)) for k in ("rows", "cols")} != {int}:
        raise FormatError(f"{sidecar_path}: sidecar needs integer rows and cols")
    rows, cols = sidecar["rows"], sidecar["cols"]
    if rows < 1 or cols < 1:
        raise FormatError(f"{sidecar_path}: rows and cols must be positive")
    blob = path.read_bytes()
    expected = rows * cols * 8
    if len(blob) != expected:
        raise FormatError(
            f"{path}: size {len(blob)} bytes does not match sidecar ({expected} bytes)"
        )
    x = np.frombuffer(blob, dtype="<f8").reshape(rows, cols).astype(float)
    y = None
    labels = sidecar.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(type(v) is int for v in labels):
            raise FormatError(f"{sidecar_path}: labels must be a list of integers")
        if len(labels) != rows:
            raise FormatError(f"{sidecar_path}: {len(labels)} labels for {rows} rows")
        if not all(map(_label_fits, labels)):
            raise FormatError(f"{sidecar_path}: label outside the int64 range")
        y = np.asarray(labels, dtype=np.int64)
    return x, y


def load_features(path: str | Path, fmt: str | None = None):
    """Load a feature file into a labeled or unlabeled domain.

    Returns LabeledDomain when a label column (csv) or labels list (raw
    sidecar) is present, UnlabeledDomain otherwise.
    """
    path = Path(path)
    fmt = _infer_format(path, fmt)
    if not path.exists():
        raise FormatError(f"{path}: no such file")
    if fmt == "csv":
        x, y = _load_csv(path)
    else:
        x, y = _load_raw(path)
    return _finish_domain(x, y, name=path.stem)
