"""CSV ingestion, model persistence, result emission and run manifests.

Everything written here is meant to be reproducible byte for byte: floats
render through repr (shortest round-trip decimal), JSON is emitted with
sorted keys, and no timestamps or absolute paths leak into the files. Each
result file names the manifest that can regenerate it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import Dataset, Ensemble, Stage
from .learners import NormalizedLearner, RegressionTree

MODEL_FORMAT = "rboost-model"
MANIFEST_FORMAT = "rboost-manifest"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class CsvSchema:
    """How to read a tabular file: header presence, target column, delimiter.

    target_column may be a 0-based index or a header name; None means the
    last column. Every non-target column must parse as a finite real.
    """

    has_header: bool = True
    target_column: Union[int, str, None] = None
    delimiter: str = ","

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be a single character, got {self.delimiter!r}")
        if isinstance(self.target_column, str) and not self.has_header:
            raise ValueError("named target_column requires has_header=True")


def _parse_cell(token: str, line_no: int, col_name: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"line {line_no}, column {col_name}: cannot parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line_no}, column {col_name}: non-finite value {token!r}")
    return value


def _read_rows(path, delimiter: str):
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh, delimiter=delimiter)]


def _resolve_target(schema: CsvSchema, names: list) -> int:
    n_cols = len(names)
    target = schema.target_column
    if target is None:
        return n_cols - 1
    if isinstance(target, str):
        if target not in names:
            raise ValueError(f"target column {target!r} not in header {names}")
        return names.index(target)
    if not 0 <= target < n_cols:
        raise ValueError(f"target column index {target} out of range for {n_cols} columns")
    return int(target)


def load_csv(path, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a delimited file into a Dataset; errors name the offending line/column."""
    rows = _read_rows(path, schema.delimiter)
    if not rows:
        raise ValueError(f"{path}: file is empty")
    if schema.has_header:
        names = [name.strip() for name in rows[0]]
        data_rows = rows[1:]
        first_line = 2
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
        data_rows = rows
        first_line = 1
    if not data_rows:
        raise ValueError(f"{path}: no data rows")
    n_cols = len(names)
    if n_cols < 2:
        raise ValueError(f"{path}: need at least one feature column and one target column")
    target_idx = _resolve_target(schema, names)

    features = np.empty((len(data_rows), n_cols - 1))
    targets = np.empty(len(data_rows))
    for i, row in enumerate(data_rows):
        line_no = first_line + i
        if len(row) != n_cols:
            raise ValueError(f"line {line_no}: has {len(row)} fields, expected {n_cols}")
        j = 0
        for c, token in enumerate(row):
            value = _parse_cell(token.strip(), line_no, names[c])
            if c == target_idx:
                targets[i] = value
            else:
                features[i, j] = value
                j += 1
    return Dataset(features, targets)


def load_feature_matrix(path, schema: CsvSchema = CsvSchema(), n_features: Optional[int] = None) -> np.ndarray:
    """Read a delimited file of features.

    With n_features given, a file of n_features + 1 columns carries a target
    column as well; the schema's target column (by default the last) is
    dropped from the parsed matrix, so the file is read once either way.
    """
    rows = _read_rows(path, schema.delimiter)
    if not rows:
        raise ValueError(f"{path}: file is empty")
    if schema.has_header:
        names = [name.strip() for name in rows[0]]
        data_rows = rows[1:]
        first_line = 2
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
        data_rows = rows
        first_line = 1
    if not data_rows:
        raise ValueError(f"{path}: no data rows")
    out = np.empty((len(data_rows), len(names)))
    for i, row in enumerate(data_rows):
        line_no = first_line + i
        if len(row) != len(names):
            raise ValueError(f"line {line_no}: has {len(row)} fields, expected {len(names)}")
        for c, token in enumerate(row):
            out[i, c] = _parse_cell(token.strip(), line_no, names[c])
    if n_features is not None and len(names) == n_features + 1:
        out = np.delete(out, _resolve_target(schema, names), axis=1)
    return out


def fmt(value) -> str:
    """Render a cell: floats via repr for exact decimal round-trip."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(data: Dataset, path, feature_names: Optional[Sequence[str]] = None, target_name: str = "y"):
    """Write a Dataset back out with full-precision values (round-trips via load_csv)."""
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(data.d)]
    if len(feature_names) != data.d:
        raise ValueError(f"need {data.d} feature names, got {len(feature_names)}")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join([*feature_names, target_name]) + "\n")
        for i in range(data.m):
            cells = [fmt(v) for v in data.features[i]] + [fmt(data.targets[i])]
            fh.write(",".join(cells) + "\n")


def _learner_to_dict(learner) -> dict:
    if isinstance(learner, NormalizedLearner):
        if not isinstance(learner.base, RegressionTree):
            raise ValueError(f"cannot persist learner of type {type(learner.base).__name__}")
        return {"type": "scaled_tree", "scale": learner.scale, "tree": learner.base.to_dict()}
    if isinstance(learner, RegressionTree):
        return {"type": "tree", "tree": learner.to_dict()}
    raise ValueError(f"cannot persist learner of type {type(learner).__name__}")


def _learner_from_dict(spec: dict):
    tree = RegressionTree.from_dict(spec["tree"])
    if spec["type"] == "scaled_tree":
        return NormalizedLearner(tree, float(spec["scale"]))
    if spec["type"] == "tree":
        return tree
    raise ValueError(f"unknown learner type {spec['type']!r}")


def save_model(model: Ensemble, path, meta: Optional[dict] = None):
    """Persist a tree-based ensemble as a versioned, human-inspectable JSON document."""
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "meta": meta or {},
        "offset": model.offset,
        "stages": [
            {"alpha": st.alpha, "beta": st.beta, "learner": _learner_to_dict(st.learner)}
            for st in model.stages
        ],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Load a persisted model; returns (Ensemble, meta dict)."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {doc.get('version')}")
    stages = [
        Stage(float(st["alpha"]), float(st["beta"]), _learner_from_dict(st["learner"]))
        for st in doc["stages"]
    ]
    return Ensemble(stages, float(doc.get("offset", 0.0))), doc.get("meta", {})


def format_aligned(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table with a header rule; cells render via fmt()."""
    cells = [[fmt(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in cells:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = [
        "  ".join(name.ljust(widths[j]) for j, name in enumerate(columns)).rstrip(),
        "  ".join("-" * widths[j] for j in range(len(columns))),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def emit_delimited(path, columns: Sequence[str], rows: Sequence[Sequence], manifest_name: Optional[str] = None):
    """Write comma-delimited rows with a commented column header.

    The first comment line points at the run manifest so every result file
    is traceable to the exact configuration that produced it.
    """
    if not rows:
        raise ValueError("no rows to emit")
    with open(path, "w", newline="\n") as fh:
        if manifest_name:
            fh.write(f"# manifest: {manifest_name}\n")
        fh.write(f"# columns: {','.join(columns)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_delimited(path):
    """Read a file written by emit_delimited; returns (columns, list-of-string-rows)."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no rows")
    reader = csv.reader(lines)
    parsed = list(reader)
    return parsed[0], parsed[1:]


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run's output files exactly."""

    command: tuple
    config: dict
    seed: int
    library_version: str
    outputs: tuple

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": FORMAT_VERSION,
            "command": list(self.command),
            "config": self.config,
            "seed": self.seed,
            "library_version": self.library_version,
            "outputs": list(self.outputs),
        }


def write_manifest(manifest: RunManifest, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
