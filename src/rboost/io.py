"""CSV ingestion, model persistence, result emission and run manifests.

Everything written here is meant to be reproducible byte for byte: floats
render through repr (shortest round-trip decimal), JSON is emitted with
sorted keys, and no timestamps or absolute paths leak into the files. Each
result file names the manifest that can regenerate it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .core import Dataset, Ensemble, Stage, check_clip_bound
from .learners import RegressionTree

MODEL_FORMAT = "rboost-model"
MANIFEST_FORMAT = "rboost-manifest"
FORMAT_VERSION = 1
_BLOCK_ROWS = 8192  # rows rendered per write by write_columns
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')  # a delimited text cell holding one of these is quoted


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
        if self.delimiter in "\r\n":
            raise ValueError("delimiter cannot be a line end")
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


def _open_table(path):
    """The one place a table file is opened: UTF-8, a leading byte-order mark dropped."""
    return open(path, newline="", encoding="utf-8-sig")


def _read_table(path, schema: CsvSchema):
    """(column names, float matrix) of a delimited file; completely empty rows are skipped.

    NumPy's C tokenizer parses the data rows. It converts each cell with
    PyOS_string_to_double, the routine behind float(), so its values are
    the exact path's bit for bit. Where it cannot give the whole answer
    (it raises, finds another column count than the header's, reads a
    non-finite value, or meets a line longer than csv.field_size_limit()),
    the per-cell path rereads the same handle from the start; it alone
    raises parse errors, naming the file line and column, and accepts what
    only float() takes, such as quoted cells and 1_0.
    """
    with _open_table(path) as fh:
        table = _parse_fast(fh, schema)
        if table is None:
            fh.seek(0)
            table = _parse_rows(fh, schema, path)
    return table


def _bounded_lines(lines, limit: int):
    """The lines, raising ValueError at one longer than limit: a field over the limit needs such a line."""
    for line in lines:
        if len(line) > limit:
            raise ValueError(f"line longer than {limit} characters")
        yield line


def _parse_fast(fh, schema: CsvSchema):
    try:
        if schema.has_header:
            header = next((row for row in csv.reader(fh, delimiter=schema.delimiter) if row), [])
        lines = _bounded_lines(fh, csv.field_size_limit())  # the per-cell path rejects a longer field
        first = next((line for line in lines if line.strip("\r\n")), None)  # loadtxt warns on no rows
        if first is None:
            return None
        values = np.loadtxt(
            itertools.chain([first], lines), delimiter=schema.delimiter, comments=None, ndmin=2, dtype=np.float64
        )
    except (ValueError, csv.Error):
        return None
    if schema.has_header:
        names = [name.strip() for name in header]
    else:
        names = [f"col{i}" for i in range(values.shape[1])]  # every cell is a number, so csv splits alike
    if values.shape[1] != len(names) or not np.isfinite(values).all():
        return None
    return names, values


def _records(fh, delimiter: str):
    """(file line number, fields) of each non-empty record; a record spanning lines gets its first line's number."""
    reader = csv.reader(fh, delimiter=delimiter)
    line_no = 1
    try:
        for row in reader:
            if row:
                yield line_no, row
            line_no = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"line {line_no}: {exc}") from None


def _parse_rows(fh, schema: CsvSchema, path):
    rows = list(_records(fh, schema.delimiter))
    if not rows:
        raise ValueError(f"{path}: file is empty")
    if schema.has_header:
        names = [name.strip() for name in rows[0][1]]
        rows = rows[1:]
    else:
        names = [f"col{i}" for i in range(len(rows[0][1]))]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    out = np.empty((len(rows), len(names)))
    for i, (line_no, row) in enumerate(rows):
        if len(row) != len(names):
            raise ValueError(f"line {line_no}: has {len(row)} fields, expected {len(names)}")
        for c, token in enumerate(row):
            out[i, c] = _parse_cell(token.strip(), line_no, names[c])
    return names, out


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


def _dataset(path, schema: CsvSchema, names: list, values: np.ndarray) -> Dataset:
    """The Dataset of a parsed table: the schema's target column split off from the features."""
    if len(names) < 2:
        raise ValueError(f"{path}: need at least one feature column and one target column")
    target_idx = _resolve_target(schema, names)
    return Dataset(np.delete(values, target_idx, axis=1), values[:, target_idx])


def load_csv(path, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a delimited file into a Dataset; errors name the offending line/column."""
    return _dataset(path, schema, *_read_table(path, schema))


def load_csv_pair(train, test, schema: CsvSchema = CsvSchema()):
    """(train, test) Datasets of a table that ships in two files.

    With a header, test's columns are matched to train's by name and put
    in train's order before the target column is picked, so both Datasets
    have one column order; a name repeated in either file, missing from
    test or not in train raises ValueError naming it. Without a header,
    columns match by position, and files of different column counts raise.
    Both files are read and checked before any Dataset is built.
    """
    train_names, train_values = _read_table(train, schema)
    test_names, test_values = _read_table(test, schema)
    if schema.has_header:
        for path, names in ((train, train_names), (test, test_names)):
            repeated = next((name for name in names if names.count(name) > 1), None)
            if repeated is not None:
                raise ValueError(f"{path}: column {repeated!r} appears more than once")
        missing = next((name for name in train_names if name not in test_names), None)
        if missing is not None:
            raise ValueError(f"{test}: no column {missing!r}, which {train} has")
        extra = next((name for name in test_names if name not in train_names), None)
        if extra is not None:
            raise ValueError(f"{test}: column {extra!r} is not in {train}")
        test_values = test_values[:, [test_names.index(name) for name in train_names]]
    elif len(test_names) != len(train_names):
        raise ValueError(f"{test} has {len(test_names)} columns, {train} has {len(train_names)}")
    return _dataset(train, schema, train_names, train_values), _dataset(test, schema, train_names, test_values)


def load_feature_matrix(path, schema: CsvSchema = CsvSchema(), n_features: Optional[int] = None) -> np.ndarray:
    """Read a delimited file of features.

    With n_features given, a file of n_features + 1 columns carries a target
    column as well; the schema's target column (by default the last) is
    dropped from the parsed matrix, so the file is read once either way.
    """
    names, out = _read_table(path, schema)
    if n_features is not None and len(names) == n_features + 1:
        out = np.delete(out, _resolve_target(schema, names), axis=1)
    return out


def fmt(value) -> str:
    """Render a cell: floats via repr for exact decimal round-trip, anything else via str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _delimited_cell(value) -> str:
    """A cell of comma-delimited output, quoted by the CSV rule where it must be.

    A float renders as fmt renders it and is not checked. Anything else
    renders via str, and goes in double quotes, each quote doubled, when it
    holds a comma, a quote or a line end.
    """
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def write_csv(data: Dataset, path, feature_names: Optional[Sequence[str]] = None, target_name: str = "y"):
    """Write a Dataset back out with full-precision values (round-trips via load_csv)."""
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(data.d)]
    if len(feature_names) != data.d:
        raise ValueError(f"need {data.d} feature names, got {len(feature_names)}")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join([*feature_names, target_name]) + "\n")
        write_columns(fh, [*data.features.T, data.targets])


def _learner_to_dict(tree) -> dict:
    """The v1 learner of a stage's tree: {"type": "scaled_tree", "scale", "tree"}.

    "tree" holds n_splits, n_features and the nested root: a leaf is
    {"value"}, a split {"feature", "threshold", "left", "right"}. Nodes
    are linked in place, not by recursion, so a deep tree builds; a split's
    value is not stored.
    """
    if not isinstance(tree, RegressionTree):
        raise ValueError(f"cannot persist learner of type {type(tree).__name__}")
    feature, threshold, left, right, value = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    )
    nodes = [{"value": v} if f < 0 else {"feature": f, "threshold": t} for f, t, v in zip(feature, threshold, value)]
    for node in np.flatnonzero(tree.feature >= 0).tolist():
        nodes[node]["left"], nodes[node]["right"] = nodes[left[node]], nodes[right[node]]
    spec = {"n_splits": tree.n_splits, "n_features": tree.n_features, "root": nodes[0]}
    return {"type": "scaled_tree", "scale": tree.scale, "tree": spec}


def _learner_from_dict(spec: dict) -> RegressionTree:
    """The tree of a v1 learner: a scaled_tree carries its scale, a bare tree has scale 1.0.

    The nested root is read by an explicit stack and its nodes numbered in
    pre-order, so children come after their parent; a split's value is
    NaN. A split on a feature outside the tree's n_features is an error.
    """
    tree_spec = spec["tree"]
    n_features = int(tree_spec["n_features"])
    nodes = []  # [feature, threshold, left, right, value] per node
    stack = [(tree_spec["root"], None)]  # (node spec, (parent id, its left/right column))
    while stack:
        node, link = stack.pop()
        if link is not None:
            nodes[link[0]][link[1]] = len(nodes)
        if "value" in node:
            nodes.append([-1, 0.0, -1, -1, float(node["value"])])
            continue
        feature = int(node["feature"])
        if not 0 <= feature < n_features:
            raise ValueError(f"split on feature {feature}, outside the tree's {n_features} features")
        nodes.append([feature, float(node["threshold"]), -1, -1, np.nan])
        stack += [(node["right"], (len(nodes) - 1, 3)), (node["left"], (len(nodes) - 1, 2))]
    tree = RegressionTree(*zip(*nodes), n_features)
    if spec["type"] == "scaled_tree":
        tree.scale = float(spec["scale"])
    elif spec["type"] != "tree":
        raise ValueError(f"unknown learner type {spec['type']!r}")
    return tree


def _depth(tree: RegressionTree) -> int:
    """Length of the tree's longest root-to-leaf path; 0 for a single leaf."""
    depths = [0] * tree.feature.size
    for node in np.flatnonzero(tree.feature >= 0).tolist():  # parents come first
        depths[tree.left[node]] = depths[tree.right[node]] = depths[node] + 1
    return max(depths)


def save_model(model: Ensemble, path, meta: Optional[dict] = None):
    """Persist a tree-based ensemble as a versioned, human-inspectable JSON document.

    The document is encoded in full before the file is opened, so a model
    that cannot be written leaves no partial file behind.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "meta": meta or {},
        "offset": 0.0,  # v1 files carry the key; every model starts from f_0 = 0
        "stages": [
            {"alpha": st.alpha, "beta": st.beta, "learner": _learner_to_dict(st.learner)}
            for st in model.stages
        ],
    }
    try:
        text = json.dumps(doc, indent=2, sort_keys=True)
    except RecursionError:
        depth = max(_depth(st.learner) for st in model.stages)
        raise ValueError(f"a tree of depth {depth} nests too deep for the v1 JSON model format") from None
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _nonfinite_field(stage: Stage):
    """Name of the first of a loaded stage's numbers that is not finite, else None."""
    tree = stage.learner
    fields = {
        "alpha": stage.alpha,
        "beta": stage.beta,
        "scale": tree.scale,
        "threshold": tree.threshold[tree.feature >= 0],
        "value": tree.value[tree.feature < 0],  # a v1 split node stores no value: NaN by design
    }
    return next((name for name, v in fields.items() if not np.isfinite(v).all()), None)


def load_model(path):
    """Load a persisted model; returns (Ensemble, meta dict).

    A file missing a required field, or carrying a non-finite alpha, beta,
    scale, threshold or leaf value, or a nonzero offset, raises ValueError
    naming the stage and the field; so does a field of the wrong JSON type,
    and a meta.clip_bound that is neither null nor a JSON number that
    core.check_clip_bound accepts.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except RecursionError:
        bare = re.sub(r'"(?:[^"\\]|\\.)*"', "", text)  # brackets inside strings do not nest
        depth = max(itertools.accumulate(1 if c in "[{" else -1 for c in bare if c in "[]{}"))
        raise ValueError(f"{path}: JSON nests {depth} levels deep, more than the parser allows") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a {MODEL_FORMAT} document: the top level is not a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {doc.get('version')}")
    if doc.get("offset", 0.0) != 0.0:
        raise ValueError(f"{path}: offset {doc['offset']!r} is not supported; every model starts from 0")
    if "stages" not in doc:
        raise ValueError(f"{path}: missing field 'stages'")
    for field, kind, json_kind in (("stages", list, "array"), ("meta", dict, "object")):
        if not isinstance(doc.get(field, kind()), kind):
            raise ValueError(f"{path}: field {field!r} is not a JSON {json_kind}")
    bound = doc.get("meta", {}).get("clip_bound")
    try:
        if bound is not None and type(bound) not in (int, float):  # a bool, string, array or object
            raise ValueError(f"clip bound must be null or a JSON number, got {json.dumps(bound)}")
        check_clip_bound(None if bound is None else float(bound))
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer beyond the float range
        raise ValueError(f"{path}: meta.clip_bound: {exc}") from None
    stages = []
    for i, st in enumerate(doc["stages"]):
        try:
            stage = Stage(float(st["alpha"]), float(st["beta"]), _learner_from_dict(st["learner"]))
        except KeyError as exc:
            raise ValueError(f"{path}: stage {i} is missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # a field of the wrong JSON type or value
            raise ValueError(f"{path}: stage {i} is malformed: {exc}") from None
        bad = _nonfinite_field(stage)
        if bad is not None:
            raise ValueError(f"{path}: stage {i} has a non-finite {bad}")
        stages.append(stage)
    return Ensemble(stages), doc.get("meta", {})


def format_aligned(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table with a header rule; cells render via fmt()."""
    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(map(len, col)) for col in itertools.zip_longest(columns, *cells, fillvalue="")]
    lines = [
        "  ".join(name.ljust(widths[j]) for j, name in enumerate(columns)).rstrip(),
        "  ".join("-" * widths[j] for j in range(len(columns))),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def write_columns(fh, columns: Sequence[Sequence]):
    """Write columns of one length to fh as comma-delimited lines, cells rendered by _delimited_cell.

    The one renderer of delimited output. It works a block of rows at a
    time: one map per column (a numpy column is first turned into Python
    scalars with tolist), one join of the block's lines and one write, so
    memory stays bounded by the block whatever the row count. Floats render
    as fmt renders them; only other cells are checked for quoting.
    """
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        blocks = (col[start : start + _BLOCK_ROWS] for col in columns)
        cells = [map(_delimited_cell, b.tolist() if isinstance(b, np.ndarray) else b) for b in blocks]
        fh.write("\n".join(cells[0] if len(cells) == 1 else map(",".join, zip(*cells))) + "\n")


def emit_delimited(path, names: Sequence[str], columns: Sequence[Sequence], manifest_name: Optional[str] = None):
    """Write a table, given as one sequence of cells per named column, under a commented header.

    The first comment line points at the run manifest so every result file
    is traceable to the exact configuration that produced it. The rows are
    rendered by write_columns, a block at a time.
    """
    lengths = {len(col) for col in columns}
    if len(columns) != len(names) or len(lengths) != 1 or 0 in lengths:
        raise ValueError(f"need one column per name in {list(names)}, all of one length > 0")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        if manifest_name:
            fh.write(f"# manifest: {manifest_name}\n")
        fh.write(f"# columns: {','.join(names)}\n{','.join(names)}\n")
        write_columns(fh, columns)


def read_delimited(path):
    """Read a file written by emit_delimited; returns (columns, list-of-string-rows).

    Lines starting with '#' before the header are comments, where
    emit_delimited writes them; after it, such a line is data, so a
    quoted cell may hold one. Blank lines are skipped. A row whose field
    count differs from the header's raises ValueError naming the file and
    its line, so a ragged or non-delimited file is never rendered as a
    table. The file is opened as every table is (_open_table): untranslated
    (newline=""), so a quoted cell keeps its line ends, as the csv module
    asks, and without a leading byte-order mark.
    """
    with _open_table(path) as fh:
        lines = fh.readlines()
    head = next((i for i, line in enumerate(lines) if line.strip("\r\n") and not line.startswith("#")), len(lines))
    records = list(_records(["\n"] * head + lines[head:], ","))  # comments blanked, so line numbers stay
    if not records:
        raise ValueError(f"{path}: no rows")
    columns = records[0][1]
    for line_no, row in records:
        if len(row) != len(columns):
            raise ValueError(f"{path}: line {line_no} has {len(row)} fields, the header {len(columns)}")
    return columns, [row for _, row in records[1:]]


def write_manifest(path, command: Sequence[str], config: dict, seed: int, outputs: Sequence[str]):
    """Write everything needed to reproduce a run's output files exactly, as sorted-key JSON."""
    doc = {
        "format": MANIFEST_FORMAT,
        "version": FORMAT_VERSION,
        "command": list(command),
        "config": config,
        "seed": seed,
        "library_version": __version__,
        "outputs": list(outputs),
    }
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
