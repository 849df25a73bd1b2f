"""The table reader against the per-cell reader it replaced, and the writers against their old forms.

The oracle below is the reader as it was before NumPy's C tokenizer took
over the data rows: csv.reader, then float() on every stripped cell. On
any fuzzed table the new reader must give the same names and the same
matrix bit for bit, or raise a ValueError with the oracle's message. The
one intended difference is that completely empty rows are skipped; the
blank-row property checks that they change nothing but the line numbers
in messages, which keep counting the file's lines.
"""

import csv
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rboost import CsvSchema, Dataset, load_csv, write_csv
from rboost import io as rio


def _oracle_parse_cell(token, line_no, col_name):
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"line {line_no}, column {col_name}: cannot parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line_no}, column {col_name}: non-finite value {token!r}")
    return value


def _oracle_read_table(path, schema):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh, delimiter=schema.delimiter)]
    if not rows:
        raise ValueError(f"{path}: file is empty")
    if schema.has_header:
        names, rows, first_line = [name.strip() for name in rows[0]], rows[1:], 2
    else:
        names, first_line = [f"col{i}" for i in range(len(rows[0]))], 1
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return names, rows, first_line


def _oracle_parse_rows(names, rows, first_line):
    out = np.empty((len(rows), len(names)))
    for i, row in enumerate(rows):
        line_no = first_line + i
        if len(row) != len(names):
            raise ValueError(f"line {line_no}: has {len(row)} fields, expected {len(names)}")
        for c, token in enumerate(row):
            out[i, c] = _oracle_parse_cell(token.strip(), line_no, names[c])
    return out


def _oracle(path, schema):
    names, rows, first_line = _oracle_read_table(path, schema)
    return names, _oracle_parse_rows(names, rows, first_line)


def _outcome(read, path, schema):
    """("ok", names, shape, bytes) or ("error", message): bytes tell -0.0 from 0.0."""
    try:
        names, values = read(path, schema)
    except ValueError as exc:
        return ("error", str(exc))
    assert values.dtype == np.float64
    return ("ok", names, values.shape, values.tobytes())


def _read_new(path, schema):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty read must not warn
        return rio._read_table(path, schema)


finite = st.floats(allow_nan=False, allow_infinity=False)
number_cells = st.one_of(
    finite.map(repr),
    finite.map(lambda v: "%.6g" % v),
    st.integers(-(10**20), 10**20).map(str),
)
odd_cells = st.sampled_from(
    ['"1.5"', '"-2"', '" 3 "', "1_0", "nan", "-inf", "inf", "1e400", "-1e400", "1e-400", "", "#", "# 1", "0x10",
     "\xa01", "١", "1 2", '1"', "+.5", "5.", "-0"]
)
padding = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def tables(draw):
    """(text lines without line ends, delimiter, has_header, line end, trailing line end)."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    has_header = draw(st.booleans())
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 5))
    odd = draw(st.booleans())  # half the tables are all numbers, so the fast parse answers
    cells = st.one_of(number_cells, odd_cells) if odd else number_cells
    lines = []
    if has_header:
        names = draw(st.lists(st.sampled_from(["a", "y", " x0 ", "b", '"q"']), min_size=n_cols, max_size=n_cols))
        lines.append(delimiter.join(names))
    for _ in range(n_rows):
        width = draw(st.sampled_from([n_cols] * 6 + [max(n_cols - 1, 1), n_cols + 1])) if odd else n_cols
        row = [draw(padding) + draw(cells) + draw(padding) for _ in range(width)]
        # An empty line is a blank row, which the reader skips by design and
        # the oracle does not; the blank-row property covers those.
        lines.append(delimiter.join(row) or " ")
    return lines, delimiter, has_header, draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(st.booleans())


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def _write(path, lines, line_end, trailing):
    text = line_end.join(lines) + (line_end if trailing and lines else "")
    path.write_bytes(text.encode("utf-8"))


@settings(max_examples=600, deadline=None)
@given(tables())
@example(([], ",", True, "\n", True))
@example((["a,y"], ",", True, "\n", True))
@example((["1"], ",", False, "\r", False))
@example((["a", "1", "   "], ",", True, "\n", True))
@example((["a\tb", "1\t2\t"], "\t", True, "\n", True))
def test_reader_matches_per_cell_oracle(workdir, table):
    lines, delimiter, has_header, line_end, trailing = table
    path = workdir / "table.csv"
    _write(path, lines, line_end, trailing)
    schema = CsvSchema(has_header=has_header, delimiter=delimiter)
    assert _outcome(_read_new, path, schema) == _outcome(_oracle, path, schema)


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(st.integers(0, 8), max_size=4))
def test_blank_rows_change_only_line_numbers(workdir, table, blank_slots):
    lines, delimiter, has_header, line_end, trailing = table
    bare = workdir / "bare.csv"
    _write(bare, lines, line_end, trailing)
    padded, file_line = [], []  # file_line[k]: the padded file's line number of bare line k + 1
    for k, line in enumerate(lines):
        padded.extend([""] * blank_slots.count(k))
        padded.append(line)
        file_line.append(len(padded))
    padded.extend([""] * sum(slot >= len(lines) for slot in blank_slots))
    blank = workdir / "blank.csv"
    _write(blank, padded, line_end, True)
    schema = CsvSchema(has_header=has_header, delimiter=delimiter)
    want = _outcome(_oracle, bare, schema)
    if want[0] == "error":
        message = re.sub(r"^line (\d+)", lambda m: f"line {file_line[int(m.group(1)) - 1]}", want[1])
        want = ("error", message.replace(str(bare), str(blank)))
    assert _outcome(_read_new, blank, schema) == want


@pytest.mark.parametrize(
    "text, has_header, message",
    [("", True, "file is empty"), ("\n\r\n", False, "file is empty"), ("a,y\n", True, "no data rows"),
     ("a,y\n\n\r\n", True, "no data rows")],
)
def test_empty_and_header_only_files_raise_without_warning(tmp_path, text, has_header, message):
    path = tmp_path / "empty.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=message):
        _read_new(path, CsvSchema(has_header=has_header))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(finite, min_size=m, max_size=m), min_size=1, max_size=4),
            st.lists(finite, min_size=m, max_size=m),
        )
    )
)
def test_write_csv_then_load_csv_gives_the_same_bits(workdir, columns_and_targets):
    columns, targets = columns_and_targets
    data = Dataset(np.array(columns).T, targets)
    path = workdir / "round.csv"
    write_csv(data, path)
    back = load_csv(path)
    assert back.features.tobytes() == data.features.tobytes()
    assert back.targets.tobytes() == data.targets.tobytes()


def _old_fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _old_emit_delimited(path, columns, rows, manifest_name=None):
    with open(path, "w", newline="\n") as fh:
        if manifest_name:
            fh.write(f"# manifest: {manifest_name}\n")
        fh.write(f"# columns: {','.join(columns)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_old_fmt(v) for v in row) + "\n")


cell_values = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.integers(),
    st.booleans(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.just(""),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(cell_values, min_size=k, max_size=k), min_size=1, max_size=6)
    ),
    st.sampled_from([None, "manifest.json"]),
)
def test_emit_delimited_writes_the_per_cell_bytes(workdir, rows, manifest_name):
    columns = [f"c{j}" for j in range(len(rows[0]))]
    old, new = workdir / "old.csv", workdir / "new.csv"
    _old_emit_delimited(old, columns, rows, manifest_name)
    rio.emit_delimited(new, columns, rows, manifest_name)
    assert new.read_bytes() == old.read_bytes()
