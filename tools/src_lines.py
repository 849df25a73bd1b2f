#!/usr/bin/env python3
"""Count the code, docstring/comment and blank lines of each module under src/rboost.

    python3 tools/src_lines.py [DIR]

A line is blank when it holds only whitespace, also inside a docstring;
docstring when it lies within a module, class or function docstring, as
ast finds them; comment when it starts with ``#`` after indentation; code
otherwise. So a code line with a trailing comment counts as code.
Prints one row per module (sorted by name) and a total row; DIR
defaults to the checkout's src/rboost.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of the module and of every class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict:
    """{"code", "doc", "blank", "total"} line counts of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    counts = {"code": 0, "doc": 0, "blank": 0}
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            counts["blank"] += 1
        elif number in docs or stripped.startswith("#"):
            counts["doc"] += 1
        else:
            counts["code"] += 1
    counts["total"] = sum(counts.values())
    return counts


def table(directory: Path) -> list:
    """(name, counts) of each .py file in directory, sorted by name, then ("total", summed counts)."""
    rows = [(path.name, count_lines(path.read_text(encoding="utf-8"))) for path in sorted(directory.glob("*.py"))]
    total = {key: sum(counts[key] for _, counts in rows) for key in ("code", "doc", "blank", "total")}
    return rows + [("total", total)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else ROOT / "src" / "rboost"
    print(f"{'module':<16}{'code':>7}{'doc/comment':>13}{'blank':>7}{'total':>7}")
    for name, c in table(directory):
        print(f"{name:<16}{c['code']:>7}{c['doc']:>13}{c['blank']:>7}{c['total']:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
