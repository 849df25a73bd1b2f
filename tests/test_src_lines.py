"""tools/src_lines.py on a small fixture module and on a directory of them."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

FIXTURE = '''"""Module docstring
over two lines."""

import os  # a code line with a trailing comment

# a comment line
    # an indented comment line


class Thing:
    """One-line class docstring."""

    label = "# not a comment"

    def method(self):
        """Method docstring,

        with a blank line inside it.
        """
        text = """a string that is not a docstring"""
        return text


def function():
    value = 1
    """A string after the first statement is not a docstring."""
    return value
'''


def test_counts_of_the_fixture_module():
    # code: import, class, label, def, text, return, def, value, string, return
    # doc: 2 module + 1 class + 3 method docstring lines + 2 comments; the blank line
    # inside the method docstring counts as blank
    assert src_lines.count_lines(FIXTURE) == {"code": 10, "doc": 8, "blank": 9, "total": 27}


def test_the_total_adds_up_every_module(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    rows = src_lines.table(tmp_path)
    assert [name for name, _ in rows] == ["a.py", "b.py", "total"]
    assert rows[1][1] == {"code": 1, "doc": 1, "blank": 1, "total": 3}
    assert rows[2][1] == {"code": 11, "doc": 9, "blank": 10, "total": 30}


def test_main_prints_one_row_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert src_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "code", "doc/comment", "blank", "total"]
    assert [line.split() for line in lines[1:]] == [["b.py", "1", "1", "1", "3"], ["total", "1", "1", "1", "3"]]
