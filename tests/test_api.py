"""The package exports exactly what the demos and the README import from it.

Every other name is imported from its own submodule, so a new export has
to come with a documented use.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import rboost

ROOT = Path(__file__).resolve().parents[1]


def _imported_from_rboost(source: str) -> set:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "rboost" and node.level == 0
        for alias in node.names
    }


def _documented_names() -> set:
    sources = [demo.read_text() for demo in sorted((ROOT / "demos").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    return set().union(*map(_imported_from_rboost, sources))


def test_exports_are_what_the_demos_and_readme_import():
    assert _documented_names() == set(rboost.__all__)
    assert len(rboost.__all__) == len(set(rboost.__all__))


def test_every_export_resolves():
    for name in rboost.__all__:
        assert getattr(rboost, name) is not None, name


def test_importing_the_package_and_its_cli_loads_no_process_pool():
    # Only a parallel benchmark run imports the pool, inside bench; every
    # command pays for what a bare import loads, and perfbench times it.
    code = (
        "import sys, rboost, rboost.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
