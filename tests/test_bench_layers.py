"""tools/bench_layers.py, run with one timed call per figure."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def test_writes_every_layer_figure_with_its_provenance(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    done = subprocess.run([sys.executable, str(_TOOL), "--repeats", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"git_sha", "git_dirty", "python", "numpy", "repeats", "layers"}
    assert result["numpy"] == np.__version__ and result["repeats"] == 1
    assert result["git_sha"] is None or len(result["git_sha"]) == 40
    layers = result["layers"]
    assert set(layers) == {"learners._best_split", "learners.fit_tree"}
    search = layers["learners._best_split"]
    assert [(row["d"], row["n"], row["root"]) for row in search] == [
        (10, 32, False), (10, 125, False), (10, 500, False), (10, 2000, True),
    ]
    trees = layers["learners.fit_tree"]
    assert [(row["m"], row["d"], row["n_splits"]) for row in trees] == [(500, 10, 1), (500, 10, 4), (2000, 10, 1), (2000, 10, 4)]
    for row in search + trees:
        assert isinstance(row["median_us"], float) and row["median_us"] > 0
    assert f"wrote {out}" in done.stdout


def test_rejects_a_repeat_count_below_one(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    done = subprocess.run([sys.executable, str(_TOOL), "--repeats", "0", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 2 and "--repeats must be >= 1, got 0" in done.stderr
    assert not out.exists()
