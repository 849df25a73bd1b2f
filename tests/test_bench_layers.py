"""tools/bench_layers.py, run with one timed call per figure."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def _shape(row):
    """A figure's record without its measurements."""
    return {k: v for k, v in row.items() if k not in ("median_us", "minflt_per_call")}


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
    assert set(layers) == {
        "learners._best_split", "learners.fit_tree", "core.Ensemble.staged_predict",
        "selection.select_k_by_validation", "io.save_model", "io.load_model", "io.emit_delimited",
        "io._read_table", "core.Ensemble.predict",
    }
    search = layers["learners._best_split"]
    regimes = ["none", "light", "heavy"]
    assert [(row["ties"], row["d"], row["n"], row["root"]) for row in search] == [
        (ties, 10, n, n == 2000) for ties in regimes for n in (32, 125, 500, 2000)
    ] + [("realdata_stumps", 8, 500, True)]  # the root of realdata_stumps' learning half
    trees = layers["learners.fit_tree"]
    assert [(row["ties"], row["m"], row["d"], row["n_splits"]) for row in trees] == [
        (ties, m, 10, n_splits) for ties in regimes for m in (500, 2000) for n_splits in (1, 4)
    ]
    for row in search + trees:
        assert set(row) == {
            "ties", "tied_share", "median_us", "minflt_per_call", *(("d", "n", "root") if "n" in row else ("m", "d", "n_splits"))
        }
        assert isinstance(row["median_us"], float) and row["median_us"] > 0
        assert isinstance(row["tied_share"], float) and 0.0 <= row["tied_share"] < 1.0
    share = {(row["ties"], row["n"]): row["tied_share"] for row in search}
    # one 2,000-row sample per regime: none tied, a few ties, and most root boundaries tied (the untied root scan)
    assert share["none", 2000] == 0.0 < share["light", 2000] < 0.01 and share["heavy", 2000] >= 0.5
    assert len({row["tied_share"] for row in search if row["ties"] == "heavy"}) == 1
    # 69.5% of that root's 8 x 499 boundaries are ties, so it builds gains at the untied ones only
    assert share["realdata_stumps", 500] == 2773 / 3992
    # the serve layers: one figure each, on serve_100k's 500-stage model and the 100k rows of its predict
    names = ("io.save_model", "io.load_model", "io.emit_delimited", "io._read_table", "core.Ensemble.predict")
    serve = [row for name in names for row in layers[name]]
    assert [_shape(row) for row in serve] == [
        {"d": 10, "n_splits": 4, "stages": 500},
        {"d": 10, "n_splits": 4, "stages": 500},
        {"rows": 100_000, "cols": 1},
        {"rows": 100_000, "cols": 11},
        {"rows": 100_000, "d": 10, "n_splits": 4, "stages": 500},
    ]
    # the scoring layers on table_d10's and realdata_stumps' selection shapes
    staged, selection = layers["core.Ensemble.staged_predict"], layers["selection.select_k_by_validation"]
    shapes = [{"rows": 1000, "d": 10, "n_splits": 4, "stages": 200}, {"rows": 500, "d": 8, "n_splits": 1, "stages": 500}]
    assert [_shape(row) for row in staged] == shapes
    assert [_shape(row) for row in selection] == [{**s, "learn_rows": 500} for s in shapes]
    for row in search + trees + serve + staged + selection:
        assert isinstance(row["median_us"], float) and row["median_us"] > 0
        assert isinstance(row["minflt_per_call"], float) and row["minflt_per_call"] >= 0
    assert f"wrote {out}" in done.stdout


def test_rejects_a_repeat_count_below_one(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    done = subprocess.run([sys.executable, str(_TOOL), "--repeats", "0", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 2 and "--repeats must be >= 1, got 0" in done.stderr
    assert not out.exists()
