"""The benchmark's workloads: inputs made from a seed, one op, and its checks.

Each workload has two sizes: "full", which BENCHMARK.json measures, and
"tiny", which the smoke test runs. An op's output is reduced to a digest
(sha256 of its result text or files) so repeated ops, and the reference
digests in reference.json, can be compared bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import rboost.bench
import rboost.boosters
import rboost.cli
import rboost.core
import rboost.learners
import rboost.selection

ALGORITHMS = ("boosting", "rboosting", "ddrboosting")


@dataclass(frozen=True)
class Workload:
    """setup(seed, size, workdir) -> state; op(state) -> output;
    check(state, output) -> (digest, problems); verify(state, output, phase) -> problems.

    ``check`` runs after every op. ``verify`` runs once after the timed
    loop, on the last op's output; ``phase`` is the run's Tracer over the
    training entry points, whose ``last`` holds the in-memory model.
    """

    name: str
    why: str
    sizes: dict
    setup: Callable
    op: Callable
    check: Callable
    verify: Callable


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _write_csv(path: Path, names, columns):
    """Write the table one row at a time, so that making the inputs stays
    far below the op's own peak memory, which peak_rss_mb reports."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in np.column_stack(columns):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _quiet(fn, *args):
    """Call fn with the program's stdout captured (the CLI prints its tables there)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _data_rows(path: Path):
    """Rows of a file written by the program's emit_delimited, header first."""
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


# --- table_d10: one run_comparison trial at the C4 setting -----------------


def _table_setup(seed, size, workdir):
    p = TABLE_SIZES[size]
    spec = rboost.bench.SyntheticSpec(
        target_id=7, noise_sigma=0.0, train_m=p["train_m"], test_m=p["test_m"], trials=1, seed_base=seed
    )
    return {"spec": spec, "k_max": p["k_max"], "grid": rboost.selection.u_grid(*p["grid"])}


def _table_op(state):
    return rboost.bench.run_comparison(
        state["spec"],
        algorithms=ALGORITHMS,
        k_max=state["k_max"],
        grid=state["grid"],
        learner_spec=rboost.learners.TreeLearnerSpec(4),
        workers=1,
    )


def _table_check(state, report):
    lines = [f"{a} {report.algorithms[a].rmse_per_trial!r} {report.algorithms[a].selected!r}" for a in ALGORITHMS]
    lines += [f"u={p.u} {p.mean_rmse!r}" for p in report.curve]
    problems = []
    for algo in ALGORITHMS:
        result = report.algorithms[algo]
        if not (math.isfinite(result.rmse_mean) and result.rmse_mean > 0):
            problems.append(f"{algo}: rmse {result.rmse_mean!r} is not a positive number")
        if not 1 <= result.selected[0]["k"] <= state["k_max"]:
            problems.append(f"{algo}: selected k {result.selected[0]['k']} outside 1..{state['k_max']}")
    best = min(report.curve, key=lambda p: p.mean_rmse)  # first minimum: smallest u
    rb = report.algorithms["rboosting"]
    if (rb.rmse_mean, rb.selected[0]["u"]) != (best.mean_rmse, best.u):
        problems.append(f"rboosting reports u={rb.selected[0]['u']} rmse {rb.rmse_mean!r}, its curve's best is u={best.u}")
    return _sha256("\n".join(lines).encode()), problems


def _table_verify(state, report, phase):
    """Recompute the boosting row with the benchmark's own staged recursion."""
    train_ds, test_ds = rboost.bench.sample_dataset(state["spec"], 0)
    config = rboost.core.TrainConfig("boosting", state["k_max"], rboost.learners.TreeLearnerSpec(4))
    model, _ = rboost.boosters.train(train_ds, config)
    f = np.zeros(test_ds.m)
    curve = []
    for stage in model.stages:
        f = (1.0 - stage.alpha) * f + stage.beta * stage.learner.predict(test_ds.features)
        curve.append(math.sqrt(float(np.mean((f - test_ds.targets) ** 2))))
    k = int(np.argmin(curve)) + 1
    reported = report.algorithms["boosting"]
    if reported.selected[0]["k"] != k or not math.isclose(reported.rmse_mean, curve[k - 1], rel_tol=1e-12):
        return [f"boosting: reported k={reported.selected[0]['k']} rmse {reported.rmse_mean!r}, recomputed k={k} rmse {curve[k - 1]!r}"]
    return []


TABLE_SIZES = {
    "full": {"train_m": 500, "test_m": 1000, "k_max": 200, "grid": (20, 1, 1e6)},
    "tiny": {"train_m": 60, "test_m": 80, "k_max": 10, "grid": (4, 1, 1e6)},
}

# --- realdata_stumps: `rboost realdata` on an Abalone-shaped CSV -----------


def abalone_like(rng, n):
    """Eight Abalone-shaped feature columns and a noisy additive target.

    Column 0 is a 3-level category coded 0/1/2; the size columns are
    rounded to 3 decimals and the weights to 2, so most columns carry many
    tied values, as measured data does.
    """
    sex = rng.integers(0, 3, n).astype(np.float64)
    length = np.round(rng.uniform(0.075, 0.815, n), 3)
    diameter = np.round(np.abs(0.8 * length + 0.02 * rng.standard_normal(n)), 3)
    height = np.round(np.abs(0.35 * length + 0.015 * rng.standard_normal(n)), 3)
    whole = np.round(2.6 * length**3 * np.exp(0.12 * rng.standard_normal(n)), 2)
    shucked = np.round(0.43 * whole * np.exp(0.1 * rng.standard_normal(n)), 2)
    viscera = np.round(0.22 * whole * np.exp(0.1 * rng.standard_normal(n)), 2)
    shell = np.round(0.29 * whole * np.exp(0.1 * rng.standard_normal(n)), 2)
    rings = 3.0 + 9.0 * np.sqrt(length) + 8.0 * shell - 1.5 * (sex == 2) + 1.5 * rng.standard_normal(n)
    names = ["sex", "length", "diameter", "height", "whole", "shucked", "viscera", "shell", "rings"]
    return names, [sex, length, diameter, height, whole, shucked, viscera, shell, np.round(rings, 2)]


def _realdata_setup(seed, size, workdir):
    p = REALDATA_SIZES[size]
    names, columns = abalone_like(np.random.default_rng([seed, 0xABA]), p["rows"])
    data_path = workdir / "abalone.csv"
    _write_csv(data_path, names, columns)
    return {
        "rows": p["rows"],
        "k_max": p["k_max"],
        "grid": rboost.selection.u_grid(*p["grid"]),
        "argv": ["realdata", str(data_path), "--j", "1", "--k-max", str(p["k_max"]),
                 "--grid", ":".join(map(str, p["grid"])), "--out", str(workdir / "realdata")],
        "result": workdir / "realdata" / "realdata.csv",
    }


def _realdata_op(state):
    return _quiet(rboost.cli.main, state["argv"])


def _realdata_check(state, code):
    if code != 0:
        return "", [f"rboost realdata exited with {code}"]
    raw = state["result"].read_bytes()
    header, *rows = _data_rows(state["result"])
    problems = []
    if header != ["algorithm", "test_rmse", "selected_u", "selected_k", "train_m", "test_m"]:
        problems.append(f"unexpected header {header}")
    elif [row[0] for row in rows] != list(ALGORITHMS):
        problems.append(f"unexpected algorithms {[row[0] for row in rows]}")
    else:
        half = state["rows"] // 2
        for algo, test_rmse, u, k, train_m, test_m in rows:
            if not (math.isfinite(float(test_rmse)) and float(test_rmse) > 0):
                problems.append(f"{algo}: test rmse {test_rmse} is not a positive number")
            if not 1 <= int(k) <= state["k_max"]:
                problems.append(f"{algo}: selected k {k} outside 1..{state['k_max']}")
            if (algo == "rboosting") != (u != "") or (u and int(u) not in state["grid"]):
                problems.append(f"{algo}: selected u {u!r} is not a grid value")
            if (int(train_m), int(test_m)) != (half, state["rows"] - half):
                problems.append(f"{algo}: split {train_m}/{test_m}, expected {half}/{state['rows'] - half}")
    return _sha256(raw), problems


def _realdata_verify(state, code, phase):
    return []


REALDATA_SIZES = {
    "full": {"rows": 2000, "k_max": 500, "grid": (20, 1, 1000000)},
    "tiny": {"rows": 120, "k_max": 20, "grid": (4, 1, 1000000)},
}

# --- serve_100k: `rboost fit` then `rboost predict --out` ------------------


def _serve_table(rng, n, d=10):
    """Features uniform on [-2, 2]^d at 6 decimals; target 7's profile plus noise."""
    X = np.round(rng.uniform(-2.0, 2.0, (n, d)), 6)
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    y = np.round(np.sum(signs * X * np.sin(X * X), axis=1) + 0.5 * rng.standard_normal(n), 6)
    return X, y


def _serve_setup(seed, size, workdir):
    p = SERVE_SIZES[size]
    rng = np.random.default_rng([seed, 0x5E7])
    names = [f"x{j}" for j in range(10)] + ["y"]
    train_X, train_y = _serve_table(rng, p["train_rows"])
    score_X, score_y = _serve_table(rng, p["score_rows"])
    train_path, score_path = workdir / "train.csv", workdir / "score.csv"
    _write_csv(train_path, names, [train_X, train_y])
    _write_csv(score_path, names, [score_X, score_y])
    model_dir, pred_dir = workdir / "model", workdir / "predictions"
    return {
        "score_X": score_X,
        "fit_argv": ["fit", str(train_path), "--algo", "rboost", "--u", "20", "--j", "4",
                     "--k-max", str(p["k_max"]), "--out", str(model_dir)],
        "predict_argv": ["predict", str(model_dir / "model.json"), str(score_path), "--out", str(pred_dir)],
        "model": model_dir / "model.json",
        "predictions": pred_dir / "predictions.csv",
    }


def _serve_op(state):
    return _quiet(rboost.cli.main, state["fit_argv"]), _quiet(rboost.cli.main, state["predict_argv"])


def _serve_predictions(state):
    header, *rows = _data_rows(state["predictions"])
    return header, np.array([float(row[0]) for row in rows])


def _serve_check(state, codes):
    if codes != (0, 0):
        return "", [f"rboost fit/predict exited with {codes}"]
    model_bytes = state["model"].read_bytes()
    pred_bytes = state["predictions"].read_bytes()
    problems = []
    doc = json.loads(model_bytes)
    if not 1 <= len(doc["stages"]) == doc["meta"]["stages"]:
        problems.append(f"model has {len(doc['stages'])} stages, its meta says {doc['meta']['stages']}")
    header, preds = _serve_predictions(state)
    if header != ["prediction"] or preds.shape != (state["score_X"].shape[0],):
        problems.append(f"predictions file has header {header} and {preds.size} rows")
    elif not np.all(np.isfinite(preds)):
        problems.append("predictions are not all finite")
    return _sha256(model_bytes, pred_bytes), problems


def _serve_verify(state, codes, phase):
    """Predictions from the saved and reloaded model must equal the in-memory model's, bit for bit."""
    model = phase.last.get("boosters.train", (None,))[0]
    if model is None:
        return ["no in-memory model was captured from rboost fit"]
    _, preds = _serve_predictions(state)
    expected = model.predict(state["score_X"])
    if preds.shape != expected.shape or not np.array_equal(preds, expected):
        n_diff = int(np.count_nonzero(preds != expected)) if preds.shape == expected.shape else preds.size
        return [f"{n_diff} predictions differ from the in-memory Ensemble.predict"]
    return []


SERVE_SIZES = {
    "full": {"train_rows": 2000, "score_rows": 100_000, "k_max": 500},
    "tiny": {"train_rows": 150, "score_rows": 400, "k_max": 20},
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table_d10",
            "the paper's table trial (C4: d=10, m=500, J=4, k_max=200, 20 u values, 3 algorithms); "
            "split search on 10 continuous columns dominates, no IO",
            TABLE_SIZES,
            _table_setup,
            _table_op,
            _table_check,
            _table_verify,
        ),
        Workload(
            "realdata_stumps",
            "rboost realdata on a 2000x8 Abalone-shaped CSV: J=1 stumps on tie-heavy columns, K=500 staged "
            "scoring and validation selection over the u grid",
            REALDATA_SIZES,
            _realdata_setup,
            _realdata_op,
            _realdata_check,
            _realdata_verify,
        ),
        Workload(
            "serve_100k",
            "rboost fit on 2000x10 then rboost predict on a 100k-row CSV: CSV parsing, model save/load "
            "and tree descent beside one training run",
            SERVE_SIZES,
            _serve_setup,
            _serve_op,
            _serve_check,
            _serve_verify,
        ),
    )
}
