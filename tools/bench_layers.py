#!/usr/bin/env python3
"""Time the split-search, scoring and serve layers on their own: one _best_split call, one fit_tree
tree, one staged scoring and validation selection, one tree predict, one model save and load, and one
emit, table read and model predict of 100k rows.

    python3 tools/bench_layers.py [--repeats N] [--out PATH]

Imports rboost from the src directory of the checkout it sits in.
learners._best_split is timed per call at d=10 on nodes of n = 32, 125,
500 and 2000 rows of one 2,000-row sample: n = 2000 is the root, the
smaller nodes are seeded random row subsets whose blocks are filtered
from the column order, as fit_tree filters them. learners.fit_tree is
timed per tree at J = 1 and 4 splits on 500- and 2,000-row samples of 10
columns. Each figure is taken in three tie regimes of the features, all
seeded uniform draws: "none", on [-1, 1] with no value twice, so the
root takes the dense scan; "light", on [-2, 2] rounded to 6 decimals as
the serve_100k sample is, where at 2,000 rows a few columns hold a tie;
and "heavy", the same draws rounded to 2 decimals, where at 2,000 rows
most root boundaries are ties and the root builds gains at the untied
ones only (learners.RootScan), while at 500 rows fewer than half are and
the root takes the dense scan. One more _best_split figure, ties
"realdata_stumps", times the root that benchmark workload searches in
every round: its 500-row learning half of 8 Abalone-shaped columns,
drawn by perfbench/workloads.py at seed 0 and halved twice as
realdata_experiment halves it, where most root boundaries are ties.
Residuals are standard normal, so every run times the same inputs. Each record holds its regime
(ties) and the sample's share of tied root boundaries (tied_share).

The serve layers are the parts of `rboost fit` and `rboost predict --out`
on the serve_100k shape past training: io.save_model and io.load_model
of the re-scaled (u = 20) J = 4 model that 500 rounds fit on a 2,000-row
sample of 10 features uniform on [-2, 2] at 6 decimals, io.emit_delimited
of one 100k-row float column (a predictions.csv), io._read_table of a
100k x 11 CSV of the same law's features and a target, written by
write_csv, and core.Ensemble.predict of that model on its 100k x 10
features. Their files live in a temporary directory for the run.

The scoring layers are core.Ensemble.staged_predict and
selection.select_k_by_validation on the two shapes whose selections
dominate predict_s: table_d10's (a re-scaled, u = 20, model of 200 J = 4
stages scored on 1,000 holdout rows of 10 columns) and realdata_stumps'
(500 stumps scored on 500 rows of 8 columns). Both learn on 500 rows of
the serve law; the selection figure trains its model, as every selection
does, and scores all its truncations.

learners.RegressionTree.predict is timed per call on single trees fit to
the serve law's targets, their query rows column-major as Ensemble
passes them: a stump on 500 rows of 8 columns (a realdata_stumps stage),
J = 4 on 1,000 and on 100k rows of 10 (a table_d10 stage, and one at
serve size, where the rows and not the fixed cost of a call dominate),
and 200 splits on 2,000 rows of 10, a tree past 128 nodes whose ids
select in int64. Each record holds the tree's achieved n_splits and its
node count (nodes).

The split-search, scoring, tree-predict and serve figures are timed as
four groups, in that order (see time_layers). In each group every call is made once
untimed (the first fit builds the sample's split cache); then N rounds
time each call once, and each figure is the median of its N times, in
microseconds: per call for _best_split, RegressionTree.predict and the
scoring and serve layers, per tree for fit_tree. Each figure also records minflt_per_call, the
minor page faults of the process (the ru_minflt of resource.getrusage)
over its N timed calls divided by N: a call that maps fresh memory on
every run faults in each of its pages each time, so allocator churn
shows there. Writes PATH (default BENCH_layers.json at the
checkout's root) with the git SHA, whether the tree had uncommitted
changes, and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from rboost import (  # noqa: E402
    CsvSchema, Dataset, TrainConfig, TreeLearnerSpec, load_model, save_model, train, write_csv,
)
from rboost.io import _read_table, emit_delimited  # noqa: E402
from rboost.learners import _best_split, fit_tree, split_cache  # noqa: E402
from rboost.realdata import _SELECT_SALT  # noqa: E402
from rboost.selection import select_k_by_validation, split_learn_validate  # noqa: E402
from perfbench.workloads import _serve_table as _serve_law, abalone_like  # noqa: E402

D = 10
SEARCH_M = 2000
SEARCH_NODES = (32, 125, 500, 2000)
REALDATA_ROWS = 2000  # realdata_stumps' full size, halved twice to its 500-row learning half
TREE_SAMPLES = (500, 2000)
TREE_SPLITS = (1, 4)
SERVE_ROWS = 100_000
SERVE_TRAIN_M = 2000
SERVE_ROUNDS = 500
SCORING_LEARN_M = 500
# (d, n_splits, stages, holdout rows) of table_d10's and realdata_stumps' selections
SCORING_SHAPES = ((10, 4, 200, 1000), (8, 1, 500, 500))
# (d, n_splits, learning rows, scored rows) of the single trees timed by RegressionTree.predict
TREE_PREDICT_SHAPES = ((8, 1, 500, 500), (10, 4, 500, 1000), (10, 4, 500, SERVE_ROWS), (10, 200, 2000, 2000))


# The features of each tie regime, drawn from a seeded generator.
TIES = {
    "none": lambda rng, m: rng.uniform(-1.0, 1.0, (m, D)),
    "light": lambda rng, m: np.round(rng.uniform(-2.0, 2.0, (m, D)), 6),
    "heavy": lambda rng, m: np.round(rng.uniform(-2.0, 2.0, (m, D)), 2),
}


def _tied_share(X) -> float:
    """The share of X's root boundaries, neighbours in a sorted column, that are ties."""
    xs = np.sort(X, axis=0)
    return float(np.count_nonzero(xs[1:] == xs[:-1]) / xs[1:].size)


def _sample(m: int, seed: int, ties: str):
    """A sample of m rows in the ties regime, its record keys and a residual."""
    rng = np.random.default_rng(seed)
    X = TIES[ties](rng, m)
    return Dataset(X, np.zeros(m)), {"ties": ties, "tied_share": _tied_share(X)}, rng.standard_normal(m)


def _realdata_learn_half() -> Dataset:
    """realdata_stumps' learning half at seed 0, where every round of its stumps searches the root.

    The benchmark's Abalone-shaped table, halved into train and test and
    the train half into learn and validate, as realdata_experiment does.
    """
    columns = abalone_like(np.random.default_rng([0, 0xABA]), REALDATA_ROWS)[1]
    train_half, _ = split_learn_validate(Dataset(np.column_stack(columns[:-1]), columns[-1]), 0)
    select_seed = int(np.random.SeedSequence([0, _SELECT_SALT]).generate_state(1)[0])
    return split_learn_validate(train_half, select_seed)[0]


def _cases() -> list:
    """(layer, record, call) of every figure, each call bound to its seeded inputs."""
    cases = []
    for ties in TIES:
        data, regime, r = _sample(SEARCH_M, 0, ties)
        cache = split_cache(data)
        rng = np.random.default_rng(1)
        for n in SEARCH_NODES:
            rows = np.sort(rng.choice(SEARCH_M, n, replace=False)) if n < SEARCH_M else cache.rows
            inside = np.zeros(SEARCH_M, dtype=bool)
            inside[rows] = True
            block = cache.order[inside[cache.order]].reshape(D, n)
            call = functools.partial(_best_split, cache, r, rows, block)
            cases.append(("learners._best_split", {**regime, "d": D, "n": n, "root": n == SEARCH_M}, call))
        for m in TREE_SAMPLES:
            data, regime, r = _sample(m, m, ties)
            for n_splits in TREE_SPLITS:
                call = functools.partial(fit_tree, data, r, n_splits)
                cases.append(("learners.fit_tree", {**regime, "m": m, "d": D, "n_splits": n_splits}, call))
    learn = _realdata_learn_half()
    cache = split_cache(learn)
    record = {"ties": "realdata_stumps", "tied_share": _tied_share(learn.features), "d": learn.d, "n": learn.m, "root": True}
    call = functools.partial(_best_split, cache, np.random.default_rng(4).standard_normal(learn.m), cache.rows, cache.order)
    cases.append(("learners._best_split", record, call))
    return cases


def _serve_table(rng, m: int, d: int = D):
    """m rows of serve_100k's law, drawn by perfbench/workloads.py, as a Dataset."""
    return Dataset(*_serve_law(rng, m, d))


def _serve_cases(workdir: Path) -> list:
    """(layer, record, call) of the five serve layers, their files in workdir."""
    rng = np.random.default_rng(2)
    config = TrainConfig("rboosting", SERVE_ROUNDS, TreeLearnerSpec(4), u=20)
    model, _ = train(_serve_table(rng, SERVE_TRAIN_M), config)
    model_path = workdir / "model.json"
    save_model(model, model_path)
    score = _serve_table(rng, SERVE_ROWS)
    write_csv(score, workdir / "score.csv")
    preds = model.predict(score.features)
    rows = {"rows": SERVE_ROWS}
    shape = {"d": D, "n_splits": 4, "stages": len(model)}
    return [
        ("io.save_model", shape, functools.partial(save_model, model, model_path)),
        ("io.load_model", shape, functools.partial(load_model, model_path)),
        ("io.emit_delimited", {**rows, "cols": 1},
         functools.partial(emit_delimited, workdir / "predictions.csv", ["prediction"], [preds], "manifest.json")),
        ("io._read_table", {**rows, "cols": D + 1}, functools.partial(_read_table, workdir / "score.csv", CsvSchema())),
        ("core.Ensemble.predict", {**rows, **shape},
         functools.partial(model.predict, score.features)),
    ]


def _scoring_cases() -> list:
    """(layer, record, call) of staged scoring and validation selection on each of SCORING_SHAPES."""
    rng = np.random.default_rng(3)
    cases = []
    for d, n_splits, stages, rows in SCORING_SHAPES:
        learn, holdout = _serve_table(rng, SCORING_LEARN_M, d), _serve_table(rng, rows, d)
        config = TrainConfig("rboosting", stages, TreeLearnerSpec(n_splits), u=20)
        model, _ = train(learn, config)
        record = {"rows": rows, "d": d, "n_splits": n_splits, "stages": len(model)}
        cases += [
            ("core.Ensemble.staged_predict", record, functools.partial(model.staged_predict, holdout.features)),
            ("selection.select_k_by_validation", {**record, "learn_rows": SCORING_LEARN_M},
             functools.partial(select_k_by_validation, learn, holdout, config)),
        ]
    return cases


def _tree_predict_cases() -> list:
    """(layer, record, call) of one RegressionTree.predict on each of TREE_PREDICT_SHAPES."""
    rng = np.random.default_rng(5)
    cases = []
    for d, n_splits, learn_m, rows in TREE_PREDICT_SHAPES:
        learn = _serve_table(rng, learn_m, d)
        tree = fit_tree(learn, learn.targets, n_splits)
        X = np.asfortranarray(_serve_table(rng, rows, d).features)  # column-major, as Ensemble passes it
        record = {"rows": rows, "d": d, "n_splits": tree.n_splits, "nodes": tree.feature.size}
        cases.append(("learners.RegressionTree.predict", record, functools.partial(tree.predict, X)))
    return cases


def time_layers(repeats: int) -> dict:
    """{layer: [record with its median_us and minflt_per_call]}, group by group.

    The groups are built and timed in turn: split search, scoring, tree
    predict, serve. The tree-predict and serve groups free 100k-row arrays,
    and glibc then keeps blocks of that size on its heap instead of mapping
    them afresh, so the scoring group, timed before them, meets the
    allocator as a benchmark op does. Within a group every call is made once untimed, then repeats
    rounds visit every figure in turn, so a slow spell of the machine
    falls on all of them alike.
    """
    layers = {}
    with tempfile.TemporaryDirectory() as workdir:
        for build in (_cases, _scoring_cases, _tree_predict_cases, functools.partial(_serve_cases, Path(workdir))):
            cases = build()
            times, faults = [[] for _ in cases], [0] * len(cases)
            for _, _, call in cases:
                call()
            for _ in range(repeats):
                for i, (_, _, call) in enumerate(cases):
                    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    start = time.perf_counter()
                    call()
                    times[i].append(time.perf_counter() - start)
                    faults[i] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            for spent, faulted, (layer, record, _) in zip(times, faults, cases):
                layers.setdefault(layer, []).append(
                    {**record, "median_us": statistics.median(spent) * 1e6, "minflt_per_call": faulted / repeats}
                )
    return layers


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(repeats: int) -> dict:
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": repeats,
        "layers": time_layers(repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=301, help="timed calls per figure (default 301)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    result = measure(args.repeats)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for layer, rows in result["layers"].items():
        for row in rows:
            shape = ", ".join(f"{k}={v:.3g}" if k == "tied_share" else f"{k}={v}"
                              for k, v in row.items() if k not in ("median_us", "minflt_per_call"))
            print(f"{layer:32s} {shape:64s} {row['median_us']:12.1f} us {row['minflt_per_call']:10.1f} minflt")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
