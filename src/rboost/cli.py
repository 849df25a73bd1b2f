"""Command-line surface: benchmark drivers, CSV fit/predict, result reporting.

Subcommands:
  simulate   oracle-selection comparison on the synthetic targets
  ucurve     test RMSE of the re-scaled booster across the u grid
  adaptive   validation-based selection of the re-scale factor vs the oracle
  fit        train on a CSV file and persist the model
  predict    load a persisted model and emit predictions for a CSV file
  realdata   half/half protocol on a tabular dataset (stumps by default)
  report     render stored result rows as an aligned table

Every file-writing run drops a manifest.json next to its outputs; rerunning
the same command yields byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .bench import SyntheticSpec, run_comparison, selected_u_stats
from .core import ALGORITHMS, TrainConfig, inner, positive_int
from .boosters import train
from .io import (
    CsvSchema,
    emit_delimited,
    format_aligned,
    load_csv,
    load_csv_pair,
    load_feature_matrix,
    load_model,
    read_delimited,
    save_model,
    write_columns,
    write_manifest,
)
from .learners import TreeLearnerSpec
from .realdata import realdata_experiment
from .selection import u_grid

_ALGO_ALIASES = {"boost": "boosting", "rboost": "rboosting", "ddr": "ddrboosting"}

_TRIAL_COLUMNS = ["target", "sigma", "algorithm", "trial", "rmse", "selected_u", "selected_k"]


class _RejectedValue(Exception):
    """A flag value that parses but is out of range; main reports it with exit status 1."""


def _clip_bound(text: str) -> float:
    """Type of every --clip flag: a bound M > 0, checked before any work starts."""
    bound = float(text)  # a non-number stays an argparse usage error
    if not bound > 0:
        raise _RejectedValue(f"--clip must be > 0, got {text}")
    return bound


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be COUNT:LO:HI, got {text!r}")
    return u_grid(float(parts[0]), float(parts[1]), float(parts[2]))  # u_grid rejects a fractional count by name


def _parse_target_column(text):
    """A 0-based column index when text is an integer, else text itself: a header name or None."""
    try:
        return int(text)
    except (TypeError, ValueError):  # int(None) raises TypeError
        return text


def _schema_from_args(args) -> CsvSchema:
    return CsvSchema(
        has_header=not args.no_header,
        target_column=_parse_target_column(args.target_column),
        delimiter=args.delimiter,
    )


def _write_manifest(args, config: dict, outputs):
    """The one manifest of a run, next to its outputs in --out."""
    write_manifest(os.path.join(args.out, "manifest.json"), args.command_echo, config, args.seed, sorted(outputs))


def _finish(args, text: str, config: dict, name: str, names, columns) -> int:
    """Print text; with --out, also write one result file, given by column, plus the manifest there."""
    print(text, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        emit_delimited(os.path.join(args.out, name), names, columns, manifest_name="manifest.json")
        _write_manifest(args, config, [name])
    return 0


def _add_schema_flags(p):
    p.add_argument("--target-column", default=None, help="target column name or 0-based index (default: last)")
    p.add_argument("--no-header", action="store_true", help="treat the first line as data")
    p.add_argument("--delimiter", default=",", help="field delimiter (default comma)")


def _add_run_flags(p):
    """The flags of every run that selects over a u grid: the bench commands and realdata."""
    p.add_argument("--j", type=int, default=4, help="tree splits per weak learner")
    p.add_argument("--k-max", type=int, default=500, help="iteration budget per training run")
    p.add_argument("--grid", default="20:1:1e6", help="u grid as COUNT:LO:HI (log-spaced)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clip", type=_clip_bound, default=None, metavar="M", help="clip predictions to [-M, M]")
    p.add_argument("--out", default=None, metavar="DIR", help="write result rows and manifest here")


def _add_bench_flags(p):
    p.add_argument("--trials", type=int, default=20)
    _add_run_flags(p)
    p.add_argument("--train-m", type=int, default=500)
    p.add_argument("--test-m", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1, help="parallel trial workers")


def _bench_config(args, **extra) -> dict:
    cfg = {
        "trials": args.trials,
        "j": args.j,
        "k_max": args.k_max,
        "grid": args.grid,
        "seed": args.seed,
        "clip": args.clip,
        "train_m": args.train_m,
        "test_m": args.test_m,
    }
    cfg.update(extra)
    return cfg


def _compare(args, target: int, sigma: float, algorithms):
    """run_comparison of the methods on one synthetic target, set up by the bench flags."""
    spec = SyntheticSpec(
        target_id=target, noise_sigma=sigma, train_m=args.train_m, test_m=args.test_m, trials=args.trials,
        seed_base=args.seed,
    )
    return run_comparison(
        spec, algorithms, k_max=args.k_max, grid=_parse_grid(args.grid), learner_spec=TreeLearnerSpec(args.j),
        clip_bound=args.clip, workers=args.workers,
    )


def _trial_rows(target, sigma, name, summary) -> list:
    """Result rows of one method: one per trial, then its mean and std."""
    rows = [
        [target, sigma, name, t, r, sel.get("u", ""), sel.get("k", "")]
        for t, (r, sel) in enumerate(zip(summary.rmse_per_trial, summary.selected))
    ]
    rows.append([target, sigma, name, "mean", summary.rmse_mean, "", ""])
    rows.append([target, sigma, name, "std", summary.rmse_std, "", ""])
    return rows


def _cmd_simulate(args) -> int:
    algorithms = ALGORITHMS if args.algo == "all" else (_ALGO_ALIASES[args.algo],)
    rows, table = [], []
    for target in args.target:
        for sigma in args.sigma:
            report = _compare(args, target, sigma, algorithms)
            for algo in algorithms:
                s = report.algorithms[algo]
                rows += _trial_rows(target, sigma, algo, s)
                table.append([target, sigma, algo, f"{s.rmse_mean:.4f}", f"{s.rmse_std:.4f}"])
    text = format_aligned(["target", "sigma", "algorithm", "mean_rmse", "std_rmse"], table)
    config = _bench_config(args, targets=list(args.target), sigmas=list(args.sigma), algo=args.algo)
    return _finish(args, text, config, "results.csv", _TRIAL_COLUMNS, list(zip(*rows)))


def _cmd_ucurve(args) -> int:
    curve = _compare(args, args.target, args.sigma, ("rboosting",)).curve
    rows = [[p.u, p.mean_rmse, p.std_rmse] for p in curve]
    table = [[p.u, f"{p.mean_rmse:.4f}", f"{p.std_rmse:.4f}"] for p in curve]
    names = ["u", "mean_rmse", "std_rmse"]
    config = _bench_config(args, target=args.target, sigma=args.sigma)
    return _finish(args, format_aligned(names, table), config, "ucurve.csv", names, list(zip(*rows)))


def _cmd_adaptive(args) -> int:
    report = _compare(args, args.target, args.sigma, ("rboosting_adaptive", "rboosting"))
    rows, table = [], []
    for method, s in report.algorithms.items():
        name = "rboosting_ideal" if method == "rboosting" else method  # the oracle's u, beside the one from data
        rows += _trial_rows(args.target, args.sigma, name, s)
        u_mean, u_std = selected_u_stats(s)
        table.append([name, f"{s.rmse_mean:.4f}", f"{s.rmse_std:.4f}", f"{u_mean:.1f}", f"{u_std:.1f}"])
    text = format_aligned(["algorithm", "mean_rmse", "std_rmse", "mean_u", "std_u"], table)
    config = _bench_config(args, target=args.target, sigma=args.sigma)
    return _finish(args, text, config, "adaptive.csv", _TRIAL_COLUMNS, list(zip(*rows)))


def _cmd_fit(args) -> int:
    algorithm = _ALGO_ALIASES[args.algo]
    positive_int(args.u, "u")  # every algorithm records u in the model meta, so every one checks it
    data = load_csv(args.data, _schema_from_args(args))
    config = TrainConfig(
        algorithm=algorithm,
        max_iterations=args.k_max,
        learner_spec=TreeLearnerSpec(args.j),
        u=args.u,
    )
    model, trace = train(data, config)
    meta = {
        "algorithm": algorithm,
        "u": args.u,
        "n_splits": args.j,
        "k_max": args.k_max,
        "clip_bound": args.clip,
        "stages": len(model),
        "train_rows": data.m,
        "manifest": "manifest.json",
    }
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.json")
    save_model(model, model_path, meta)
    _write_manifest(args, {**meta, "data": os.path.basename(args.data), "seed": args.seed}, ["model.json"])
    final_risk = float(trace.risk[-1]) if len(trace) else inner(data.targets, data.targets)
    print(f"fit {algorithm}: {len(model)} stages, training rmse {np.sqrt(final_risk):.6g}, model at {model_path}")
    return 0


def _cmd_predict(args) -> int:
    model, meta = load_model(args.model)
    schema = _schema_from_args(args)
    d = model.stages[0].learner.n_features if model.stages else None  # a loaded stage is a tree
    matrix = load_feature_matrix(args.data, schema, n_features=d)  # a d+1th column is the target
    if d is not None and matrix.shape[1] != d:
        raise ValueError(f"model expects {d} feature columns, file has {matrix.shape[1]}")
    clip_bound = args.clip if args.clip is not None else meta.get("clip_bound")
    preds = model.predict(matrix, clip_bound=clip_bound)
    if not args.out:
        write_columns(sys.stdout, [preds])
        return 0
    config = {"model": os.path.basename(args.model), "data": os.path.basename(args.data)}
    return _finish(args, "", config, "predictions.csv", ["prediction"], [preds])  # --out prints nothing


def _cmd_realdata(args) -> int:
    schema = _schema_from_args(args)
    grid = _parse_grid(args.grid)
    if args.pre_split and args.data:
        raise ValueError("pass a data CSV or --pre-split TRAIN TEST, not both")
    if args.pre_split:
        inputs = {"pre_split": load_csv_pair(*args.pre_split, schema)}
    elif args.data:
        inputs = {"data": load_csv(args.data, schema)}
    else:
        raise ValueError("pass a data CSV or --pre-split TRAIN TEST")
    report = realdata_experiment(
        **inputs, k_max=args.k_max, grid=grid, n_splits=args.j, seed=args.seed, clip_bound=args.clip
    )
    cols = ["algorithm", "test_rmse", "selected_u", "selected_k", "train_m", "test_m"]
    rows = [
        [name, out.test_rmse, out.selected.get("u", ""), out.selected.get("k", ""), report.train_m, report.test_m]
        for name, out in report.methods.items()
    ]
    table = [[r[0], f"{r[1]:.4f}", r[2], r[3]] for r in rows]
    config = {
        "k_max": args.k_max, "grid": args.grid, "j": args.j, "seed": args.seed,
        "clip": args.clip,
        "data": os.path.basename(args.data) if args.data else None,
        "pre_split": [os.path.basename(p) for p in args.pre_split] if args.pre_split else None,
    }
    text = format_aligned(["algorithm", "test_rmse", "selected_u", "selected_k"], table)
    return _finish(args, text, config, "realdata.csv", cols, list(zip(*rows)))


def _cmd_report(args) -> int:
    for path in args.rows:
        columns, rows = read_delimited(path)
        print(format_aligned(columns, rows), end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rboost", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"rboost {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="oracle-selection comparison on synthetic targets")
    p.add_argument("--target", type=int, nargs="+", default=[3], choices=range(1, 10))
    p.add_argument("--sigma", type=float, nargs="+", default=[0.0])
    p.add_argument("--algo", choices=["boost", "rboost", "ddr", "all"], default="all")
    _add_bench_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    for name, handler, text in (
        ("ucurve", _cmd_ucurve, "test RMSE across the u grid"),
        ("adaptive", _cmd_adaptive, "validation-based u selection vs the oracle"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--target", type=int, default=4, choices=range(1, 10))
        p.add_argument("--sigma", type=float, default=0.5)
        _add_bench_flags(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("fit", help="train on a CSV file and persist the model")
    p.add_argument("data")
    p.add_argument("--algo", choices=["boost", "rboost", "ddr"], default="rboost")
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--j", type=int, default=4)
    p.add_argument("--k-max", type=int, default=500)
    p.add_argument("--clip", type=_clip_bound, default=None, metavar="M")
    p.add_argument("--out", default=".", metavar="DIR")
    _add_schema_flags(p)
    p.set_defaults(handler=_cmd_fit, seed=0)  # training draws nothing at random

    p = sub.add_parser("predict", help="emit predictions for a CSV file")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--clip", type=_clip_bound, default=None, metavar="M")
    p.add_argument("--out", default=None, metavar="DIR")
    _add_schema_flags(p)
    p.set_defaults(handler=_cmd_predict, seed=0)  # prediction draws nothing at random

    p = sub.add_parser("realdata", help="half/half protocol on a tabular dataset")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--pre-split", nargs=2, metavar=("TRAIN", "TEST"), default=None)
    _add_run_flags(p)
    _add_schema_flags(p)
    p.set_defaults(handler=_cmd_realdata, j=1)  # stumps

    p = sub.add_parser("report", help="render stored result rows as aligned tables")
    p.add_argument("rows", nargs="+")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        args.command_echo = ["rboost", *argv]
        return args.handler(args)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code) if exc.code is not None else 0
    except Exception as exc:
        print(f"rboost: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
