#!/usr/bin/env python3
"""The rboost benchmark: one workload, measured in a closed loop, with checked outputs.

    python3 perfbench/run.py --workload table_d10 --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory. One process, one client: each op starts when the
previous one has finished and been checked. A new op starts until
``--seconds`` have passed, so a run makes at least one op and ends after
at most ``--seconds`` plus one op. Training runs with
``workers=1`` and BLAS/OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. Only the
training entry points are wrapped, to split each op into time spent
training (fit_s) and the rest (predict_s) and to count rounds.
``--trace 1`` alternates untraced and traced ops (at least three, starting
and ending untraced), reports the per-layer metrics of the traced ones and
the traced ops' overhead against the untraced ones, and writes the spans out.

The last line of stdout is the result as one JSON object; the lines
before it print every metric by name with its unit, and the environment.
A fuller record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5

# The program's share of set-up: a fresh interpreter importing it, entry point included.
_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import rboost, rboost.cli"


def load_program():
    """Pin BLAS/OpenMP to one thread and import rboost from this checkout's src."""
    if not (SRC / "rboost" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rboost sources under {SRC}: run the benchmark from a checkout of the repository")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import rboost

    if Path(rboost.__file__).resolve().parent != SRC / "rboost":
        raise ImportError(f"imported rboost from {rboost.__file__}, not from {SRC}")
    return rboost


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def set_up(workload, seed, size, workdir):
    """Make the inputs; returns (state, seconds of each of SETUP_REPEATS program set-ups).

    Only the program's set-up is timed: a fresh interpreter importing it.
    Making the inputs is the benchmark's own work, which no program change
    can move, so it is left out of setup_s.
    """
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child every 50 ms and the
        # time reads in 50 ms steps.
        subprocess.run([sys.executable, "-c", _IMPORT, str(SRC)], check=True)
        seconds.append(time.perf_counter() - start)
    return workload.setup(seed, size, workdir), seconds


def measure(workload, state, seconds, trace, expected=None):
    """Start ops in a closed loop until ``seconds`` have passed; check each one.

    ``expected`` is the reference digest of this workload and seed, when
    one is stored; otherwise every op must reproduce the first op's digest.
    Returns (ops, full tracer or None, peak RSS in MB before the
    post-loop check); an op failed when its problems are non-empty.
    """
    import tracing

    phase = tracing.Tracer([tracing.TRAIN])
    full = tracing.Tracer(tracing.LAYERS) if trace else None
    ops = []
    output = None
    loop_start = time.perf_counter()
    with phase:
        while True:
            i = len(ops)
            traced = trace and i % 2 == 1
            phase.op = i
            if full is not None:
                full.op = i
            start = time.perf_counter()
            wall = None
            try:
                with full if traced else contextlib.nullcontext():
                    output = workload.op(state)
                wall = time.perf_counter() - start
                digest, problems = workload.check(state, output)
            except Exception as exc:  # an op or check that raises fails the op; the loop goes on
                wall = wall or time.perf_counter() - start
                digest, problems = "", [f"{type(exc).__name__}: {exc}"]
            if expected is None and not problems:
                expected = digest
            if digest != expected and not problems:
                problems.append(f"output digest {digest[:16]} differs from the expected {str(expected)[:16]}")
            ops.append({
                "wall_s": wall,
                "fit_s": phase.op_seconds(i, tracing.TRAIN.name),
                "rounds": phase.counts[(i, tracing.TRAIN.name)]["rounds"],
                "traced": traced,
                "digest": digest,
                "problems": problems,
            })
            # A traced run needs untraced ops on both sides of a traced one, so
            # that a drift in machine speed does not read as tracing overhead.
            enough = len(ops) >= (3 if trace else 1)
            if enough and time.perf_counter() - loop_start >= seconds:
                break
    peak_rss_mb = _rss_mb()
    try:
        verify_problems = workload.verify(state, output, phase) if output is not None else []
    except Exception as exc:
        verify_problems = [f"verify raised {type(exc).__name__}: {exc}"]
    for op in ops:  # every op reproduced the verified output, so a verify failure fails them all
        op["problems"].extend(verify_problems)
    return ops, full, peak_rss_mb


def end_to_end(ops, setup_seconds, peak_rss_mb):
    plain = [op for op in ops if not op["traced"]]
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "wall_s": (statistics.median([op["wall_s"] for op in plain]), "s"),
        "fit_s": (statistics.median([op["fit_s"] for op in plain]), "s"),
        "predict_s": (statistics.median([op["wall_s"] - op["fit_s"] for op in plain]), "s"),
        "rounds_per_s": (statistics.median([op["rounds"] / op["wall_s"] for op in plain]), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(workload_name, ops, full):
    import tracing

    traced = [i for i, op in enumerate(ops) if op["traced"]]
    missing = full.missing_layers(workload_name, traced)
    if missing:
        raise RuntimeError(
            f"layers {missing} recorded no calls on {workload_name}: the program no longer calls them "
            "where the benchmark wraps them; update perfbench/tracing.py"
        )
    values = full.layer_metrics(traced)
    plain_wall = statistics.median([op["wall_s"] for op in ops if not op["traced"]])
    traced_wall = statistics.median([ops[i]["wall_s"] for i in traced])
    values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    return {name: (values[name], unit) for name, unit, _ in tracing.per_layer_metric_specs()}


def _rss_mb():
    """The process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_lines(args, workload, env, ops, metrics, setup_seconds, setup_rss_mb, failed):
    n_plain = sum(not op["traced"] for op in ops)
    lines = [
        f"# workload {workload.name} ({args.size}), seed {args.seed}: {len(ops)} ops in a closed loop, "
        f"1 client, {n_plain} untraced / {len(ops) - n_plain} traced",
        "# env " + json.dumps(env, sort_keys=True),
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:40s} {value!r:>24} {unit}")
    if not args.trace:
        walls = [op["wall_s"] for op in ops]
        named = {"table_d10": "trial_s", "realdata_stumps": "realdata_s"}.get(workload.name)
        if named:
            lines.append(f"{named:40s} {statistics.median(walls)!r:>24} s (wall_s of this workload)")
        if workload.name == "serve_100k":
            rows = workload.sizes[args.size]["score_rows"]
            rate = rows / metrics["predict_s"][0]
            lines.append(f"{'predict_rows_per_s':40s} {rate!r:>24} 1/s (rows / predict_s)")
        lines.append(f"# timings are medians of {n_plain} op(s) and {len(setup_seconds)} set-ups; "
                     "no percentile is reported: fewer than 10 samples lie beyond any")
        lines.append(f"# peak RSS was {setup_rss_mb:.1f} MB after making the inputs, "
                     "so peak_rss_mb above that comes from the ops")
    lines.append(f"{'error_rate':40s} {failed / len(ops)!r:>24} ({failed} failed / {len(ops)} attempted)")
    for i, op in enumerate(ops):
        for problem in op["problems"]:
            lines.append(f"# op {i} failed: {problem}")
    return lines


def run(args):
    load_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args)
    tag = f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        state, setup_seconds = set_up(workload, args.seed, args.size, workdir)
        setup_rss_mb = _rss_mb()
        expected = None
        if args.size == "full" and REFERENCE.is_file():
            expected = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(str(args.seed))
        ops, full, peak_rss_mb = measure(workload, state, args.seconds, args.trace, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(bool(op["problems"]) for op in ops)
    if args.trace:
        metrics = per_layer(workload.name, ops, full)
        full.write_spans(OUT / f"spans-{tag}.jsonl")
    else:
        metrics = end_to_end(ops, setup_seconds, peak_rss_mb)
    for line in _report_lines(args, workload, env, ops, metrics, setup_seconds, setup_rss_mb, failed):
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "env": env, "setup_s": setup_seconds, "setup_rss_mb": setup_rss_mb, "ops": ops}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table_d10", "realdata_stumps", "serve_100k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
