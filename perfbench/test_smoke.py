"""Fast smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced, that a perturbed program output
is counted as a failed op, and that a traced function missing from the
program stops the run.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    lines = _run_tiny(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for name, unit in emitted.items():  # the report before the JSON prints each metric by name and unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]), name
    assert any(line.startswith("error_rate") for line in lines[:-1])


@pytest.fixture
def serve_state(tmp_path):
    run.load_program()
    import workloads

    workload = workloads.WORKLOADS["serve_100k"]
    return workload, workload.setup(5, "tiny", tmp_path)


def test_perturbed_predictions_count_against_error_rate(serve_state):
    workload, state = serve_state

    def op_then_perturb(state):
        output = workload.op(state)
        path = state["predictions"]
        text = path.read_text().splitlines(keepends=True)
        value = float(text[3])  # first prediction, after two comment lines and the header
        text[3] = repr(value + abs(value) * 1e-9 + 1e-12) + "\n"
        path.write_text("".join(text))
        return output

    ops, _, _ = run.measure(replace(workload, op=op_then_perturb), state, 0.5, trace=0)
    assert ops and all(op["problems"] == ["1 predictions differ from the in-memory Ensemble.predict"] for op in ops)


def test_output_that_differs_from_the_reference_counts_as_failed(serve_state):
    workload, state = serve_state
    ops, _, _ = run.measure(workload, state, 0.5, trace=0, expected="0" * 64)
    assert ops and all(op["problems"] == [f"output digest {op['digest'][:16]} differs from the expected {'0' * 16}"] for op in ops)


def test_a_missing_layer_function_fails_loudly():
    run.load_program()
    import rboost.boosters
    import tracing

    original = rboost.boosters.train
    layer = replace(tracing.TRAIN, attrs=tracing.TRAIN.attrs + ("train_renamed_away",))
    with pytest.raises(LookupError, match="train_renamed_away"):
        with tracing.Tracer([layer]):
            pass
    assert rboost.boosters.train is original
