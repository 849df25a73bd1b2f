"""The verdicts of tools/check_reference.py on canned benchmark output (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_reference.py"
_SPEC = importlib.util.spec_from_file_location("check_reference", _PATH)
check_reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_reference)

DIGEST = "6a5f8c21d4447a33" + "0" * 48


def _stdout(failed=0, attempted=1, problems=()):
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    lines = ["# workload table_d10 (full), seed 0: 1 ops in a closed loop", "wall_s   2.0 s"]
    lines += [f"# op {i} failed: {problem}" for i, problem in enumerate(problems)]
    return "\n".join(lines + [json.dumps(result)]) + "\n"


def test_a_run_whose_ops_all_pass_passes():
    assert check_reference.verdict(0, _stdout(), DIGEST) == (True, "1 op(s), digest 6a5f8c21d4447a33")


def test_a_digest_that_differs_fails_with_the_reason():
    problem = f"output digest 0123456789abcdef differs from the expected {DIGEST[:16]}"
    passed, detail = check_reference.verdict(0, _stdout(failed=1, problems=[problem]), DIGEST)
    assert not passed
    assert detail == f"1 of 1 ops failed; op 0 failed: {problem}"


def test_a_pair_without_a_reference_digest_fails():
    assert check_reference.verdict(0, _stdout(), None) == (False, "no reference digest")


def test_a_run_that_crashed_fails():
    assert check_reference.verdict(2, "", DIGEST) == (False, "run.py exited with status 2")
    assert check_reference.verdict(2, _stdout(), DIGEST) == (False, "run.py exited with status 2")


def test_it_checks_seeds_0_to_10():
    assert list(check_reference.SEEDS) == list(range(11))
