#!/usr/bin/env python3
"""Check that every benchmark op still reproduces perfbench/reference.json, bit for bit.

    python3 tools/check_reference.py

Run from anywhere; it checks the checkout it sits in. For seeds 0-10 of
every workload in BENCHMARK.json it runs ``perfbench/run.py --seconds 0
--trace 0`` (one op each), prints one PASS or FAIL line per workload and
seed, and exits 1 if any op failed or any digest differs from the
reference. run.py fails an op whose output digest differs from the stored
one; a workload and seed with no stored digest fails here, because run.py
could then only compare the op with itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(11)


def verdict(returncode, stdout, expected):
    """(passed, detail) of one run.py run from its exit code, its stdout and the stored digest (None if absent)."""
    if expected is None:
        return False, "no reference digest"
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        return False, f"run.py exited with status {returncode}"
    result = json.loads(lines[-1])
    if result["failed"] or not result["correct"]:
        problems = [line[2:] for line in lines if line.startswith("# op ")]
        return False, f"{result['failed']} of {result['attempted']} ops failed" + "".join(f"; {p}" for p in problems)
    return True, f"{result['attempted']} op(s), digest {expected[:16]}"


def main():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    failures = 0
    for name in workloads:
        for seed in SEEDS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", "0", "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            passed, detail = verdict(run.returncode, run.stdout, reference.get(name, {}).get(str(seed)))
            failures += not passed
            print(f"{'PASS' if passed else 'FAIL'} {name} seed {seed}: {detail}", flush=True)
    print(f"{failures} of {len(workloads) * len(SEEDS)} workload/seed pairs failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
