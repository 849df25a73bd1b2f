#!/usr/bin/env python3
"""Write tests/golden.json: what the acceptance tests C3-C8 must reproduce bit for bit.

    python3 tools/make_golden.py

Run it from anywhere, at the commit whose outputs are the reference. It
stores the report digest of each of C3-C7 and the files of every C8 case,
made by the same code the tests run (tests/test_acceptance.py). Like
perfbench/reference.json, the digests depend on the numeric stack; a
change that alters results on purpose regenerates the file and says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acceptance  # noqa: E402


def main():
    golden = {}
    for criterion, make_report in acceptance.REPORTS.items():
        golden[criterion] = acceptance.report_digest(make_report())
        print(f"{criterion}: {golden[criterion]}", flush=True)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        golden["C8"] = {name: acceptance.c8_files(Path(tmp) / name, args) for name, args, _ in acceptance.C8_CASES}
    print(f"C8: {len(golden['C8'])} cases")
    acceptance.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
