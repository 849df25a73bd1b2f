#!/usr/bin/env python3
"""Write reference.json: the digest of one full-size op per workload and seed.

    python3 perfbench/make_reference.py

Run it at the commit whose outputs are the reference. Every later commit
must reproduce these digests bit for bit on SEEDS; a change that alters
results on purpose regenerates the file and says why.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(11)


def main():
    run.load_program()
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            workdir = run.OUT / f"reference-{name}-seed{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                state = workload.setup(seed, "full", workdir)
                ops, _, _ = run.measure(workload, state, 0, trace=0)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            problems = ops[0]["problems"]
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = ops[0]["digest"]
            print(f"{name} seed {seed}: {ops[0]['digest']} ({ops[0]['wall_s']:.1f} s)", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
