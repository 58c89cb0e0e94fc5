#!/usr/bin/env python3
"""Record the output digests that perfbench/run.py checks runs against.

    python3 perfbench/golden.py 0 20                # seeds 0..20, every workload
    python3 perfbench/golden.py 0 20 oracle         # only the named workloads

Runs one untraced round per workload and seed and writes the digest of
its emitted results to perfbench/golden.json, replacing the entries of
the workloads it runs.  The digests pin the
program's output bytes: a later change that alters any emitted result
makes run.py count the round as failed.  Re-record only when a change
to the benchmark's inputs is intended to change them.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from inputs import WORKLOADS, make_ops  # noqa: E402
from run import GOLDEN, nproc, spawn  # noqa: E402


def main() -> int:
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    workloads = sys.argv[3:] or WORKLOADS
    golden: dict = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    for workload in workloads:
        golden[workload] = {}
        for seed in range(lo, hi + 1):
            req = {"workload": workload, "ops": make_ops(workload, seed, nproc()), "trace": False, "corrupt": False}
            _, reply = spawn([], json.dumps(req))
            if not all(reply["ok"]):
                sys.stderr.write(f"{workload} seed {seed}: failed operations, not recorded\n")
                return 1
            golden[workload][str(seed)] = reply["digest"]
            print(workload, seed, reply["digest"][:16], flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
