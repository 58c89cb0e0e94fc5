#!/usr/bin/env python3
"""Run every verification suite across the desk-scale configurations
and print one line per run plus a final verdict.

This is the script form of the acceptance gate in
tests/test_acceptance.py; use it when you want the full sweep without
pytest in the way.  Exit code 0 means every run passed, 1 that some
run failed, and 2 that an option is out of range (say `--threads 0`),
which is reported before any suite runs.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qschur.config import RunConfig
from qschur.errors import DomainError
from qschur.suites import SUITE_NAMES, run_suite

RUNS = (
    ("binomials", {"n": 2}),
    ("transfer-formulas", {"n": 2}),
    ("transfer-formulas", {"n": 3}),
    ("formula1", {"n": 2}),
    ("formula1", {"n": 3}),
    ("formula2", {"n": 2}),
    ("formula2", {"n": 3}),
    ("relations", {"n": 2, "r_max": 5}),
    ("relations", {"n": 3, "r_max": 5}),
    ("triangular", {"n": 2}),
    ("triangular", {"n": 3}),
    ("pbw-independence", {"n": 2, "bound": 2}),
    ("specialization", {"n": 2, "l": 1}),
    ("specialization", {"n": 2, "l": 3}),
    ("specialization", {"n": 3, "l": 1}),
    ("specialization", {"n": 3, "l": 3}),
    ("closure", {"n": 2}),
    ("closure", {"n": 3}),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260816)
    parser.add_argument("--random-instances", type=int, default=200)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument(
        "--suite", choices=SUITE_NAMES, default=None,
        help="restrict the sweep to one suite",
    )
    args = parser.parse_args()
    runs = [
        (name, overrides, RunConfig(
            seed=args.seed,
            random_instances=args.random_instances,
            threads=args.threads,
            **overrides,
        ))
        for name, overrides in RUNS
        if not args.suite or name == args.suite
    ]
    try:
        for _, _, cfg in runs:
            cfg.validate()
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2

    failed = 0
    grand = 0
    t_all = time.monotonic()
    for name, overrides, cfg in runs:
        t0 = time.monotonic()
        rep = run_suite(name, cfg)
        dt = time.monotonic() - t0
        grand += rep["instances"]
        status = "pass" if rep["passed"] else "FAIL"
        knobs = " ".join(f"{k}={v}" for k, v in overrides.items())
        print(
            f"{status:4} {name:18} {knobs:16} "
            f"{rep['instances']:>7} instances  {dt:7.1f}s"
        )
        if not rep["passed"]:
            failed += 1
            for f in rep["failures"][:3]:
                print(f"      {f}")
    total_dt = time.monotonic() - t_all
    print(f"\n{grand} instances in {total_dt:.0f}s; {failed} failing runs")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
