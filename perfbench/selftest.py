#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

1. For every workload, run one round clean and one round with the first
   result corrupted inside the benchmark (a unit term added, the way
   `inject_failure` does; the suite-sweep round sets `inject_failure`
   itself).  The clean round must pass, and the corrupted one must
   show failed operations and a different output digest.
2. Calibrate degree-sweep's oracle-free check: at degree <= 6 the two
   associations x.(y.z) and (x.y).z, computed with the structured
   rules, must equal both associations computed by the coset oracle.
3. Check that formula-box's sub-boxes follow the formula suites'
   enumeration order.

Exits 0 when every check holds.  Run from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from run import ROOT, spawn  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

# Prefixes of the operation lists, long enough to cover every kind of
# operation and short enough to keep the test under a minute.
SUBSET = {"formula-box": 300, "degree-sweep": 4, "oracle": 6, "suite-sweep": 2}
SEED = 7


def gate_catches_corruption() -> list[str]:
    problems = []
    for workload in inputs.WORKLOADS:
        ops = inputs.make_ops(workload, SEED, 2)[: SUBSET[workload]]
        digests = {}
        for corrupt in (False, True):
            req = {"workload": workload, "ops": ops, "trace": False, "corrupt": corrupt}
            _, reply = spawn([], json.dumps(req))
            failed = sum(1 for ok in reply["ok"] if not ok)
            digests[corrupt] = reply["digest"]
            print(f"{workload:13} corrupt={corrupt!s:5} error_rate={failed / len(ops):.3f} digest={reply['digest'][:16]}")
            if corrupt and failed == 0:
                problems.append(f"{workload}: corrupted round reported no failure")
            if not corrupt and failed:
                problems.append(f"{workload}: clean round failed: {reply['errors']}")
        if digests[False] == digests[True]:
            problems.append(f"{workload}: corruption did not change the digest")
    return problems


# (n, r, row sums of z, kind, h, m_y, m_x) with every transfer in range.
CALIBRATION = (
    (2, 4, (2, 2), "E", 1, 1, 1),
    (2, 5, (2, 3), "F", 1, 1, 1),
    (2, 6, (3, 3), "E", 1, 1, 1),
    (2, 6, (4, 2), "F", 1, 2, 1),
    (3, 5, (2, 2, 1), "E", 1, 1, 1),
    (3, 6, (2, 2, 2), "F", 2, 1, 1),
    (3, 6, (1, 2, 3), "E", 2, 1, 1),
)


def associativity_matches_oracle() -> list[str]:
    from qschur.cli import parse_element
    from qschur.schur import force_oracle_product, general_product

    problems = []
    rng = random.Random(SEED)
    for n, r, rows, kind, h, m_y, m_x in CALIBRATION:
        for _ in range(3):
            tables = inputs._tables(rows, rng.choice(inputs.compositions(n, r)))
            z = [(rng.choice(tables), inputs._coeff(rng, 2)) for _ in range(2)]
            y = inputs._transfer_matrix(kind, h, m_y, list(rows))
            x = inputs._transfer_matrix(kind, h, m_x, [sum(row) for row in y])
            ex = parse_element(inputs._element(n, r, [(x, inputs._coeff(rng, 1))]))
            ey = parse_element(inputs._element(n, r, [(y, inputs._coeff(rng, 1))]))
            ez = parse_element(inputs._element(n, r, z))
            p1 = general_product(ex, general_product(ey, ez))
            p2 = general_product(general_product(ex, ey), ez)
            o1 = force_oracle_product(ex, force_oracle_product(ey, ez))
            o2 = force_oracle_product(force_oracle_product(ex, ey), ez)
            if not (p1 == p2 == o1 == o2):
                problems.append(f"associativity disagrees with the oracle at n={n} r={r}")
            if p1.is_zero():
                problems.append(f"calibration product is zero at n={n} r={r}")
    print(f"associativity vs oracle: {len(CALIBRATION) * 3} triples at r <= 6")
    return problems


def boxes_follow_suite_order() -> list[str]:
    from qschur.config import RunConfig
    from qschur.suites import _STRATA

    def key(inst):
        return json.dumps(inst)  # tuples and lists serialize alike

    problems = []
    rng = random.Random(SEED)
    for name, make in (("formula1", inputs.formula1_box), ("formula2", inputs.formula2_box)):
        for n in (2, 3):
            box = [key(inst) for inst in make(n, rng)]
            suite = iter(key(inst) for inst in _STRATA[f"{name}:core"][0](RunConfig(n=n)))
            if not all(any(want == got for got in suite) for want in box):
                problems.append(f"{name} n={n}: sub-box is not in suite order")
    print("formula-box sub-boxes checked against the suite enumeration")
    return problems


def main() -> int:
    problems = gate_catches_corruption() + associativity_matches_oracle() + boxes_follow_suite_order()
    for p in problems:
        print("FAIL", p)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
