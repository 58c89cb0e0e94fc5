"""Acceptance gate: one test per headline guarantee, each printing a
single pass/fail line.  Every comparison is exact; there are no
tolerances anywhere in this file.

Criterion 6 checks linear independence of the weight-bounded monomial
family exactly as stated, at the stated truncation depth.  The family
is provably dependent there (see the failure detail for the counting
argument), so that test fails; the same family certifies independent
two degrees deeper.  The check is kept faithful rather than weakened.
"""

import math
import sys
from fractions import Fraction

from conftest import ACCEPTANCE_LINES

from qschur import linalg
from qschur.config import RunConfig
from qschur.hecke import distinguished_reps
from qschur.matrices import theta_matrices
from qschur.presentation import pbw_family, pbw_monomial
from qschur.suites import run_suite

SEED = 20260816


def report(num, ok, detail):
    line = f"[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)
    return ok


def cfg(n, **kw):
    kw.setdefault("seed", SEED)
    kw.setdefault("random_instances", 200)
    return RunConfig(n=n, **kw)


def test_criterion_1_binomial_identities():
    rep = run_suite("binomials", cfg(2))
    ok = report(
        1,
        rep["passed"],
        f"scalar and vector binomial identities, {rep['instances']} instances, "
        f"{rep['failure_count']} failures",
    )
    assert ok, rep["failures"][:3]


def test_criterion_2_structured_transfers_against_the_oracle():
    total, fails = 0, 0
    for n in (2, 3):
        rep = run_suite("transfer-formulas", cfg(n))
        total += rep["instances"]
        fails += rep["failure_count"]
    ok = report(
        2,
        fails == 0,
        f"one-row transfer formulas vs coset oracle, ranks 2 and 3 through "
        f"degree 4, {total} instances, {fails} failures",
    )
    assert ok


def test_criterion_3_symbolic_multiplication_formulas():
    total, fails = 0, 0
    for suite in ("formula1", "formula2"):
        for n in (2, 3):
            rep = run_suite(suite, cfg(n))
            total += rep["instances"]
            fails += rep["failure_count"]
    ok = report(
        3,
        fails == 0,
        f"torus and transfer product formulas vs truncated products, "
        f"exhaustive cores plus seeded random instances, {total} instances, "
        f"{fails} failures",
    )
    assert ok


def test_criterion_4_defining_relations():
    total, fails = 0, 0
    for n in (2, 3):
        rep = run_suite("relations", cfg(n, r_max=5))
        total += rep["instances"]
        fails += rep["failure_count"]
    ok = report(
        4,
        fails == 0,
        f"defining relations in the truncated realization through degree 5, "
        f"{total} instances, {fails} failures",
    )
    assert ok


def test_criterion_5_triangular_expansion():
    total, fails = 0, 0
    for n in (2, 3):
        rep = run_suite("triangular", cfg(n))
        total += rep["instances"]
        fails += rep["failure_count"]
    ok = report(
        5,
        fails == 0,
        f"triangular products have unit leading term and strictly smaller "
        f"lower terms, {total} matrices, {fails} failures",
    )
    assert ok


def test_criterion_6_monomial_family_independence_as_stated():
    # family: weight bound 3, exponent vectors in {0,1}^2, rank 2,
    # realized through degree 6, checked by exact evaluation rank
    n, bound, r_max = 2, 3, 6
    family = pbw_family(n, bound)
    rows, _ = linalg.flatten_family(
        [pbw_monomial(idx, r_max) for idx in family]
    )
    best = max(linalg.rank_at_point(rows, Fraction(x)) for x in (2, 3, 5, 7))
    independent = best == len(rows)

    # diagnostic: the same family two degrees deeper
    rows8, _ = linalg.flatten_family(
        [pbw_monomial(idx, r_max + 2) for idx in family]
    )
    rank8 = linalg.rank_at_point(rows8, Fraction(2))

    detail = (
        f"monomial family (bound {bound}, rank {n}) at depth {r_max}: "
        f"rank {best} of {len(rows)}"
    )
    if not independent:
        detail += (
            "; dependent as stated: 40 torus-only members meet only 28 "
            "diagonal columns through degree 6 and each strict-triangular "
            "block loses 3 more (24 members vs 21 columns), forcing a "
            f"deficit of 18; at depth {r_max + 2} the family has full rank "
            f"{rank8} of {len(rows)}"
        )
    ok = report(6, independent, detail)
    assert ok, detail


def test_criterion_7_root_of_unity_specialization():
    total, fails = 0, 0
    for l in (1, 3):
        for n in (2, 3):
            rep = run_suite("specialization", cfg(n, l=l))
            total += rep["instances"]
            fails += rep["failure_count"]
    ok = report(
        7,
        fails == 0,
        f"torus powers trivialize and the specialized family stays "
        f"independent at orders 1 and 3, ranks 2 and 3, {total} instances, "
        f"{fails} failures",
    )
    assert ok


def test_criterion_8_dimension_counts():
    def compositions_of(r, n):
        if n == 1:
            return [(r,)]
        return [
            (f,) + rest
            for f in range(r + 1)
            for rest in compositions_of(r - f, n - 1)
        ]

    checked = 0
    ok = True
    for n in (2, 3):
        for r in range(5):
            want = math.comb(n * n + r - 1, r)
            basis = len(theta_matrices(n, r))
            cosets = sum(
                len(distinguished_reps(lam, mu))
                for lam in compositions_of(r, n)
                for mu in compositions_of(r, n)
            )
            checked += 1
            if not (want == basis == cosets):
                ok = False
    ok = report(
        8,
        ok,
        f"basis size equals double coset count equals the stars-and-bars "
        f"formula for ranks 2 and 3 through degree 4 ({checked} pairs)",
    )
    assert ok
