import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from qschur.laurent import LaurentPoly, V, v_power
from qschur.linalg import (
    exact_rank,
    flatten_family,
    independence_verdict,
    poly_kernel,
    rank_at_point,
)
from qschur.cyclo import CycloScalar, cyclotomic_coeffs, eval_at_root


def row(entries):
    return {
        i: LaurentPoly.from_pairs(pairs)
        for i, pairs in entries.items()
    }


def test_independent_family_certified_by_evaluation():
    rows = [row({0: [(0, 1)]}), row({1: [(1, 1)]}), row({0: [(0, 1)], 2: [(0, 1)]})]
    verdict = independence_verdict(rows)
    assert verdict["independent"]
    assert verdict["rank"] == 3
    assert verdict["certified_at"] is not None


def test_scalar_multiple_is_dependent_with_checked_kernel():
    # second row is v times the first: kernel (v, -1) has polynomial
    # coordinates, invisible to any single-point rank
    rows = [
        row({0: [(0, 1)], 1: [(1, 1)]}),
        row({0: [(1, 1)], 1: [(2, 1)]}),
    ]
    verdict = independence_verdict(rows)
    assert not verdict["independent"]
    assert verdict["rank"] == 1
    assert len(verdict["kernel"]) == 1


def test_point_kernel_is_not_taken_at_face_value():
    # rows (1, v) and (v, v^2 + 1) are independent over the field but
    # drop rank at no rational point only when checked symbolically;
    # a correct verdict must stay independent
    rows = [
        row({0: [(0, 1)], 1: [(1, 1)]}),
        row({0: [(1, 1)], 1: [(2, 1), (0, 1)]}),
    ]
    verdict = independence_verdict(rows)
    assert verdict["independent"]


def test_rank_at_point_matches_fraction_elimination():
    rows = [
        row({0: [(0, 1)], 1: [(0, 2)]}),
        row({0: [(0, 2)], 1: [(0, 4)]}),
        row({2: [(0, 5)]}),
    ]
    assert rank_at_point(rows, Fraction(2)) == 2


def test_poly_kernel_verifies_certificates():
    rows = [
        row({0: [(0, 1)]}),
        row({0: [(2, 1)]}),
    ]
    kernel = poly_kernel(rows, 2)
    assert kernel
    for combo in kernel:
        # substitute back: sum_i combo_i * row_i must vanish
        acc = {}
        for c, r in zip(combo, rows):
            for col, val in r.items():
                acc[col] = acc.get(col, LaurentPoly.from_int(0)) + c * val
        assert all(x.is_zero() for x in acc.values())


def test_empty_family_is_independent():
    verdict = independence_verdict([])
    assert verdict["independent"]
    assert verdict["rank"] == 0


def test_flatten_family_indexes_by_degree_and_matrix():
    from qschur.symbolic import SymbolicElement

    els = [
        SymbolicElement.gen(((0, 1), (0, 0)), (0, 0), (0, 0)).realize_truncated(2),
        SymbolicElement.gen(((0, 0), (1, 0)), (0, 0), (0, 0)).realize_truncated(2),
    ]
    rows, ncols = flatten_family(els)
    assert len(rows) == 2
    assert ncols >= 2
    assert all(rows[0].keys() != rows[1].keys() for _ in (0,))


def test_exact_rank_over_the_cyclotomic_field():
    l = 3
    one = CycloScalar.one(l)
    eps = eval_at_root(V, l)
    rows = [
        {0: one, 1: eps},
        {0: eps, 1: eps * eps},
        {2: one},
    ]
    # second row is eps times the first over the field
    assert exact_rank(rows) == 2


# -- reference: Gaussian elimination over the rationals -------------------------


def reference_eliminate(rows, want_kernel=False):
    """Textbook elimination that divides by each pivot, over Fraction;
    with want_kernel, each row that reduces to zero is reported as a
    dense rational combination of the original rows."""
    m = len(rows)
    pivots = {}
    kernel = []
    for i, row in enumerate(rows):
        cur = {c: Fraction(val) for c, val in row.items() if val}
        combo = [Fraction(0)] * m if want_kernel else []
        if want_kernel:
            combo[i] = Fraction(1)
        while cur:
            col = min(cur)
            if col not in pivots:
                pivots[col] = (cur, combo)
                break
            prow, pcombo = pivots[col]
            factor = cur[col] / prow[col]
            nxt = {c: val for c, val in cur.items() if c != col}
            for c, val in prow.items():
                if c != col:
                    s = nxt.get(c, Fraction(0)) - factor * val
                    if s:
                        nxt[c] = s
                    else:
                        nxt.pop(c, None)
            if want_kernel:
                combo = [ck - factor * pk for ck, pk in zip(combo, pcombo)]
            cur = nxt
        if not cur and want_kernel:
            kernel.append(combo)
    return len(pivots), kernel


def reference_poly_kernel(rows, depth):
    """The degree-bounded kernel through the rational solve, each
    solution scaled to primitive integers."""
    unknown_rows = []
    eq_index = {}
    for i in range(len(rows)):
        for d in range(depth + 1):
            entries = {}
            for col, p in rows[i].items():
                for e, a in p.to_pairs():
                    eq = eq_index.setdefault((col, e + d), len(eq_index))
                    entries[eq] = entries.get(eq, 0) + a
            unknown_rows.append(entries)
    out = []
    for combo in reference_eliminate(unknown_rows, want_kernel=True)[1]:
        den = lcm(*(c.denominator for c in combo))
        ints = [int(c * den) for c in combo]
        g = gcd(*ints)
        out.append(
            [
                LaurentPoly({d: c // g for d, c in enumerate(ints[i : i + depth + 1])})
                for i in range(0, len(ints), depth + 1)
            ]
        )
    return out


def random_laurent(rng, lo, hi, terms):
    return LaurentPoly.from_pairs(
        (rng.randint(lo, hi), rng.randint(-4, 4)) for _ in range(terms)
    )


def random_family(rng, independent, dependent, cols):
    """Sparse Laurent rows, then rows that are Laurent combinations of
    them with polynomial multipliers of degree at most 1, shuffled."""
    rows = [
        {c: p for c in rng.sample(range(cols), rng.randint(1, 3))
         if not (p := random_laurent(rng, -2, 2, 2)).is_zero()}
        for _ in range(independent)
    ]
    for _ in range(dependent):
        acc = {}
        for base in rng.sample(rows, 2):
            q = random_laurent(rng, 0, 1, 2)
            for c, p in base.items():
                acc[c] = acc.get(c, LaurentPoly.from_int(0)) + q * p
        rows.append({c: p for c, p in acc.items() if not p.is_zero()})
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_integer_rank_matches_the_rational_reference(seed):
    rng = random.Random(seed)
    base = [
        {c: rng.randint(-9, 9) for c in rng.sample(range(8), rng.randint(1, 4))}
        for _ in range(6)
    ]
    dependent = [
        {c: sum(rng.randint(-3, 3) * r.get(c, 0) for r in base[:3]) for c in range(8)}
        for _ in range(3)
    ]
    rows = base + dependent
    rng.shuffle(rows)
    assert exact_rank(rows) == reference_eliminate(rows)[0]


@pytest.mark.parametrize("seed", range(8))
def test_poly_kernel_matches_the_rational_reference(seed):
    rng = random.Random(seed)
    rows = random_family(rng, independent=4, dependent=2, cols=5)
    for depth in (0, 1, 2):
        got = [[c.to_pairs() for c in combo] for combo in poly_kernel(rows, depth)]
        want = [
            [c.to_pairs() for c in combo]
            for combo in reference_poly_kernel(rows, depth)
        ]
        # equal as written: the same basis, in the same order and signs
        assert got == want


@pytest.mark.parametrize("x", [Fraction(2, 3), Fraction(-5, 4)])
@pytest.mark.parametrize("seed", range(4))
def test_rank_at_a_fraction_matches_the_rational_reference(seed, x):
    rows = random_family(random.Random(seed), independent=4, dependent=2, cols=5)
    evaluated = [{c: p.evaluate(x) for c, p in row.items()} for row in rows]
    assert rank_at_point(rows, x) == reference_eliminate(evaluated)[0]


@pytest.mark.parametrize("l", [1, 3, 5, 9, 15])
def test_cyclotomic_rank_is_the_integer_rank_over_the_degree(l):
    # rows R over Z[eps] span a space of dimension k over Q(eps), so the
    # rows eps^s R, s < d = deg Phi_l, span one of dimension d k over Q
    # in the coordinates of the integral basis 1, eps, ..., eps^(d-1)
    rng = random.Random(l)
    d = len(cyclotomic_coeffs(l)) - 1

    def scalar():
        return CycloScalar(l, tuple(rng.randint(-3, 3) for _ in range(d)))

    rows = [{c: scalar() for c in rng.sample(range(4), rng.randint(1, 3))} for _ in range(3)]
    for _ in range(2):
        a, b = scalar(), scalar()
        rows.append(
            {c: a * rows[0].get(c, CycloScalar.zero(l)) + b * rows[1].get(c, CycloScalar.zero(l))
             for c in range(4)}
        )
    expanded = [
        {c * d + k: x for c, val in row.items() for k, x in enumerate((val * v_power(s)).coeffs)}
        for s in range(d)
        for row in rows
    ]
    assert exact_rank(rows) * d == reference_eliminate(expanded)[0]
