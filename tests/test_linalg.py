from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qschur.errors import ConsistencyError
from qschur.laurent import LaurentPoly, ONE, V, v_power
from qschur.linalg import (
    exact_rank,
    flatten_family,
    independence_verdict,
    poly_kernel,
    rank_at_point,
)
from qschur.cyclo import CycloScalar, eval_at_root


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
