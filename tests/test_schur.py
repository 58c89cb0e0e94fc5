import json

import pytest
from hypothesis import given, settings, strategies as st

from qschur.cli import parse_element
from qschur.errors import DimensionMismatch, DomainError
from qschur.hecke import oracle_product
from qschur.laurent import LaurentPoly, ONE, v_power
from qschur.matrices import (
    add_to_entry,
    diag_matrix,
    entry_sum,
    ro,
    theta_matrices,
    zero_matrix,
)
from qschur.schur import (
    SchurElement,
    basis_product,
    diag_mult,
    diag_sum,
    force_oracle_product,
    general_product,
    multiply_lowering,
    multiply_raising,
)

# frozen coset-oracle outputs pinning the basis product on hand-picked
# inputs; keys are (a, b), values list (matrix, pairs)
FROZEN_PRODUCTS = [
    (
        ((1, 0), (1, 0)),
        ((1, 1), (0, 0)),
        [
            (((0, 1), (1, 0)), [(0, 1)]),
            (((1, 0), (0, 1)), [(-1, 1)]),
        ],
    ),
    (
        ((0, 2), (0, 0)),
        ((0, 0), (2, 0)),
        [(((2, 0), (0, 0)), [(0, 1)])],
    ),
    (
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
        [
            (((1, 1), (1, 0)), [(0, 1)]),
            (((2, 0), (0, 1)), [(-2, 1), (0, 1)]),
        ],
    ),
]


def test_frozen_products():
    for a, b, want in FROZEN_PRODUCTS:
        got = basis_product(a, b, 10)
        assert sorted(got.terms) == sorted(m for m, _ in want)
        for m, pairs in want:
            assert got.terms[m].to_pairs() == pairs


def all_transfers(n, rmax):
    for r in range(rmax + 1):
        for a in theta_matrices(n, r):
            row = ro(a)
            for h in range(1, n):
                for m in range(1, row[h] + 1):
                    yield ("E", h, m, a)
                for m in range(1, row[h - 1] + 1):
                    yield ("F", h, m, a)


def test_structured_transfers_match_the_oracle_exhaustively():
    # the formula side and the coset side must agree on every valid
    # one-row transfer at this scale
    for kind, h, m, a in all_transfers(2, 4):
        row = ro(a)
        if kind == "E":
            got = multiply_raising(h, m, a)
            left = add_to_entry(
                diag_matrix(
                    tuple(x - (m if i == h else 0) for i, x in enumerate(row))
                ),
                h, h + 1, m,
            )
        else:
            got = multiply_lowering(h, m, a)
            left = add_to_entry(
                diag_matrix(
                    tuple(x - (m if i == h - 1 else 0) for i, x in enumerate(row))
                ),
                h + 1, h, m,
            )
        assert got.terms == oracle_product(left, a, 10)


def test_transfer_rejects_overdrawn_multiplicity():
    a = diag_matrix((1, 1))
    with pytest.raises(DomainError):
        multiply_raising(1, 2, a)
    with pytest.raises(DomainError):
        multiply_lowering(1, 2, a)


def test_diag_mult_scales_by_weight_match():
    # [diag(lam)][A] is [A] when lam = ro(A) and zero otherwise
    a = ((1, 1), (0, 1))
    assert diag_mult(ro(a), a).terms == {a: ONE}
    assert diag_mult((3, 0), a).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(0, 3), st.data())
def test_fast_product_agrees_with_forced_oracle(n, r, data):
    mats = theta_matrices(n, r)
    a = data.draw(st.sampled_from(mats))
    b = data.draw(st.sampled_from(mats))
    x = SchurElement.basis(a).scale(v_power(data.draw(st.integers(-2, 2))))
    y = SchurElement.basis(b)
    assert general_product(x, y, 10) == force_oracle_product(x, y, 10)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_product_is_associative(n, r, data):
    mats = theta_matrices(n, r)
    a = data.draw(st.sampled_from(mats))
    b = data.draw(st.sampled_from(mats))
    c = data.draw(st.sampled_from(mats))
    x, y, z = (SchurElement.basis(m) for m in (a, b, c))
    lhs = general_product(general_product(x, y, 10), z, 10)
    rhs = general_product(x, general_product(y, z, 10), 10)
    assert lhs == rhs


def test_unit_element_is_neutral():
    n, r = 2, 3
    unit = SchurElement.unit(n, r)
    for a in theta_matrices(n, r):
        x = SchurElement.basis(a)
        assert general_product(unit, x, 10) == x
        assert general_product(x, unit, 10) == x


def test_mismatched_degrees_are_rejected():
    with pytest.raises(DimensionMismatch):
        basis_product(((1, 0), (0, 0)), ((1, 0), (0, 1)), 10)
    with pytest.raises(DimensionMismatch):
        general_product(SchurElement.unit(2, 1), SchurElement.unit(2, 2), 10)


@given(st.integers(2, 3), st.integers(0, 4), st.data())
def test_json_roundtrip(n, r, data):
    mats = theta_matrices(n, r)
    el = SchurElement.zero(n, r)
    for _ in range(data.draw(st.integers(0, 3))):
        a = data.draw(st.sampled_from(mats))
        c = LaurentPoly.from_pairs(
            [(data.draw(st.integers(-3, 3)), data.draw(st.integers(-5, 5)))]
        )
        el = el + SchurElement.basis(a).scale(c)
    assert parse_element(json.dumps(el.to_json_obj())) == el


def test_diag_sum_zero_cases():
    # negative off-diagonal entries or too little degree give zero
    n = 2
    bad = ((0, -1), (0, 0))
    assert diag_sum(bad, (0, 0), (0, 0), 3).is_zero()
    heavy = ((0, 2), (2, 0))
    assert diag_sum(heavy, (0, 0), (0, 0), 3).is_zero()


def test_diag_sum_expands_over_diagonal_completions():
    # degree 2 completion of a single off-diagonal cell: diagonal gets
    # one extra unit, in either position
    a = ((0, 1), (0, 0))
    el = diag_sum(a, (0, 0), (0, 0), 2)
    mats = set(el.terms)
    assert mats == {((1, 1), (0, 0)), ((0, 1), (0, 1))}
    assert all(c == ONE for c in el.terms.values())
