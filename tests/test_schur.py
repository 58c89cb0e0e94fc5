import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qschur import schur
from qschur.cli import parse_element
from qschur.errors import DimensionMismatch, DomainError
from qschur.hecke import oracle_product, x_lambda
from qschur.laurent import LaurentPoly, ONE, ZERO, v_power, vector_binomial
from qschur.matrices import (
    add_to_entry,
    co,
    diag_matrix,
    is_diagonal,
    ro,
    theta_matrices,
)
from qschur.schur import (
    Combination,
    SchurElement,
    basis_product,
    diag_sum,
    force_oracle_product,
    general_product,
    lowering_shape,
    multiply_lowering,
    multiply_raising,
    raising_shape,
)
from qschur.symbolic import SymbolicElement
from qschur.vectors import compositions, dot
from sr_reference import add_diag

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


def all_transfers(n, rmax, rmin=0):
    for r in range(rmin, rmax + 1):
        for a in theta_matrices(n, r):
            row = ro(a)
            for h in range(1, n):
                for m in range(1, row[h] + 1):
                    yield ("E", h, m, a)
                for m in range(1, row[h - 1] + 1):
                    yield ("F", h, m, a)


def transfer_product(kind, h, m, a):
    # the closed-form product of a one-row transfer with [a], and the
    # transfer's own basis matrix
    row = list(ro(a))
    if kind == "E":
        row[h] -= m
        return multiply_raising(h, m, a), add_to_entry(diag_matrix(tuple(row)), h, h + 1, m)
    row[h - 1] -= m
    return multiply_lowering(h, m, a), add_to_entry(diag_matrix(tuple(row)), h + 1, h, m)


def test_structured_transfers_match_the_oracle_exhaustively():
    # the formula side and the coset side must agree on every valid
    # one-row transfer at this scale
    for kind, h, m, a in all_transfers(2, 4):
        got, left = transfer_product(kind, h, m, a)
        assert got.terms == oracle_product(left, a, 10)


def test_structured_transfers_match_the_oracle_at_degree_8():
    # the oracle's weight-space walk reaches r = 8, above its default cap
    for kind, h, m, a in Random(8).sample(list(all_transfers(3, 8, 8)), 6):
        got, left = transfer_product(kind, h, m, a)
        assert got.terms == oracle_product(left, a, 8), (kind, h, m, a)


def test_transfer_rejects_overdrawn_multiplicity():
    a = diag_matrix((1, 1))
    with pytest.raises(DomainError):
        multiply_raising(1, 2, a)
    with pytest.raises(DomainError):
        multiply_lowering(1, 2, a)
    # a matrix with a negative entry is no basis matrix, for the rules as
    # for basis_product and the oracle, even where the amount fits its row
    for rule, neg in ((multiply_raising, ((0, -1), (2, 0))), (multiply_lowering, ((2, 0), (0, -1)))):
        with pytest.raises(DomainError, match="^matrix entries must be nonnegative$"):
            rule(1, 1, neg)


def test_lowering_checks_its_bounds_on_the_unmirrored_rows():
    # the amount is checked once, by the mirrored raising rule, against
    # row h of the lowering's own matrix; the row index is its own h
    a = diag_matrix((2, 0, 5))
    for h, m in [(1, 3), (2, 1), (1, -1)]:
        with pytest.raises(DomainError, match="^transfer amount exceeds the available row sum$"):
            multiply_lowering(h, m, a)
    assert multiply_lowering(1, 2, a).terms == {((0, 0, 0), (2, 0, 0), (0, 0, 5)): ONE}
    for h in (0, 3):
        with pytest.raises(DomainError, match=f"^row index {h} out of range$"):
            multiply_lowering(h, 1, a)


def _classified(a):
    # the route of [a] as a left factor, from the shape tests themselves
    if is_diagonal(a):
        return ("diagonal",)
    for kind, shape in (("raising", raising_shape(a)), ("lowering", lowering_shape(a))):
        if shape is not None:
            return (kind, *shape)
    return ("oracle",)


@pytest.mark.parametrize("n, r_max", [(2, 6), (3, 4), (4, 3)])
def test_the_matrix_table_matches_the_shape_tests(n, r_max):
    for r in range(r_max + 1):
        for a in theta_matrices(n, r):
            row_sums, col_sums, route = schur._table(a)
            assert (row_sums, col_sums, route) == (ro(a), co(a), _classified(a)), a
            # the router tells the two shapeless routes apart by identity
            if route[0] == "diagonal":
                assert route is schur._DIAGONAL
            elif route[0] == "oracle":
                assert route is schur._ORACLE


def test_the_matrix_table_is_keyed_by_one_matrix():
    # 35 matrices on each side meet in 259 composable pairs, through
    # every route, and leave at most one entry per matrix
    mats = theta_matrices(2, 4)
    x = SchurElement(2, 4, {a: ONE for a in mats})
    y = SchurElement(2, 4, {a: v_power(1) for a in mats})
    pairs = sum(co(a) == ro(b) for a in mats for b in mats)
    assert pairs > len(x.terms) + len(y.terms)
    schur._table.cache_clear()
    assert not general_product(x, y).is_zero()
    info = schur._table.cache_info()
    assert 0 < info.currsize <= len(x.terms) + len(y.terms)
    assert info.maxsize is not None and info.maxsize <= 1 << 12


@pytest.mark.parametrize(
    "product, name",
    [(general_product, "_basis_terms"), (force_oracle_product, "oracle_product")],
)
def test_products_send_only_composable_pairs_on(monkeypatch, product, name):
    # [a][b] is zero unless co(a) == ro(b), so the router behind
    # general_product and the oracle behind force_oracle_product see
    # only those pairs, each once
    pairs = []
    inner = getattr(schur, name)

    def spy(a, b, cap):
        assert co(a) == ro(b), (a, b)
        pairs.append((a, b))
        return inner(a, b, cap)

    monkeypatch.setattr(schur, name, spy)
    composable = []
    for n, r in ((2, 3), (3, 2)):
        mats = theta_matrices(n, r)
        x = SchurElement(n, r, {a: ONE for a in mats})
        assert not product(x, x).is_zero()
        composable += [(a, b) for a in mats for b in mats if co(a) == ro(b)]
    assert pairs == composable


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


def test_basis_product_rejects_a_negative_matrix_on_either_side():
    # with b on the right, the three left factors pick the diagonal,
    # the raising and the oracle route
    b = ((2, -1), (0, 1))
    for a in (((1, 0), (0, 1)), ((1, 1), (0, 0)), ((0, 1), (1, 0))):
        for left, right in ((a, b), (b, a)):
            with pytest.raises(DomainError):
                basis_product(left, right, 10)


def test_parse_element_accumulates_terms_in_place(monkeypatch):
    # `+` copies the whole terms dict, which makes parsing quadratic in
    # the number of terms
    def no_add(self, other):
        raise AssertionError("parse_element copied the element for one term")

    monkeypatch.setattr(Combination, "__add__", no_add)
    a, b = [[1, 1], [0, 0]], [[2, 0], [0, 0]]
    terms = [{"matrix": a, "coeff": 2}, {"matrix": b, "coeff": [[1, 1]]},
             {"matrix": a, "coeff": -2}, {"matrix": b}]
    el = parse_element(json.dumps({"n": 2, "r": 2, "terms": terms}))
    assert el == SchurElement(2, 2, {((2, 0), (0, 0)): v_power(1) + ONE})
    e, f = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    terms = [{"matrix": e, "delta": [0, -1], "coeff": 3}, {"matrix": f, "lambda": [1, 0]},
             {"matrix": e, "delta": [0, -1], "coeff": -3},
             {"matrix": f, "lambda": [1, 0], "coeff": [[2, 1]]}]
    el = parse_element(json.dumps({"n": 2, "terms": terms}))
    assert el == SymbolicElement(2, {(((0, 0), (1, 0)), (0, 0), (1, 0)): ONE + v_power(2)})
    # every symbolic key is still validated
    with pytest.raises(DomainError):
        parse_element(json.dumps({"n": 2, "terms": [*terms, {"matrix": [[1, 0], [0, 0]]}]}))


# one element of each Combination subclass, with an element of the same
# type under another header
COMBINATIONS = [
    (
        SchurElement(2, 2, {((1, 1), (0, 0)): ONE, ((2, 0), (0, 0)): v_power(1)}),
        SchurElement.unit(2, 3),
    ),
    (
        SymbolicElement(
            2,
            {
                (((0, 1), (0, 0)), (0, 0), (0, 0)): ONE,
                (((0, 0), (1, 0)), (1, -1), (0, 1)): v_power(1),
            },
        ),
        SymbolicElement.unit(3),
    ),
]


@pytest.mark.parametrize("x, elsewhere", COMBINATIONS, ids=["schur", "symbolic"])
def test_combination_arithmetic(x, elsewhere):
    header = x._header()
    assert (x - x).is_zero()
    assert x.scale(0).is_zero()
    key, c = x.sorted_terms()[0]
    y = x + x.zero(*header)
    y.add_into(key, -c)
    assert key not in y.terms and len(y.terms) == len(x.terms) - 1
    assert type(x)(*header, {**x.terms, key: ZERO}) == y
    other_types = [el for el, _ in COMBINATIONS if type(el) is not type(x)]
    for other in (elsewhere, *other_types):
        with pytest.raises(DimensionMismatch):
            x + other
        with pytest.raises(DimensionMismatch):
            x - other
    assert other_types and all(not x == el and x != el for el in other_types)
    with pytest.raises(TypeError):
        hash(x)


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
    # too little degree gives zero; a negative entry names no basis
    # element, so it raises as it does everywhere a key is checked
    bad = ((0, -1), (0, 0))
    with pytest.raises(DomainError, match="nonnegative entries"):
        diag_sum(bad, (0, 0), (0, 0), 3)
    heavy = ((0, 2), (2, 0))
    assert diag_sum(heavy, (0, 0), (0, 0), 3).is_zero()


def test_diag_sum_rejects_negative_degrees():
    # an error, not an empty slice, and nothing is cached for it
    a = ((0, 1), (0, 0))
    before = diag_sum.cache_info().currsize
    for r in (-1, -2):
        with pytest.raises(DomainError):
            diag_sum(a, (1, 0), (0, 1), r)
    assert diag_sum.cache_info().currsize == before


def test_diag_sum_expands_over_diagonal_completions():
    # degree 2 completion of a single off-diagonal cell: diagonal gets
    # one extra unit, in either position
    a = ((0, 1), (0, 0))
    el = diag_sum(a, (0, 0), (0, 0), 2)
    mats = set(el.terms)
    assert mats == {((1, 1), (0, 0)), ((0, 1), (0, 1))}
    assert all(c == ONE for c in el.terms.values())
    # torus exponents and binomial depths: the defining sum over mu
    a = ((0, 1, 0), (2, 0, 0), (0, 1, 0))
    delta, lam = (2, -1, 3), (1, 0, 2)
    want = SchurElement(3, 8)
    for mu in compositions(3, 4):
        want.add_into(add_diag(a, mu), v_power(dot(mu, delta)) * vector_binomial(mu, lam))
    got = diag_sum(a, delta, lam, 8)
    assert got == want
    assert len(got.terms) == 3  # mu_1 >= 1 and mu_3 >= 2


def test_cached_products_are_read_only():
    # every caller gets the cache's own object, so a change to one would
    # change every later product that reads it
    raising, lowering = ((1, 1), (0, 0)), ((0, 0), (1, 1))
    right = ((1, 0), (1, 0)), ((0, 1), (0, 1))
    gen, heavy = ((0, 1), (0, 0)), ((0, 2), (2, 0))
    z = (0, 0)

    def products():
        return (
            general_product(SchurElement.basis(raising), SchurElement.basis(right[0])),
            general_product(SchurElement.basis(lowering), SchurElement.basis(right[1])),
            SymbolicElement.gen(gen, z, z).realize(2),
            SymbolicElement.gen(heavy, z, z).realize(3),
            dict(x_lambda((2, 1))),
        )

    before = products()
    cached = [
        multiply_raising(1, 1, right[0]),
        multiply_lowering(1, 1, right[1]),
        diag_sum(gen, z, z, 2),
        diag_sum(heavy, z, z, 3),
    ]
    assert cached[0].terms and cached[1].terms and cached[2].terms and not cached[3].terms
    for el in cached:
        with pytest.raises(TypeError):
            el.add_into(((7, 7), (7, 7)), ONE)
        for mat, c in list(el.terms.items()):
            with pytest.raises(AttributeError):
                el.add_into(mat, -c)
    with pytest.raises(TypeError):
        x_lambda((2, 1))[(2, 1, 0)] = ONE
    # sums copy the read-only terms into a new element
    assert cached[2] + cached[2] == cached[2].scale(2)
    assert products() == before
    assert products()[0].terms == {((2, 0), (0, 0)): v_power(-1) + v_power(1)}
