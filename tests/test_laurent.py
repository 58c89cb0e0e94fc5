import pytest
from hypothesis import given, strategies as st

from qschur.errors import DomainError, ExactDivisionError
from qschur.laurent import (
    LaurentPoly,
    ONE,
    V,
    balanced_binomial,
    balanced_bracket,
    balanced_factorial,
    unbalanced_binomial,
    unbalanced_bracket,
    unbalanced_trinomial,
    v_power,
    vector_binomial,
    vector_trinomial,
)

# frozen reference values computed with sympy from the quotient
# definitions bracket(i) = (v^i - v^-i)/(v - v^-1) and
# one_sided(i) = (v^2i - 1)/(v^2 - 1)
BALANCED_BINOMIALS = {
    (4, 2): [(-4, 1), (-2, 1), (0, 2), (2, 1), (4, 1)],
    (5, 2): [(-6, 1), (-4, 1), (-2, 2), (0, 2), (2, 2), (4, 1), (6, 1)],
    (0, 0): [(0, 1)],
    (3, 0): [(0, 1)],
    (-2, 2): [(-2, 1), (0, 1), (2, 1)],
    (-3, 3): [(-6, -1), (-4, -1), (-2, -2), (0, -2), (2, -2), (4, -1), (6, -1)],
    (6, 3): [(-9, 1), (-7, 1), (-5, 2), (-3, 3), (-1, 3), (1, 3), (3, 3), (5, 2), (7, 1), (9, 1)],
    (-1, 1): [(0, -1)],
}
UNBALANCED_BINOMIALS = {
    (4, 2): [(0, 1), (2, 1), (4, 2), (6, 1), (8, 1)],
    (5, 3): [(0, 1), (2, 1), (4, 2), (6, 2), (8, 2), (10, 1), (12, 1)],
    (-2, 2): [(-10, 1), (-8, 1), (-6, 1)],
    (3, 1): [(0, 1), (2, 1), (4, 1)],
    (-4, 3): [(-30, -1), (-28, -1), (-26, -2), (-24, -3), (-22, -3),
              (-20, -3), (-18, -3), (-16, -2), (-14, -1), (-12, -1)],
}


def lp(pairs):
    return LaurentPoly.from_pairs(pairs)


polys = st.builds(
    lp,
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=6
    ),
)


def test_zero_and_one():
    assert LaurentPoly.from_int(0).is_zero()
    assert not ONE.is_zero()
    assert ONE * ONE == ONE
    assert v_power(0) == ONE
    assert v_power(3) * v_power(-3) == ONE


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + LaurentPoly.from_int(0) == p
    assert p * ONE == p


@given(polys, polys)
def test_bar_is_a_ring_involution(p, q):
    assert p.bar().bar() == p
    assert (p * q).bar() == p.bar() * q.bar()
    assert (p + q).bar() == p.bar() + q.bar()


@given(st.integers(-8, 8))
def test_brackets_against_defining_quotients(i):
    # bracket(i) * (v - v^-1) == v^i - v^-i, no division needed
    assert balanced_bracket(i) * (V - v_power(-1)) == v_power(i) - v_power(-i)
    assert unbalanced_bracket(i) * (v_power(2) - ONE) == v_power(2 * i) - ONE


def test_balanced_binomial_frozen_values():
    for (top, t), pairs in BALANCED_BINOMIALS.items():
        assert balanced_binomial(top, t).to_pairs() == pairs


def test_unbalanced_binomial_frozen_values():
    for (top, t), pairs in UNBALANCED_BINOMIALS.items():
        assert unbalanced_binomial(top, t).to_pairs() == pairs


def test_trinomial_frozen_value():
    assert unbalanced_trinomial(2, 1, 1).to_pairs() == [
        (0, 1), (2, 2), (4, 3), (6, 3), (8, 2), (10, 1)
    ]


@given(st.integers(-8, 8), st.integers(0, 5))
def test_bridge_between_the_two_binomials(top, t):
    assert unbalanced_binomial(top, t) == v_power(t * (top - t)) * balanced_binomial(top, t)


@given(st.integers(0, 7), st.integers(0, 7))
def test_nonnegative_binomials_specialize_to_integers(top, t):
    # at v = 1 the balanced binomial becomes the ordinary one
    import math

    val = sum(c for _, c in balanced_binomial(top, t).to_pairs())
    assert val == (math.comb(top, t) if t <= top else 0)


@given(st.integers(1, 6))
def test_factorial_recursion(t):
    assert balanced_factorial(t) == balanced_factorial(t - 1) * balanced_bracket(t)


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(0, 4), min_size=1, max_size=3),
)
def test_vector_binomial_is_a_product_over_coordinates(mu, lam):
    k = min(len(mu), len(lam))
    mu, lam = tuple(mu[:k]), tuple(lam[:k])
    expected = ONE
    for m, l in zip(mu, lam):
        expected = expected * balanced_binomial(m, l)
    assert vector_binomial(mu, lam) == expected


def test_vector_trinomial_matches_iterated_binomials():
    total, a, b, c = (3, 2), (1, 1), (1, 0), (1, 1)
    expected = vector_binomial(total, a) * vector_binomial(
        tuple(x - y for x, y in zip(total, a)), b
    )
    assert vector_trinomial(total, a, b, c) == expected
    with pytest.raises(DomainError):
        vector_trinomial((3, 3), a, b, c)


@given(polys, polys)
def test_exact_division_roundtrip(p, q):
    if q.is_zero():
        return
    assert (p * q).divexact(q) == p


def test_divexact_rejects_inexact():
    with pytest.raises(ExactDivisionError):
        (V + ONE + ONE).divexact(V - v_power(-1))
