import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from qschur.cyclo import CycloScalar, cyclotomic_coeffs, eval_at_root
from qschur.errors import DomainError
from qschur.laurent import LaurentPoly, ONE, unbalanced_bracket, v_power

# frozen from sympy.cyclotomic_poly, ascending coefficients
CYCLOTOMIC = {
    1: (-1, 1),
    3: (1, 1, 1),
    5: (1, 1, 1, 1, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    15: (1, -1, 0, 1, -1, 1, 0, -1, 1),
}


def test_cyclotomic_polynomials_frozen():
    for l, coeffs in CYCLOTOMIC.items():
        assert tuple(cyclotomic_coeffs(l)) == coeffs


def test_even_order_is_rejected():
    with pytest.raises(DomainError):
        CycloScalar.one(2)
    with pytest.raises(DomainError):
        eval_at_root(ONE, 4)


def scalars(l):
    deg = len(cyclotomic_coeffs(l)) - 1
    return st.builds(
        lambda cs: CycloScalar(l, tuple(Fraction(c) for c in cs[:deg])),
        st.lists(st.integers(-5, 5), min_size=deg, max_size=deg),
    )


@given(st.sampled_from((3, 5, 7)), st.data())
def test_field_axioms(l, data):
    a = data.draw(scalars(l))
    b = data.draw(scalars(l))
    c = data.draw(scalars(l))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == a * CycloScalar.zero(l)
    if not a.is_zero():
        assert a * a.inv() == CycloScalar.one(l)


@given(st.sampled_from((1, 3, 5, 9)))
def test_root_has_exact_order(l):
    root = eval_at_root(v_power(1), l)
    acc = CycloScalar.one(l)
    for k in range(1, l):
        acc = acc * root
        assert acc != CycloScalar.one(l)
    assert acc * root == CycloScalar.one(l)


@given(st.sampled_from((3, 5, 9)))
def test_order_sum_vanishes_at_the_root(l):
    # 1 + v^2 + ... + v^(2(l-1)) evaluates to zero for odd l > 1
    assert eval_at_root(unbalanced_bracket(l), l).is_zero()


@given(
    st.sampled_from((1, 3, 5)),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=5),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=5),
)
def test_evaluation_is_a_ring_map(l, ps, qs):
    p = LaurentPoly.from_pairs(ps)
    q = LaurentPoly.from_pairs(qs)
    assert eval_at_root(p * q, l) == eval_at_root(p, l) * eval_at_root(q, l)
    assert eval_at_root(p + q, l) == eval_at_root(p, l) + eval_at_root(q, l)


@given(
    st.sampled_from((1, 3, 5)),
    st.data(),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=5),
)
def test_laurent_factor_is_evaluated_at_the_root(l, data, ps):
    a = data.draw(scalars(l))
    p = LaurentPoly.from_pairs(ps)
    assert a * p == a * eval_at_root(p, l)
