import random
import time

import pytest
from hypothesis import given, strategies as st

from qschur.errors import DomainError, ExactDivisionError
from qschur.laurent import (
    LaurentPoly,
    ONE,
    V,
    _packed_product,
    balanced_binomial,
    balanced_bracket,
    balanced_factorial,
    unbalanced_binomial,
    unbalanced_bracket,
    unbalanced_factorial,
    unbalanced_trinomial,
    v_power,
    vector_binomial,
    vector_trinomial,
)
from qschur.schur import multiply_raising

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


@st.composite
def long_polys(draw):
    """0-40 terms on exponent strides 1, 2 and 3, mixed within one
    polynomial, with coefficients up to 2^70: products of two of them
    take the packed route below 62 bits and the double loop above."""
    strides = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3, unique=True))
    base = draw(st.integers(-30, 30))
    bound = 2 ** draw(st.sampled_from((3, 16, 29, 31, 70)))
    exponent = st.builds(lambda s, k: base + s * k, st.sampled_from(strides), st.integers(-12, 12))
    return LaurentPoly(draw(st.dictionaries(exponent, st.integers(-bound, bound), max_size=40)))


def schoolbook(p, q):
    """The product's [exponent, coefficient] pairs from the defining
    double sum, zeros dropped."""
    out = {}
    for ea, ca in p.to_pairs():
        for eb, cb in q.to_pairs():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return sorted((e, c) for e, c in out.items() if c)


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


@given(long_polys(), long_polys())
def test_long_products_match_the_schoolbook_sum(p, q):
    assert (p * q).to_pairs() == schoolbook(p, q)
    assert (p * q) * p == p * (q * p)


@given(
    st.integers(-50, 50),
    st.integers(-(2**70), 2**70).filter(bool),
    long_polys(),
)
def test_one_term_products_match_the_schoolbook_sum(e, c, q):
    # q has 0-40 terms; c v^e is a scaled shift from either side
    p = LaurentPoly({e: c})
    want = schoolbook(p, q)
    assert (p * q).to_pairs() == want
    assert (q * p).to_pairs() == want
    assert (q * c).to_pairs() == (c * q).to_pairs() == schoolbook(LaurentPoly({0: c}), q)


def _run(n, first=0, step=1, scale=1):
    return LaurentPoly({first + step * i: scale * (i + 1) for i in range(n)})


@pytest.mark.parametrize("k", range(41))
def test_unit_and_monomial_products_leave_their_operands_alone(k):
    x = _run(k, -20, 3, -7)
    x_pairs, x_hash = x.to_pairs(), hash(x)
    assert ONE * x == x and x * ONE == x
    assert (v_power(-5) * x).to_pairs() == [(e - 5, c) for e, c in x_pairs]
    assert (x * LaurentPoly({3: -2})).to_pairs() == [(e + 3, -2 * c) for e, c in x_pairs]
    assert x.to_pairs() == x_pairs and hash(x) == x_hash
    assert ONE.to_pairs() == [(0, 1)] and hash(ONE) == hash(LaurentPoly({0: 1}))


@pytest.mark.parametrize("m", [7, 8])
@pytest.mark.parametrize("n", [7, 8, 9])
def test_products_at_the_packing_threshold(m, n):
    # a product with a 7-term operand takes the double loop, the others
    # are packed
    p, q = _run(m, -9, 2, -3), _run(n, -4, 3, 5)
    assert (p * q).to_pairs() == schoolbook(p, q)


def test_packed_product_with_negative_exponents():
    p, q = _run(12, -40, 2, -1), _run(9, -17, 1, 3)
    assert _packed_product(p._terms, q._terms) is not None
    assert (p * q).to_pairs() == schoolbook(p, q)
    assert (p * q).min_exp() == -57 and (p * q).max_exp() == -27


@pytest.mark.parametrize("k", [8, 9, 20, 40])
def test_packed_product_stores_no_zero_coefficients(k):
    # (1 - v) W * (1 + v + ... + v^k) = W (1 - v^(k+1)): the exponents
    # between deg W and k+1 cancel, and no zero may be kept for them
    w = _run(8)
    p = (ONE - V) * w
    q = LaurentPoly({i: 1 for i in range(k + 1)})
    assert len(p.to_pairs()) == 9
    assert _packed_product(p._terms, q._terms) is not None
    assert (p * q).to_pairs() == w.to_pairs() + [(e + k + 1, -c) for e, c in w.to_pairs()]


def test_packed_product_cancels_every_odd_exponent():
    # (1 + v + ... + v^7)(1 - v + ... - v^7) = (1 - v^8)(1 + v^2 + v^4 + v^6)
    ones = LaurentPoly({i: 1 for i in range(8)})
    alternating = LaurentPoly({i: (-1) ** i for i in range(8)})
    assert (ones * alternating).to_pairs() == [
        (0, 1), (2, 1), (4, 1), (6, 1), (8, -1), (10, -1), (12, -1), (14, -1)
    ]


@pytest.mark.parametrize("b_max, packed", [(2**30 - 1, True), (2**30, False)])
def test_the_62_bit_bound(b_max, packed):
    # 8 * 2^29 * (2^30 - 1) needs exactly 62 bits, and the product's
    # middle coefficient reaches that bound
    p = LaurentPoly({i: -(2**29) for i in range(8)})
    q = LaurentPoly({i: b_max for i in range(8)})
    assert (_packed_product(p._terms, q._terms) is not None) == packed
    assert (p * q).coeff(7) == -8 * 2**29 * b_max
    assert (p * q).to_pairs() == schoolbook(p, q)


def test_sparse_operands_stay_on_the_double_loop():
    # a common stride packs densely; a gap does not
    assert len(_packed_product(*[{10**9 * i: 1 for i in range(8)}] * 2)) == 15
    p = LaurentPoly({**{i: 1 for i in range(7)}, 10**9: 1})
    assert _packed_product(p._terms, p._terms) is None
    assert (p * p).to_pairs() == schoolbook(p, p)


def test_long_product_is_fast():
    rng = random.Random(7)
    p = LaurentPoly({e: rng.randint(-(2**16), 2**16) for e in range(-1000, 1000)})
    q = LaurentPoly({e: rng.randint(-(2**16), 2**16) for e in range(0, 4000, 2)})
    started = time.perf_counter()
    product = p * q
    assert time.perf_counter() - started < 0.25
    for x in (2, -3, 5):
        assert product.evaluate(x) == p.evaluate(x) * q.evaluate(x)


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


def falling_binomial(bracket, factorial, top, t):
    """[top choose t] by its definition: the falling product
    [top][top-1]...[top-t+1] divided exactly by the factorial [t]!."""
    num = ONE
    for s in range(t):
        num = num * bracket(top - s)
    return num.divexact(factorial(t))


BINOMIAL_KINDS = {
    "balanced": (balanced_binomial, balanced_bracket, balanced_factorial),
    "unbalanced": (unbalanced_binomial, unbalanced_bracket, unbalanced_factorial),
}


@pytest.mark.parametrize("kind", BINOMIAL_KINDS)
def test_binomials_match_the_falling_product(kind):
    binomial, bracket, factorial = BINOMIAL_KINDS[kind]
    for top in range(-25, 41):
        for t in range(13):
            assert binomial(top, t) == falling_binomial(bracket, factorial, top, t), (top, t)
    with pytest.raises(DomainError):
        binomial(3, -1)


@pytest.mark.parametrize("m", [60, 90])
def test_large_transfer_products_are_fast(m):
    # the binomials [m choose t] are recomputed here, not read from the
    # caches that earlier tests filled
    balanced_binomial.cache_clear()
    unbalanced_binomial.cache_clear()
    started = time.perf_counter()
    got = multiply_raising.__wrapped__(1, m, ((0, 0), (m, m)))
    assert time.perf_counter() - started < 1.0
    # one term per split of m between the two columns, each a monomial
    assert len(got.terms) == m + 1
    assert all(len(c.to_pairs()) == 1 for c in got.terms.values())


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
