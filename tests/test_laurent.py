import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qschur.errors import DomainError, ExactDivisionError
from qschur.laurent import (
    LaurentPoly,
    ONE,
    V,
    ZERO,
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
    stay in 64-bit slots for small coefficients and widen above."""
    strides = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3, unique=True))
    base = draw(st.integers(-30, 30))
    bound = 2 ** draw(st.sampled_from((3, 16, 29, 31, 70)))
    exponent = st.builds(lambda s, k: base + s * k, st.sampled_from(strides), st.integers(-12, 12))
    return LaurentPoly(draw(st.dictionaries(exponent, st.integers(-bound, bound), max_size=40)))


def reference_sum(p, q, sign):
    """[exponent, coefficient] pairs of p + sign q, zeros dropped."""
    out = dict(p.to_pairs())
    for e, c in q.to_pairs():
        out[e] = out.get(e, 0) + sign * c
    return sorted((e, c) for e, c in out.items() if c)


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
    # the monomial v^e itself: a shift from either side
    m = v_power(e)
    for got in (m * q, q * m):
        assert got.to_pairs() == schoolbook(m, q)
        assert_layout(got)


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


def assert_layout(p):
    """A packed value has at most _n terms and spans at most 8 slots per
    term of that bound."""
    if p._packed:
        terms = len(p.to_pairs())
        span = p.max_exp() - p.min_exp() + 1
        assert terms <= p._n and span <= 8 * p._n, (terms, span, p._n)


@pytest.mark.parametrize(
    "x",
    [
        _run(9, -4, 1, 3),  # dense, 64-bit slots
        _run(6, -9, 2, -(2**100)),  # dense on even exponents, 128-bit slots
        LaurentPoly({-3: 5, 10**6: -(2**70)}),  # too spread to pack
        ZERO,
        v_power(4),
    ],
    ids=["dense64", "dense128", "sparse", "zero", "monomial"],
)
def test_a_product_by_a_monomial_is_a_shift(x):
    assert x._packed is None or x._width == (128 if x._bits > 63 else 64)
    for e in (-7, 0, 5):
        m = v_power(e)
        want = schoolbook(m, x)
        for got in (m * x, x * m):
            assert got.to_pairs() == want and got == x.shift(e)
            assert_layout(got)
            if x._packed:
                # the same slots and bound, moved: no product was formed
                assert layout(got) + (got._bits,) == (x._lo + e, x._packed, x._width, x._bits)


def _gapped(n, span, first=0, scale=1):
    # n terms on one step from first to first + span - 1: a run of n - 1
    # and one term at the far end
    exps = [first + i for i in range(n - 1)] + [first + span - 1]
    return LaurentPoly({e: scale * (i + 1) for i, e in enumerate(exps)})


@pytest.mark.parametrize("m", [7, 8])
@pytest.mark.parametrize("n", [7, 8, 9])
def test_products_at_the_packing_threshold(m, n):
    # a value is packed while its span is at most 8 slots per term: p sits
    # on the threshold, q one slot past it
    p, q = _gapped(m, 8 * m, -9, -3), _gapped(n, 8 * n + 1, -4, 5)
    assert p._packed is not None and q._packed is None
    # runs with gaps of 2 and 3, which pack with zero slots between terms
    r, s = _run(m, -9, 2, -3), _run(n, -4, 3, 5)
    for x, y in ((p, p), (p, q), (q, p), (q, q), (r, s), (s, r), (p, s)):
        assert (x * y).to_pairs() == schoolbook(x, y)
        assert (x + y).to_pairs() == reference_sum(x, y, 1)
        assert_layout(x * y)
        assert_layout(x + y)
    assert (p * p)._packed is not None and (r * s)._packed is not None


def test_packed_product_with_negative_exponents():
    p, q = _run(12, -40, 2, -1), _run(9, -17, 1, 3)
    assert p._packed is not None and q._packed is not None
    assert (p * q)._packed is not None
    assert (p * q).to_pairs() == schoolbook(p, q)
    assert (p * q).min_exp() == -57 and (p * q).max_exp() == -27


@pytest.mark.parametrize("k", [8, 9, 20, 40])
def test_packed_product_stores_no_zero_coefficients(k):
    # (1 - v) W * (1 + v + ... + v^k) = W (1 - v^(k+1)): the exponents
    # between deg W and k+1 cancel, and no zero may be read back for them
    w = _run(8)
    p = (ONE - V) * w
    q = LaurentPoly({i: 1 for i in range(k + 1)})
    assert len(p.to_pairs()) == 9
    assert p._packed is not None and q._packed is not None
    assert (p * q).to_pairs() == w.to_pairs() + [(e + k + 1, -c) for e, c in w.to_pairs()]


def test_packed_product_cancels_every_odd_exponent():
    # (1 + v + ... + v^7)(1 - v + ... - v^7) = (1 - v^8)(1 + v^2 + v^4 + v^6)
    ones = LaurentPoly({i: 1 for i in range(8)})
    alternating = LaurentPoly({i: (-1) ** i for i in range(8)})
    assert (ones * alternating).to_pairs() == [
        (0, 1), (2, 1), (4, 1), (6, 1), (8, -1), (10, -1), (12, -1), (14, -1)
    ]


@pytest.mark.parametrize("b_max, narrow", [(2**30 - 1, True), (2**30, False)])
def test_the_64_bit_slot_bound(b_max, narrow):
    # the bound 8 * 2^30 * b_max of a product coefficient needs 63 bits
    # for b_max < 2^30 and 64 bits above, even read back exactly: the
    # product then moves to 128-bit slots, though its true middle
    # coefficient -8 * 2^29 * b_max still fits 64
    p = LaurentPoly({i: -(2**29) for i in range(8)})
    q = LaurentPoly({i: b_max for i in range(8)})
    assert p._width == q._width == 64
    assert (p * q)._width == (64 if narrow else 128)
    assert dict((p * q).to_pairs())[7] == -8 * 2**29 * b_max
    assert (p * q).to_pairs() == schoolbook(p, q)
    assert p * q == LaurentPoly(dict(schoolbook(p, q)))


def test_a_loose_bound_is_tightened_before_the_slots_widen():
    # each sum adds a bit to the bound, not to the coefficients: after 18
    # rounds the bound of p * p asks for 81 bits, the coefficients read
    # back need 3, and the product stays in 64-bit slots; 100 rounds more
    # never widen p itself
    p = _run(5)
    for _ in range(18):
        p = (p + V) - V
    assert p == _run(5) and p._bits == 39
    assert (p * p)._width == 64 and p._bits == 3
    assert (p * p).to_pairs() == schoolbook(_run(5), _run(5))
    for _ in range(100):
        p = (p + V) - V
    assert p == _run(5) and p._width == 64 and p._bits < 64


def test_sparse_operands_stay_on_the_double_loop():
    # a wide stride and a far gap both keep the term dict, and neither
    # value nor its square nor their product costs memory in its span
    stride = LaurentPoly({10**9 * i: 1 for i in range(8)})
    p = LaurentPoly({**{i: 1 for i in range(7)}, 10**9: 1})
    for x, y in ((stride, stride), (p, p), (stride, p)):
        assert x._packed is None and (x * y)._packed is None
        assert (x * y).to_pairs() == schoolbook(x, y)
    assert len((stride * stride).to_pairs()) == 15


def test_sums_that_would_spread_fall_back_to_the_term_dict():
    far = v_power(10**9) + _run(3)
    assert far._packed is None and far.to_pairs() == [(0, 1), (1, 2), (2, 3), (10**9, 1)]
    assert (far - v_power(10**9))._packed is not None
    assert (far - v_power(10**9)) == _run(3)


def test_far_apart_operands_do_not_spread_a_packed_value():
    # each monomial lands just inside 8 slots per slot of the sum so far,
    # so a bound by slots would let the span grow 8-fold per term (about
    # 5 * 10^7 slots at ten terms); the bound by terms packs three terms
    # at most
    p, top, want = ONE + V, 1, [(0, 1), (1, 1)]
    for k in range(9):
        top = 8 * top + 15
        p, want = p + v_power(top), want + [(top, 1)]
        assert p.to_pairs() == want
        assert_layout(p)
        assert (p._packed is not None) == (k == 0)
    assert (p * p).to_pairs() == schoolbook(p, p)
    # three terms pack over at most 24 slots whatever their gaps, and so
    # does their square; over 47 and 70 slots they keep the term dict,
    # and so does their product
    z = LaurentPoly({0: 1, 3: 1, 23: 1})
    assert z._packed is not None and (z * z)._packed is not None
    assert (z * z).to_pairs() == schoolbook(z, z)
    assert_layout(z * z)
    x, y = LaurentPoly({0: 1, 2: 1, 46: 1}), LaurentPoly({0: 1, 3: 1, 69: 1})
    assert x._packed is None and y._packed is None
    assert (x * y)._packed is None and (x * y).to_pairs() == schoolbook(x, y)


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


# ---------------------------------------------------------------------------
# the packed kernel against the term-dict reference, at the slot boundaries

# coefficients near 2^62, 2^63, 2^64 and beyond 2^127, where 64-bit
# slots overflow and wider ones take over
NEAR_BOUNDARY = st.builds(
    lambda k, d, s: s * ((1 << k) + d),
    st.sampled_from((0, 3, 61, 62, 63, 64, 127, 128, 190)),
    st.integers(-2, 2),
    st.sampled_from((1, -1)),
)


@st.composite
def kernel_polys(draw):
    """A dense run (on every exponent or on even ones), a spread on
    multiples of 10^6, or a run and a spread together, which are too
    sparse to pack; built by one of three
    routes: the constructor, accumulated pairs, or a sum of scaled
    monomials."""
    base = draw(st.integers(-20, 20))
    shape = draw(st.sampled_from(("dense", "even", "sparse", "mixed")))
    exps = []
    if shape == "even":
        exps += [2 * k for k in draw(st.lists(st.integers(0, 15), max_size=12))]
    elif shape != "sparse":
        exps += draw(st.lists(st.integers(0, 30), max_size=24))
    if shape != "dense":
        exps += [10**6 * k for k in draw(st.lists(st.integers(1, 5), max_size=4))]
    terms = {base + e: draw(NEAR_BOUNDARY) for e in exps}
    route = draw(st.sampled_from(("dict", "pairs", "monomials")))
    if route == "dict":
        return LaurentPoly(terms)
    if route == "pairs":
        # every pair twice, once split in halves that cancel with a third
        pairs = [(e, c) for e, c in terms.items()] + [(e, 7) for e in terms] + [(e, -7) for e in terms]
        return LaurentPoly.from_pairs(pairs)
    out = ZERO
    for e, c in terms.items():
        out = out + v_power(e) * c
    return out


@given(kernel_polys(), kernel_polys(), NEAR_BOUNDARY, st.integers(-40, 40))
def test_kernel_operations_match_the_reference(p, q, c, e):
    pairs = p.to_pairs()
    assert all(c for _, c in pairs) and [x for x, _ in pairs] == sorted({x for x, _ in pairs})
    assert (p + q).to_pairs() == reference_sum(p, q, 1)
    assert (p - q).to_pairs() == reference_sum(p, q, -1)
    assert (p * q).to_pairs() == schoolbook(p, q)
    scaled = sorted((x, c * y) for x, y in pairs if c * y)
    assert (p * c).to_pairs() == (c * p).to_pairs() == scaled
    assert (-p).to_pairs() == [(x, -y) for x, y in pairs]
    assert p.shift(e).to_pairs() == [(x + e, y) for x, y in pairs]
    assert p.bar().to_pairs() == sorted((-x, y) for x, y in pairs)
    # a product by v^e on either side is the shift by e
    m = v_power(e)
    assert (m * p).to_pairs() == (p * m).to_pairs() == schoolbook(m, p)
    for r in (p, p + q, p - q, p * q, p * c, p.bar(), m * p, p * m):
        assert_layout(r)
    if pairs:
        assert (p.min_exp(), p.max_exp()) == (pairs[0][0], pairs[-1][0])
    # dicts of one to four of its terms take the expected form
    for k in (1, 2, 3, 4):
        for short in (dict(pairs[:k]), dict(pairs[-k:]), dict(pairs[::2][:k])):
            if short:
                assert_form(short)


@pytest.mark.parametrize(
    "terms",
    [
        {0: 1, 1: 2, 23: 3},  # 24 slots: packed
        {0: 1, 1: 2, 24: 3},  # 25 slots for 3 terms: the term dict
        {-4: 5, 2: -1, 8: 2**70},  # 13 slots, wide slots
        {3: -(2**63), 10**9: 1},  # two terms far apart: the term dict
        {7: 1, -5: -2, 1: 3},  # unsorted, 13 slots
        {3: -(2**63), 18: 1},  # 16 slots for 2 terms: packed
        {19: 1, 3: -(2**63)},  # unsorted, 17 slots: the term dict
        # 15, 16 and 17 slots with gaps, in 64- and then 128-bit slots:
        # packed by the loop up to 16 slots and through bytes above
        *(
            {e - 7: (-1) ** e * (e + 1) * scale for e in range(slots) if e % 5 != 3}
            for scale in (1, 2**70)
            for slots in (15, 16, 17)
        ),
    ],
)
def test_short_dicts_keep_the_slot_layout(terms):
    assert_form(terms)
    assert LaurentPoly(terms).bar().to_pairs() == sorted((-e, c) for e, c in terms.items())


def assert_form(terms):
    """LaurentPoly(terms), for a dict with no zeros, is the dict itself
    when its exponents span more than 8 slots per term; otherwise slot k
    holds the coefficient of v^(lowest + k), in the narrowest multiple of
    64 bits that holds every coefficient.  Either way it reads back as
    the dict."""
    p = LaurentPoly(terms)
    lo, span = min(terms), max(terms) - min(terms) + 1
    if span > 8 * len(terms):
        assert p._packed is None and p._terms == terms
    else:
        bits = max(abs(c) for c in terms.values()).bit_length()
        width = 64 * (bits // 64 + 1)
        packed = sum(c << width * (e - lo) for e, c in terms.items())
        assert (p._lo, p._packed, p._width, p._bits, p._n) == (lo, packed, width, bits, len(terms))
    assert_layout(p)
    assert p.to_pairs() == sorted(terms.items())


@given(kernel_polys(), kernel_polys(), st.sampled_from((2, -3, Fraction(2, 3), Fraction(-5, 4))))
def test_kernel_division_and_evaluation_match_the_reference(p, q, x):
    if not q.is_zero():
        assert (p * q).divexact(q) == p
    # powers of x to the sparse exponents near 10^6 would be huge
    if all(abs(e) <= 60 for e, _ in p.to_pairs()):
        assert p.evaluate(x) == sum((c * Fraction(x) ** e for e, c in p.to_pairs()), Fraction(0))


@given(kernel_polys())
def test_equal_values_compare_and_hash_equal_across_routes(p):
    wide = LaurentPoly({e: 2**200 + e for e in range(-3, 4)})
    far = v_power(10**9)
    routes = [
        LaurentPoly(dict(p.to_pairs())),
        LaurentPoly.from_pairs(reversed(p.to_pairs())),
        (p + wide) - wide,  # in slots of at least 256 bits
        (p + far) - far,  # through the term dict
        p * 3 - p * 2,
        p.bar().bar(),
        p.shift(7).shift(-7),
        p * ONE,
    ]
    for r in routes:
        assert r == p and p == r and hash(r) == hash(p)
        assert r != p + ONE and r != p * 2 or p.is_zero()


@pytest.mark.parametrize("c", [0, 1, -3, 2**70])
def test_a_constant_hashes_as_its_integer(c):
    # a value equal to an int is one member of a set with it
    for p in (LaurentPoly.from_int(c), LaurentPoly({0: c}), (V + c) - V, v_power(3).shift(-3) * c):
        assert p == c and hash(p) == hash(c) and len({p, c}) == 1


@given(kernel_polys())
def test_cancellation_to_zero(p):
    wide = p * 2**130
    for z in (p - p, p + (-p), wide - wide, p * 0, (p - p).shift(5), (p - p).bar()):
        assert z.is_zero() and not z and z.to_pairs() == []
        assert z == ZERO and z == 0 and hash(z) == hash(ZERO)
        assert z + p == p and z * p == ZERO


def test_dense_and_sparse_forms_of_one_value_are_equal():
    # 1 - v^30 from (1 - v)(1 + ... + v^29) packs, but given as a dict its
    # two terms are too far apart to pack; plus v^7, neither is the dict
    dense = (ONE - V) * LaurentPoly({i: 1 for i in range(30)})
    assert dense == LaurentPoly({0: 1, 30: -1}) and hash(dense) == hash(LaurentPoly({0: 1, 30: -1}))
    dense = dense + v_power(7)
    sparse = LaurentPoly({0: 1, 7: 1, 30: -1})
    assert dense._packed is not None and sparse._packed is None
    assert dense == sparse and sparse == dense and hash(dense) == hash(sparse)
    assert dense - sparse == ZERO and (dense - sparse).is_zero()


def layout(p):
    return p._lo, p._packed, p._width


def test_equal_values_from_different_routes_are_laid_out_alike():
    # one slot per exponent from the lowest: equal packed values of one
    # width are one integer at one lowest exponent, whatever built them,
    # so == stays one integer comparison; a sum that leaves one slot,
    # from above or from below, is laid out like ONE
    one_plus_q = LaurentPoly({0: 1, 2: 1})
    cases = [
        (ONE + V + v_power(2) - V, one_plus_q),
        ((ONE + V) * (ONE - V) + v_power(2) * 2, one_plus_q),
        (LaurentPoly.from_pairs([(2, 1), (1, 5), (0, 1), (1, -5)]), one_plus_q),
        (unbalanced_bracket(2), one_plus_q),
        (balanced_binomial(4, 2), LaurentPoly(dict(BALANCED_BINOMIALS[(4, 2)]))),
        (balanced_bracket(2) * balanced_bracket(2), LaurentPoly({-2: 1, 0: 2, 2: 1})),
        ((ONE + v_power(2)) - v_power(2), ONE),
        (v_power(2) - (v_power(2) - ONE), ONE),
    ]
    for got, want in cases:
        assert layout(got) == layout(want) and got == want
        assert got.to_pairs() == want.to_pairs()


def test_central_binomial_of_100_is_exact():
    # [100 choose 50] has coefficients near 2^86: wider than 64-bit slots
    b = balanced_binomial(100, 50)
    pairs = b.to_pairs()
    assert max(c for _, c in pairs).bit_length() > 64 and b._width > 64
    assert sum(c for _, c in pairs) == math.comb(100, 50)
    assert pairs == [(-e, c) for e, c in reversed(pairs)]
    # (100 choose 50)_q at q = 4 from its product formula, times v^-2500
    q, want = 4, Fraction(1)
    for i in range(1, 51):
        want *= Fraction(1 - q ** (50 + i), 1 - q**i)
    assert b.evaluate(2) == want / 2**2500
    assert b == falling_binomial(balanced_bracket, balanced_factorial, 100, 50)


def test_the_bar_of_a_binomial_is_a_shift():
    # Gaussian binomials are palindromic, so for x >= t >= 0 the bar of the
    # one-sided [x choose t] is v^(-t(x-t)) times the balanced one
    for x in range(41):
        for t in range(x + 1):
            want = unbalanced_binomial(x, t).bar()
            assert balanced_binomial(x, t).shift(-t * (x - t)) == want, (x, t)
