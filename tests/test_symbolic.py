from hypothesis import given, settings, strategies as st

from qschur.laurent import ONE, v_power
from qschur.matrices import (
    add_to_entry,
    entry_sum,
    theta_pm,
    zero_matrix,
)
from qschur.symbolic import (
    SymbolicElement,
    TruncatedElement,
    delta_reduce,
    lowering_mult,
    raising_mult,
    torus_mult,
    triangular_product,
    triangular_word,
)

CAP = 10


def gens(n, smax=2, dmax=2, lmax=2):
    mats = st.sampled_from(theta_pm(n, smax))
    vec = st.tuples(*(st.integers(-dmax, dmax) for _ in range(n)))
    nonneg = st.tuples(*(st.integers(0, lmax) for _ in range(n)))
    return st.builds(SymbolicElement.gen, mats, vec, nonneg)


def test_unit_realizes_to_the_unit():
    for n in (2, 3):
        got = SymbolicElement.unit(n).realize_truncated(3)
        assert got == TruncatedElement.unit(n, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.data())
def test_realization_is_additive(n, data):
    x = data.draw(gens(n))
    y = data.draw(gens(n))
    lhs = (x + y).realize_truncated(3)
    rhs = x.realize_truncated(3) + y.realize_truncated(3)
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.data())
def test_torus_formula_matches_the_product(n, data):
    x = data.draw(gens(n))
    gamma = data.draw(st.tuples(*(st.integers(-2, 2) for _ in range(n))))
    mu = data.draw(st.tuples(*(st.integers(0, 2) for _ in range(n))))
    got = torus_mult(gamma, mu, x).realize_truncated(3)
    left = SymbolicElement.gen(zero_matrix(n), gamma, mu).realize_truncated(3)
    assert got == left.multiply(x.realize_truncated(3), cap=CAP)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.data())
def test_transfer_formulas_match_the_product(n, data):
    x = data.draw(gens(n))
    h = data.draw(st.integers(1, n - 1))
    m = data.draw(st.integers(1, 2))
    for kind in ("E", "F"):
        if kind == "E":
            sym = raising_mult(m, h, x)
            gmat = add_to_entry(zero_matrix(n), h, h + 1, m)
        else:
            sym = lowering_mult(m, h, x)
            gmat = add_to_entry(zero_matrix(n), h + 1, h, m)
        left = SymbolicElement.gen(gmat, (0,) * n, (0,) * n)
        got = sym.realize_truncated(3)
        want = left.realize_truncated(3).multiply(
            x.realize_truncated(3), cap=CAP
        )
        assert got == want


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.data())
def test_delta_reduce_normalizes_without_changing_the_realization(n, data):
    x = data.draw(gens(n, dmax=3))
    y = torus_mult(
        data.draw(st.tuples(*(st.integers(-3, 3) for _ in range(n)))),
        data.draw(st.tuples(*(st.integers(0, 2) for _ in range(n)))),
        x,
    )
    reduced = delta_reduce(y)
    for _, delta, _ in reduced.terms:
        assert all(0 <= d <= 1 for d in delta)
    assert y.realize_truncated(3) == reduced.realize_truncated(3)


def test_triangular_word_splits_off_diagonal_mass():
    a = ((0, 2), (1, 0))
    word = triangular_word(a)
    kinds = [w[0] for w in word]
    # raises first, then lowers; total transfer equals the mass
    assert kinds == sorted(kinds, key=lambda k: 0 if k == "E" else 1)
    total = sum(w[2] for w in word)
    assert total == entry_sum(a)


def test_triangular_product_report_structure():
    for a in theta_pm(2, 2):
        if entry_sum(a) == 0:
            continue
        el, rep = triangular_product(a, 3)
        assert rep["leading_is_one"]
        assert rep["lower_terms_precede"]
        assert rep["norms_decrease"]
        assert isinstance(el, TruncatedElement)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.data())
def test_truncated_scale_divexact_roundtrip(n, data):
    x = data.draw(gens(n)).realize_truncated(2)
    c = v_power(data.draw(st.integers(-2, 2))) + ONE
    assert x.scale(c).scale_divexact(c) == x
