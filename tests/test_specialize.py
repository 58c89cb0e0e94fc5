import pytest
from hypothesis import given, settings, strategies as st

from qschur.cyclo import eval_at_root
from qschur.errors import DomainError
from qschur.laurent import V, v_power
from qschur.linalg import exact_rank, flatten_family
from qschur.matrices import theta_pm, zero_matrix
from qschur.schur import SchurElement
from qschur.specialize import (
    bk_independence,
    bk_indices,
    bk_products,
    check_torus_power_trivial,
    specialize,
)
from qschur.symbolic import SymbolicElement, TruncatedElement

CAP = 10


def test_even_order_is_rejected():
    x = SymbolicElement.unit(2).realize_truncated(2)
    with pytest.raises(DomainError):
        specialize(x, 2)
    # no coefficient to evaluate, so specialize checks the order itself
    with pytest.raises(DomainError, match="odd"):
        specialize(TruncatedElement.zero(2, 2), 4)
    with pytest.raises(DomainError):
        bk_independence(bk_products(2, 1, 3), 4)


def test_torus_powers_become_trivial_at_the_root():
    for l in (1, 3, 5):
        for n in (2, 3):
            for i in range(1, n + 1):
                rep = check_torus_power_trivial(i, l, n, 3)
                assert rep["ok"], rep


def test_torus_power_is_not_trivial_before_specialization():
    # the same element compared over the Laurent ring keeps v powers
    n, l = 2, 3
    delta = (l, 0)
    power = SymbolicElement.gen(zero_matrix(n), delta, (0,) * n).realize_truncated(3)
    assert power != TruncatedElement.unit(n, 3)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from((1, 3, 5)), st.data())
def test_specialization_is_multiplicative(l, data):
    n = 2
    mats = theta_pm(n, 2)
    vec = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    nonneg = st.tuples(st.integers(0, 2), st.integers(0, 2))
    x = SymbolicElement.gen(
        data.draw(st.sampled_from(mats)), data.draw(vec), data.draw(nonneg)
    ).realize_truncated(3)
    y = SymbolicElement.gen(
        data.draw(st.sampled_from(mats)), data.draw(vec), data.draw(nonneg)
    ).realize_truncated(3)
    lhs = specialize(x.multiply(y, cap=CAP), l)
    rhs = specialize(x, l).multiply(specialize(y, l), CAP)
    assert lhs == rhs


def test_specialized_unit_is_neutral():
    n, r_max, l = 2, 3, 3
    unit = specialize(TruncatedElement.unit(n, r_max), l)
    x = specialize(
        SymbolicElement.gen(((0, 1), (0, 0)), (0, 0), (1, 0)).realize_truncated(r_max),
        l,
    )
    assert unit.multiply(x, CAP) == x
    assert x.multiply(unit, CAP) == x


def test_family_is_independent_at_small_scale():
    rep = bk_independence(bk_products(2, 2, 5), 3)
    assert rep["independent"]
    assert rep["rank"] == rep["rows"] == len(bk_indices(2, 2))
    assert "witness" in rep["note"]


def test_duplicated_member_is_detected_as_dependent():
    # appending a scalar multiple of the first member must drop the
    # verdict to dependent over the cyclotomic field
    n, bound, l, r_max = 2, 1, 3, 3
    family = [specialize(x, l) for x in bk_products(n, bound, r_max)]
    eps = eval_at_root(V, l)
    extra = family[0].scale(eps)
    rows, _ = flatten_family(family + [extra])
    assert exact_rank(rows) == len(family)


def test_specialized_elements_add_subtract_scale_and_multiply():
    # specialization is a ring map, so it commutes with every operation
    # of the element type; a Laurent scalar scales cyclotomic
    # coefficients through its value at the root
    n, r_max, l = 2, 3, 3
    x = SymbolicElement.gen(((0, 1), (0, 0)), (1, 0), (1, 0)).realize_truncated(r_max)
    y = SymbolicElement.gen(((0, 0), (2, 0)), (0, -1), (0, 1)).realize_truncated(r_max)
    sx, sy = specialize(x, l), specialize(y, l)
    assert sx + sy == specialize(x + y, l)
    assert sx - sy == specialize(x - y, l)
    assert sx - sx == TruncatedElement.zero(n, r_max)
    c = V + v_power(-2) * 3
    assert sx.scale(c) == specialize(x.scale(c), l)
    assert sx.scale(eval_at_root(c, l)) == sx.scale(c)
    assert sx.scale(-1) == specialize(x.scale(-1), l)
    assert sx.multiply(sy, CAP) == specialize(x.multiply(y, CAP), l)
    assert isinstance(sx.components[2], SchurElement)


def test_bk_indices_counting():
    # off-diagonal weight s leaves bound - s for the binomial part
    assert len(bk_indices(2, 2)) == 15
    assert len(bk_indices(2, 0)) == 1
    assert len(bk_indices(3, 1)) == 10
