import pytest
from hypothesis import given, settings, strategies as st

from qschur.errors import DomainError
from qschur.laurent import balanced_binomial
from qschur.matrices import zero_matrix
from qschur.presentation import (
    DividedLower,
    DividedRaise,
    PBWIndex,
    TorusBinom,
    TorusPower,
    check_relations,
    generator_element,
    pbw_family,
    pbw_monomial,
    pbw_word,
    realize_word,
)
from qschur import schur
from qschur.specialize import bk_independence
from qschur.symbolic import TruncatedElement

CAP = 10


def test_all_relations_hold_at_small_scale():
    for n, r_max in ((2, 4), (3, 3)):
        rep = check_relations(n, r_max)
        assert rep["ok"], rep["failures"]
        assert rep["failures"] == []
        assert rep["instances"] > 0


def test_generator_symbols_validate():
    with pytest.raises(DomainError):
        generator_element(DividedRaise(0, 1), 2)
    with pytest.raises(DomainError):
        generator_element(DividedRaise(2, 1), 2)
    with pytest.raises(DomainError):
        generator_element(TorusPower(3, 1), 2)


def test_divided_power_merge():
    # E_h^(a) E_h^(b) realizes to the binomial multiple of E_h^(a+b)
    n, r_max = 2, 4
    lhs = realize_word((DividedRaise(1, 1), DividedRaise(1, 2)), n, r_max)
    rhs = realize_word((DividedRaise(1, 3),), n, r_max)
    assert lhs == rhs.scale(balanced_binomial(3, 1))


def test_word_realization_is_right_to_left_composition():
    n, r_max = 2, 3
    word = (DividedRaise(1, 1), DividedLower(1, 1))
    one_shot = realize_word(word, n, r_max)
    staged = generator_element(DividedRaise(1, 1), n).realize_truncated(r_max).multiply(
        generator_element(DividedLower(1, 1), n).realize_truncated(r_max),
        cap=CAP,
    )
    assert one_shot == staged


def test_empty_word_is_the_unit():
    assert realize_word((), 2, 3) == TruncatedElement.unit(2, 3)


def count_family(n, bound):
    # matrices with off-diagonal weight s contribute binomial exponent
    # budget bound - s; exponent vectors over {0,1} are free
    from qschur.matrices import entry_sum, theta_pm
    from qschur.vectors import compositions

    total = 0
    for a in theta_pm(n, bound):
        for ls in range(bound - entry_sum(a) + 1):
            total += len(tuple(compositions(n, ls))) * 2**n
    return total


def test_family_size_matches_the_counting_formula():
    assert len(pbw_family(2, 2)) == count_family(2, 2) == 60
    assert len(pbw_family(2, 1)) == count_family(2, 1)
    assert len(pbw_family(3, 1)) == count_family(3, 1)


def test_pbw_word_shape():
    idx = PBWIndex(((0, 1), (1, 0)), (1, 0), (2, 0))
    word = pbw_word(idx)
    kinds = [type(sym).__name__ for sym in word]
    # raising block, torus block, lowering block, in that order
    first_lower = kinds.index("DividedLower")
    assert all(k != "DividedRaise" for k in kinds[first_lower:])
    assert "TorusPower" in kinds or "TorusBinom" in kinds


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(pbw_family(2, 2)))
def test_pbw_monomials_realize_nonzero(idx):
    el = pbw_monomial(idx, 4)
    assert not el.is_zero()


def test_generator_products_never_reach_the_oracle(monkeypatch):
    # the reason these paths take no oracle cap: a single generator on
    # the left, or a torus element on the right, always has a
    # structured rule, even above the default cap of 6
    def no_oracle(*args):
        raise AssertionError(f"oracle reached: {args}")

    monkeypatch.setattr(schur, "oracle_product", no_oracle)
    schur._basis_product_cached.cache_clear()
    try:
        assert check_relations(2, 5)["ok"]
        assert check_relations(3, 5)["ok"]
        for idx in pbw_family(2, 2):
            pbw_monomial(idx, 7)
        assert bk_independence(2, 2, 3, 5)["independent"]
    finally:
        schur._basis_product_cached.cache_clear()
