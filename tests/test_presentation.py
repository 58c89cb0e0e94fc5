from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qschur.errors import DimensionMismatch, DomainError
from qschur.laurent import balanced_binomial
from qschur.matrices import entry_matrix, zero_matrix
from qschur.presentation import (
    check_relations,
    pbw_family,
    pbw_monomial,
    pbw_word,
    realize_word,
)
from qschur import schur
from qschur.specialize import bk_independence, bk_products
from qschur.symbolic import SymbolicElement, TruncatedElement, fold_word

Z = (0, 0)


def E(m=1):
    return (entry_matrix(2, 1, 2, m), Z, Z)


def F(m=1):
    return (entry_matrix(2, 2, 1, m), Z, Z)

CAP = 10


def test_all_relations_hold_at_small_scale():
    for n, r_max in ((2, 4), (3, 3)):
        rep = check_relations(n, r_max)
        assert rep["ok"], rep["failures"]
        assert rep["failures"] == []
        assert rep["instances"] > 0


def test_generator_symbols_validate():
    # a letter is one generator key; realize_word refuses anything else
    for key in (
        (((0, 1), (1, 0)), Z, Z),
        (((0, 1), (0, 0)), (0, 1), Z),
        (((0, 2), (0, 0)), Z, (1, 0)),
    ):
        with pytest.raises(DomainError):
            realize_word((key,), 2, 2)
        with pytest.raises(DomainError):
            realize_word((E(), key, F()), 2, 2)


def test_divided_power_merge():
    # E_h^(a) E_h^(b) realizes to the binomial multiple of E_h^(a+b)
    n, r_max = 2, 4
    lhs = realize_word((E(1), E(2)), n, r_max)
    rhs = realize_word((E(3),), n, r_max)
    assert lhs == rhs.scale(balanced_binomial(3, 1))


def test_word_realization_is_right_to_left_composition():
    n, r_max = 2, 3
    one_shot = realize_word((E(), F()), n, r_max)
    staged = SymbolicElement.gen(*E()).realize_truncated(r_max).multiply(
        SymbolicElement.gen(*F()).realize_truncated(r_max),
        cap=CAP,
    )
    assert one_shot == staged


def test_symbolic_fold_realizes_to_the_word():
    # the two routes share only the word: torus, raising and lowering
    # letters folded on the symbolic side, then realized, against the
    # letters realized first and multiplied degree by degree
    unit = SymbolicElement.unit(2)
    for key in pbw_family(2, 2):
        word = pbw_word(key)
        folded = fold_word(word, unit).realize_truncated(4)
        assert folded == realize_word(word, 2, 4), key


def test_empty_word_is_the_unit():
    assert realize_word((), 2, 3) == TruncatedElement.unit(2, 3)


def test_keys_of_another_size_are_rejected():
    e3 = (entry_matrix(3, 1, 2), (0,) * 3, (0,) * 3)
    for word in ((e3,), (e3, e3), (E(), e3)):
        with pytest.raises(DimensionMismatch):
            realize_word(word, 2, 2)


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
    # raising block, then per coordinate the torus powers and the
    # binomial, then the lowering block
    zero = zero_matrix(2)
    assert pbw_word((((0, 1), (1, 0)), (1, 0), (2, 0))) == (
        E(),
        (zero, (1, 0), Z),
        (zero, Z, (2, 0)),
        F(),
    )
    assert pbw_word((zero, (0, -2), Z)) == ((zero, (0, -1), Z),) * 2


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(pbw_family(2, 2)))
def test_pbw_monomials_realize_nonzero(key):
    el = pbw_monomial(key, 4)
    assert not el.is_zero()


def test_generator_products_never_reach_the_oracle(monkeypatch):
    # the reason these paths take no oracle cap: a single generator on
    # the left, or a torus element on the right, always has a
    # structured rule, even above the default cap of 6
    def no_oracle(*args):
        raise AssertionError(f"oracle reached: {args}")

    monkeypatch.setattr(schur, "oracle_product", no_oracle)
    assert check_relations(2, 5)["ok"]
    assert check_relations(3, 5)["ok"]
    for key in pbw_family(2, 2):
        pbw_monomial(key, 7)
    assert bk_independence(bk_products(2, 2, 5), 3)["independent"]


def _relation_instances(n):
    # the (relation, i, j) triples of check_relations, listed by family
    pairs = [(i, j) for i in range(1, n) for j in range(1, n)]
    out = [("torus-commute", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out += [("torus-inverse", i, i) for i in range(1, n + 1)]
    out += [("commutator", i, j) for i, j in pairs]
    for kind in ("raise", "lower"):
        out += [(f"torus-{kind}", i, j) for i in range(1, n + 1) for j in range(1, n)]
        out += [(f"distant-{kind}", i, j) for i, j in pairs if abs(i - j) > 1]
        out += [(f"serre-{kind}", i, j) for i, j in pairs if abs(i - j) == 1]
        out += [(f"divided-{kind}", h, 10 * a + b)
                for h in range(1, n) for a in (1, 2, 3) for b in (1, 2, 3)]
    return out


def test_every_relation_instance_is_checked(monkeypatch):
    # with every comparison false, each instance reports itself
    monkeypatch.setattr(TruncatedElement, "__eq__", lambda self, other: False)
    for n, total in ((2, 26), (3, 62), (4, 109)):
        rep = check_relations(n, 2)
        failed = Counter((f["relation"], f["i"], f["j"]) for f in rep["failures"])
        assert rep["instances"] == total == sum(failed.values())
        assert failed == Counter(_relation_instances(n))
    assert Counter(name for name, _, _ in failed.elements()) == {
        "commutator": 9, "torus-commute": 6, "torus-inverse": 4,
        "torus-raise": 12, "torus-lower": 12, "distant-raise": 2, "distant-lower": 2,
        "serre-raise": 4, "serre-lower": 4, "divided-raise": 27, "divided-lower": 27,
    }
