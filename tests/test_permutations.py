from hypothesis import given, strategies as st

from qschur.permutations import (
    all_permutations,
    block_ranges,
    inverse,
    length,
    young_subgroup,
)
from sr_reference import adjacent_transposition, compose, identity, mult_gen_right, reduced_word


def perms(r):
    return st.permutations(tuple(range(r))).map(tuple)


@given(st.integers(1, 5), st.data())
def test_group_axioms(r, data):
    w = data.draw(perms(r))
    u = data.draw(perms(r))
    assert compose(w, inverse(w)) == identity(r)
    assert compose(identity(r), w) == w
    assert inverse(compose(w, u)) == compose(inverse(u), inverse(w))


@given(st.integers(2, 5), st.data())
def test_length_is_inversion_count(r, data):
    w = data.draw(perms(r))
    inv = sum(
        1
        for i in range(r)
        for j in range(i + 1, r)
        if w[i] > w[j]
    )
    assert length(w) == inv
    assert length(inverse(w)) == inv


@given(st.integers(2, 5), st.data())
def test_reduced_word_reassembles(r, data):
    w = data.draw(perms(r))
    word = reduced_word(w)
    assert len(word) == length(w)
    acc = identity(r)
    for i in word:
        acc = mult_gen_right(acc, i)
    assert acc == w


@given(st.integers(2, 5), st.data())
def test_generators_are_involutions(r, data):
    i = data.draw(st.integers(0, r - 2))
    s = adjacent_transposition(r, i)
    assert compose(s, s) == identity(r)
    assert length(s) == 1


def test_all_permutations_sizes():
    import math

    for r in range(1, 6):
        assert len(all_permutations(r)) == math.factorial(r)


def test_young_subgroup_order_is_product_of_factorials():
    import math

    for lam in ((2, 1), (3,), (1, 1, 1), (2, 2)):
        want = 1
        for part in lam:
            want *= math.factorial(part)
        assert len(young_subgroup(lam)) == want


def test_block_ranges_partition():
    assert [list(b) for b in block_ranges((2, 0, 3))] == [[0, 1], [], [2, 3, 4]]
