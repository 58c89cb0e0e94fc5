import time
from functools import cache
from itertools import permutations, product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qschur import hecke
from qschur.errors import ConsistencyError, DimensionMismatch, DomainError, ResourceLimit
from qschur.hecke import (
    distinguished_reps,
    hecke_add_into,
    norm_exponent,
    oracle_product,
    right_mult_gen,
    x_lambda,
)
from qschur.laurent import ONE, LaurentPoly, v_power
from qschur.matrices import entry_sum, ro, co, theta_matrices, transpose
from qschur.permutations import all_permutations, length, young_subgroup
from sr_reference import (
    adjacent_transposition,
    compose,
    coset_to_matrix,
    hecke_multiply,
    hecke_unit,
    identity,
    matrix_to_coset,
    mult_gen_right,
    reduced_word,
    right_mult_perm,
)


def compositions_of(r, n):
    if n == 1:
        yield (r,)
        return
    for first in range(r + 1):
        for rest in compositions_of(r - first, n - 1):
            yield (first,) + rest


def single(w, c=None):
    return {w: c if c is not None else ONE}


@given(st.integers(1, 4), st.data())
def test_quadratic_relation(r, data):
    # T_s T_s = (v^2 - 1) T_s + v^2 T_e on every basis element
    w = data.draw(st.permutations(tuple(range(r))).map(tuple))
    for i in range(r - 1):
        s = adjacent_transposition(r, i)
        lhs = hecke_multiply(single(s), single(s))
        want = {identity(r): v_power(2)}
        want[s] = LaurentPoly.from_pairs([(2, 1), (0, -1)])
        assert lhs == {k: v for k, v in want.items() if not v.is_zero()}
        left = hecke_multiply(single(w), hecke_multiply(single(s), single(s)))
        right = hecke_multiply(hecke_multiply(single(w), single(s)), single(s))
        assert left == right


@given(st.integers(2, 4), st.data())
@settings(max_examples=25, deadline=None)
def test_basis_multiplication_is_associative(r, data):
    w = data.draw(st.permutations(tuple(range(r))).map(tuple))
    u = data.draw(st.permutations(tuple(range(r))).map(tuple))
    x = data.draw(st.permutations(tuple(range(r))).map(tuple))
    lhs = hecke_multiply(hecke_multiply(single(w), single(u)), single(x))
    rhs = hecke_multiply(single(w), hecke_multiply(single(u), single(x)))
    assert lhs == rhs


@given(st.integers(1, 4), st.data())
def test_length_additive_products_concatenate(r, data):
    w = data.draw(st.permutations(tuple(range(r))).map(tuple))
    u = data.draw(st.permutations(tuple(range(r))).map(tuple))
    if length(compose(w, u)) != length(w) + length(u):
        return
    assert hecke_multiply(single(w), single(u)) == single(compose(w, u))


def test_unit_is_neutral():
    h = single((1, 0, 2), v_power(3))
    assert hecke_multiply(hecke_unit(3), h) == h
    assert hecke_multiply(h, hecke_unit(3)) == h


def count_matrices_with_margins(lam, mu):
    n, m = len(lam), len(mu)
    count = 0
    for entries in product(*(range(min(r, c) + 1) for r in lam for c in mu)):
        a = [entries[i * m : (i + 1) * m] for i in range(n)]
        if all(sum(row) == r for row, r in zip(a, lam)) and all(
            sum(a[i][j] for i in range(n)) == mu[j] for j in range(m)
        ):
            count += 1
    return count


@given(st.integers(1, 4), st.integers(1, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_distinguished_reps_count_contingency_tables(r, n, data):
    lam = data.draw(st.sampled_from(tuple(compositions_of(r, n))))
    mu = data.draw(st.sampled_from(tuple(compositions_of(r, n))))
    assert len(distinguished_reps(lam, mu)) == count_matrices_with_margins(lam, mu)


@given(st.integers(1, 4), st.integers(2, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_coset_matrix_roundtrip(r, n, data):
    lam = data.draw(st.sampled_from(tuple(compositions_of(r, n))))
    mu = data.draw(st.sampled_from(tuple(compositions_of(r, n))))
    for d in distinguished_reps(lam, mu):
        a = coset_to_matrix(lam, d, mu)
        assert ro(a) == lam and co(a) == mu
        lam2, d2, mu2 = matrix_to_coset(a)
        assert (lam2, d2, mu2) == (lam, d, mu)


def test_norm_exponent_small_cases():
    # identity cosets carry no correction; a single antidiagonal cell pair does
    assert norm_exponent(((1, 0), (0, 1))) == 0
    assert norm_exponent(((0, 1), (1, 0))) == 1
    assert norm_exponent(((1, 1), (1, 1))) == 3
    assert norm_exponent(((0, 2), (2, 0))) == 4


def test_x_lambda_sums_the_young_subgroup():
    lam = (2, 1)
    x = x_lambda(lam)
    members = young_subgroup(lam)
    assert set(x) == set(members)
    for w in members:
        assert x[w] == ONE


def test_oracle_product_unit_and_cap():
    unit = ((1, 0), (0, 1))
    assert oracle_product(unit, unit, 10) == {unit: ONE}
    with pytest.raises(ResourceLimit):
        oracle_product(((9, 0), (0, 0)), ((9, 0), (0, 0)), 3)
    with pytest.raises(DimensionMismatch):
        oracle_product(((1, 0), (0, 0)), ((2, 0), (0, 0)), 10)
    # a negative entry is malformed input whatever the margins and the cap
    for a, b in [
        (((2, -1), (0, 1)), ((2, 0), (0, 0))),
        (((1, -1), (1, 1)), ((1, 0), (0, 1))),
        (((5, -1), (0, 3)), ((5, 0), (0, 2))),
    ]:
        with pytest.raises(DomainError):
            oracle_product(a, b)


@given(st.integers(2, 3), st.integers(1, 3), st.data())
@settings(max_examples=20, deadline=None)
def test_oracle_product_is_associative_on_basis_triples(n, r, data):
    mats = theta_matrices(n, r)
    a = data.draw(st.sampled_from(mats))
    b = data.draw(st.sampled_from([m for m in mats if ro(m) == co(a)]))
    c = data.draw(st.sampled_from([m for m in mats if ro(m) == co(b)]))
    left = {}
    for m, x in oracle_product(a, b, 10).items():
        for k, y in oracle_product(m, c, 10).items():
            left[k] = left.get(k, LaurentPoly.from_int(0)) + x * y
    right = {}
    for m, x in oracle_product(b, c, 10).items():
        for k, y in oracle_product(a, m, 10).items():
            right[k] = right.get(k, LaurentPoly.from_int(0)) + x * y
    assert {k: v for k, v in left.items() if not v.is_zero()} == {
        k: v for k, v in right.items() if not v.is_zero()
    }


def test_degree_one_products_behave_like_matrix_units():
    # in degree 1 the basis matrices are the elementary cells and multiply
    # like matrix units with no v corrections
    n = 3
    for i, j, k, l in product(range(n), repeat=4):
        a = tuple(
            tuple(1 if (x, y) == (i, j) else 0 for y in range(n)) for x in range(n)
        )
        b = tuple(
            tuple(1 if (x, y) == (k, l) else 0 for y in range(n)) for x in range(n)
        )
        got = oracle_product(a, b, 5)
        if j == k:
            want_mat = tuple(
                tuple(1 if (x, y) == (i, l) else 0 for y in range(n))
                for x in range(n)
            )
            assert got == {want_mat: ONE}
        else:
            assert got == {}


# An independent reference on S_r: double cosets built as {x w y} over
# all pairs of Young-subgroup elements, elements of x_lam H kept as
# dicts over permutations, and each T_d replayed by its reduced word.


@cache
def all_pairs_double_coset_data(lam, mu):
    # the representatives in (length, lex) order, the map to the
    # representative, and each double coset's members in the same order
    left, right = young_subgroup(lam), young_subgroup(mu)
    rep_of, orbits, reps = {}, {}, []
    for w in all_permutations(sum(lam)):
        if w in rep_of:
            continue
        members = {compose(x, compose(w, y)) for x in left for y in right}
        reps.append(w)
        for u in members:
            rep_of[u] = w
        orbits[w] = tuple(sorted(members, key=lambda u: (length(u), u)))
    return tuple(reps), rep_of, orbits


def coset_sum(lam, d, mu):
    _, rep_of, orbits = all_pairs_double_coset_data(lam, mu)
    return {w: ONE for w in orbits[rep_of[d]]}


def reference_oracle_product(a, b):
    lam_a, d_a, mu_a = matrix_to_coset(a)
    lam_b, d_b, mu_b = matrix_to_coset(b)
    y = coset_sum(lam_b, d_b, mu_b)
    right_rep = all_pairs_double_coset_data(lam_b, (1,) * len(d_b))[1]
    reps = {right_rep[w] for w in y}
    assert len(y) == len(reps) * len(young_subgroup(lam_b))
    image_of_x = coset_sum(lam_a, d_a, mu_a)
    z = {}
    for d in reps:
        hecke_add_into(z, right_mult_perm(image_of_x, d))
    _, rep_of, orbits = all_pairs_double_coset_data(lam_a, mu_b)
    groups = {}
    for w, c in z.items():
        groups.setdefault(rep_of[w], {})[w] = c
    shift = -norm_exponent(a) - norm_exponent(b)
    out = {}
    for e, part in groups.items():
        assert part == {w: part[e] for w in orbits[e]}
        m = coset_to_matrix(lam_a, e, mu_b)
        coeff = part[e] * v_power(shift + norm_exponent(m))
        if not coeff.is_zero():
            out[m] = coeff
    return out


def word_of(lam, w):
    # the weight word of x_lam T_w: position p carries the lam-block of w(p)
    block = [k for k, part in enumerate(lam) for _ in range(part)]
    return tuple(block[x] for x in w)


def min_rep(lam, u):
    # the minimal d with word u: the k's of u take the values of block k
    # in increasing order
    nxt = [sum(lam[:k]) for k in range(len(lam))]
    d = []
    for k in u:
        d.append(nxt[k])
        nxt[k] += 1
    return tuple(d)


def weight_words(lam):
    return sorted(set(permutations(word_of(lam, identity(sum(lam))))))


def as_words(lam, h):
    # an element of x_lam H over permutations, read back over words; each
    # right coset must be whole and carry one coefficient
    groups = {}
    for w, c in h.items():
        groups.setdefault(word_of(lam, w), []).append(c)
    for cs in groups.values():
        assert len(cs) == len(young_subgroup(lam)) and all(c == cs[0] for c in cs)
    return {u: cs[0] for u, cs in groups.items()}


def positive_compositions(r):
    return [c for n in range(1, r + 1) for c in compositions_of(r, n) if 0 not in c]


def test_double_coset_sum_extreme_cases():
    # at lam = mu = (r) the double coset is all of S_r, one right coset
    # with the sorted word; at (1,..,1) a point, the identity
    assert hecke._double_coset_words(((3,),)) == ((0, 0, 0),)
    assert hecke._double_coset_words(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == ((0, 1, 2),)
    # in general the words are the right cosets of the all-pairs double coset
    for n in (2, 3):
        for r in range(5):
            for a in theta_matrices(n, r):
                lam, d, mu = matrix_to_coset(a)
                words = hecke._double_coset_words(a)
                assert len(set(words)) == len(words)
                assert set(words) == {word_of(lam, w) for w in coset_sum(lam, d, mu)}, a


def test_distinguished_reps_match_the_all_pairs_construction():
    cases = 0
    for n in (1, 2, 3):
        for r in range(6):
            for lam in compositions_of(r, n):
                for mu in compositions_of(r, n):
                    want = all_pairs_double_coset_data(lam, mu)[0]
                    assert distinguished_reps(lam, mu) == want, (lam, mu)
                    cases += 1
    assert cases == 6 + 91 + 812


def test_word_step_is_right_multiplication_in_x_lambda_h():
    # right_mult_gen on the word u is x_lam T_d(u) T_j, computed on
    # permutations from x_lambda and read back as words; equal letters
    # at j, j+1 are the case d s_j = s_i d with s_i in W_lam
    cases = 0
    for r in range(1, 6):
        for lam in positive_compositions(r):
            for u in weight_words(lam):
                x_d = hecke_multiply(x_lambda(lam), single(min_rep(lam, u)))
                assert as_words(lam, x_d) == {u: ONE}
                for j in range(r - 1):
                    t_j = single(adjacent_transposition(r, j))
                    want = as_words(lam, hecke_multiply(x_d, t_j))
                    assert right_mult_gen({u: v_power(-1)}, j) == {
                        w: v_power(-1) * c for w, c in want.items()
                    }, (lam, u, j)
                    cases += 1
    assert cases == 3 + 26 + 225 + 2164


def composable_pairs(n, r):
    mats = theta_matrices(n, r)
    return [(a, b) for a in mats for b in mats if co(a) == ro(b)]


# r = 6 and r = 7 pairs from the benchmark's oracle schedule, plus a
# generic and a sparse product at n = 2
LARGE_PAIRS = (
    (((3, 0), (1, 3)), ((2, 2), (2, 1))),
    (((3, 1), (0, 3)), ((1, 2), (3, 1))),
    (((2, 1), (1, 2)), ((1, 2), (2, 1))),
    (((3, 0), (0, 3)), ((0, 3), (3, 0))),
    (((1, 1, 0), (0, 1, 1), (1, 0, 1)), ((1, 1, 0), (0, 1, 1), (1, 0, 1))),
    (((2, 0, 0), (1, 1, 0), (0, 1, 2)), ((1, 1, 1), (0, 1, 1), (1, 0, 1))),
    (((1, 1, 1), (1, 0, 1), (0, 1, 1)), ((1, 0, 1), (0, 2, 0), (1, 0, 2))),
)


def test_oracle_product_matches_the_permutation_reference():
    pairs = [p for r in range(6) for p in composable_pairs(2, r)]
    pairs += [p for r in range(5) for p in composable_pairs(3, r)]
    for a, b in pairs:
        assert oracle_product(a, b, 5) == reference_oracle_product(a, b), (a, b)
    assert {entry_sum(a) for a, _ in LARGE_PAIRS} == {6, 7}
    for a, b in LARGE_PAIRS:
        assert co(a) == ro(b)
        got = oracle_product(a, b, 7)
        assert got and got == reference_oracle_product(a, b), (a, b)


def test_minimal_right_coset_representatives_are_prefix_closed():
    # the leftmost descent of a word is the last letter of a reduced word
    # of its minimal representative d, and swapping it gives the word of
    # d s_j, again minimal and one shorter: this is what lets
    # `oracle_product` walk the words of one weight as a tree
    for r in range(1, 7):
        for lam in positive_compositions(r):
            for u in weight_words(lam):
                d = min_rep(lam, u)
                assert word_of(lam, d) == u
                assert length(d) == min(length(compose(x, d)) for x in young_subgroup(lam))
                word = reduced_word(d)
                if word:
                    j = word[-1]
                    assert j == next(i for i in range(r - 1) if u[i] > u[i + 1])
                    parent = mult_gen_right(d, j)
                    assert parent == min_rep(lam, mult_gen_right(u, j))
                    assert length(parent) == length(d) - 1, (lam, d)


def test_oracle_product_takes_one_generator_step_per_tree_node(monkeypatch):
    # a deterministic cost guard: at most one right_mult_gen call per
    # non-root word of weight ro(b), where replaying every reduced word
    # makes sum(len(word)) calls
    calls = []
    step = hecke.right_mult_gen

    def counted(h, i):
        calls.append(i)
        return step(h, i)

    monkeypatch.setattr(hecke, "right_mult_gen", counted)
    a, b = ((3, 0), (1, 3)), ((2, 2), (2, 1))
    bound = len(weight_words(ro(b))) - 1
    assert bound == 34
    assert oracle_product(a, b, 7)
    assert len(calls) <= bound


def test_coset_rewrites_check_their_reconstruction():
    # over the blocks of mu = (2, 1), the words (0, 1, 0) and (1, 0, 0)
    # form one double coset and (0, 0, 1) another
    read = hecke._double_coset_coeffs
    mu = (2, 1)
    q = v_power(2)
    assert read({(0, 1, 0): q, (1, 0, 0): q}, mu) == {((1, 1), (1, 0)): q}
    assert read({(0, 0, 1): q}, mu) == {((2, 0), (0, 1)): q}
    for bad in ({(0, 1, 0): ONE}, {(0, 1, 0): ONE, (1, 0, 0): v_power(1)}):
        with pytest.raises(ConsistencyError):
            read(bad, mu)


def test_coset_rewrites_check_their_reconstruction_with_warm_tables():
    # the same checks after a product has filled the tables of its shapes
    read = hecke._double_coset_coeffs
    a, b = ((3, 0), (1, 3)), ((2, 2), (2, 1))
    got = oracle_product(a, b, 7)
    mu = co(b)
    m = max(got, key=lambda m: len(hecke._double_coset_words(m)))
    before = hecke._double_coset_words.cache_info()
    orbit = hecke._double_coset_words(m)
    assert hecke._double_coset_words.cache_info().hits == before.hits + 1
    assert len(orbit) > 2 and co(m) == mu
    c = got[m]
    assert read(dict.fromkeys(orbit, c), mu) == {m: c}
    for bad in (dict.fromkeys(orbit[1:], c), {**dict.fromkeys(orbit, c), orbit[-1]: c.shift(1)}):
        with pytest.raises(ConsistencyError):
            read(bad, mu)
    assert oracle_product(a, b, 7) == got


def transposed_product(a, b, cap):
    # [a][b] read off [b^T][a^T]: transposing is an anti-automorphism
    return {transpose(m): c for m, c in oracle_product(transpose(b), transpose(a), cap).items()}


def test_transpose_reverses_oracle_products():
    pairs = [p for r in range(6) for p in composable_pairs(2, r)]
    pairs += [p for r in range(4) for p in composable_pairs(3, r)]
    assert len(pairs) == 4318
    for a, b in pairs:
        assert oracle_product(a, b, 5) == transposed_product(a, b, 5), (a, b)


def random_pair(rng, n, r):
    # a: r units dropped into random cells; b: the units of each column
    # of a dropped into random cells of the matching row of b
    cells = [0] * (n * n)
    for _ in range(r):
        cells[rng.randrange(n * n)] += 1
    a = tuple(tuple(cells[i * n : (i + 1) * n]) for i in range(n))
    rows = [[0] * n for _ in range(n)]
    for i, units in enumerate(co(a)):
        for _ in range(units):
            rows[i][rng.randrange(n)] += 1
    return a, tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("n, r", [(2, 8), (2, 9), (3, 8), (3, 9)])
def test_transpose_reverses_oracle_products_above_the_default_cap(n, r):
    rng = Random(10 * n + r)
    for _ in range(3):
        a, b = random_pair(rng, n, r)
        got = oracle_product(a, b, r)
        assert got and got == transposed_product(a, b, r), (a, b)
        with pytest.raises(ResourceLimit):
            oracle_product(a, b, r - 1)


# r = 8 products that took 1-5 s each when the oracle enumerated S_8
R8_PAIRS = (
    (((4, 0), (1, 3)), ((3, 2), (2, 1))),
    (((3, 1), (1, 3)), ((3, 1), (1, 3))),
    (((0, 4), (4, 0)), ((2, 2), (2, 2))),
    (((1, 2, 0), (1, 1, 1), (0, 1, 1)), ((1, 1, 0), (1, 2, 1), (0, 0, 2))),
    (((1, 1, 1), (1, 1, 0), (1, 0, 2)), ((1, 1, 1), (1, 1, 0), (1, 0, 2))),
)


def test_oracle_product_cost_follows_the_weight_spaces():
    started = time.perf_counter()
    products = [oracle_product(a, b, 8) for a, b in R8_PAIRS]
    assert time.perf_counter() - started < 0.5
    assert all(products)
