from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qschur import hecke
from qschur.errors import ConsistencyError, DimensionMismatch, ResourceLimit
from qschur.hecke import (
    coset_to_matrix,
    distinguished_reps,
    double_coset_sum,
    hecke_multiply,
    hecke_unit,
    matrix_to_coset,
    norm_exponent,
    oracle_product,
    x_lambda,
)
from qschur.laurent import ONE, LaurentPoly, v_power
from qschur.matrices import entry_sum, ro, co, theta_matrices
from qschur.permutations import all_permutations, identity, length


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
    from qschur.permutations import adjacent_transposition

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
    from qschur.permutations import compose

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
    from qschur.permutations import young_subgroup

    lam = (2, 1)
    x = x_lambda(lam)
    members = young_subgroup(lam)
    assert set(x) == set(members)
    for w in members:
        assert x[w] == ONE


def test_double_coset_sum_extreme_cases():
    # at lam = mu = (r) the sum is the full algebra sum; at (1,..,1) a point
    lam = (3,)
    total = double_coset_sum(lam, identity(3), lam)
    assert set(total) == set(all_permutations(3))
    ones = (1, 1, 1)
    assert double_coset_sum(ones, identity(3), ones) == single(identity(3))


def test_oracle_product_unit_and_cap():
    unit = ((1, 0), (0, 1))
    assert oracle_product(unit, unit, 10) == {unit: ONE}
    with pytest.raises(ResourceLimit):
        oracle_product(((9, 0), (0, 0)), ((9, 0), (0, 0)), 3)
    with pytest.raises(DimensionMismatch):
        oracle_product(((1, 0), (0, 0)), ((2, 0), (0, 0)), 10)


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


def all_pairs_double_coset_data(lam, mu):
    # every double coset built as {x w y} over all pairs of Young-subgroup
    # elements, kept as the reference for the generator-orbit construction
    from qschur.permutations import compose, young_subgroup

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


def test_double_coset_orbits_match_the_all_pairs_construction():
    cases = 0
    for n in (1, 2, 3):
        for r in range(6):
            for lam in compositions_of(r, n):
                for mu in compositions_of(r, n):
                    got = hecke._double_coset_data.__wrapped__(lam, mu)
                    want = all_pairs_double_coset_data(lam, mu)
                    # tuple equality covers each orbit's member order; the
                    # orbit dict must also list the representatives in order
                    assert got == want, (lam, mu)
                    assert list(got[2]) == list(want[2])
                    cases += 1
    assert cases == 6 + 91 + 812


def per_rep_oracle_product(a, b):
    # `oracle_product` with every T_d applied from scratch by its reduced
    # word, kept as the reference for the prefix-tree walk
    lam_a, d_a, mu_a = matrix_to_coset(a)
    lam_b, d_b, mu_b = matrix_to_coset(b)
    y_coeffs = hecke._rewrite_right_cosets(double_coset_sum(lam_b, d_b, mu_b), lam_b)
    image_of_x = double_coset_sum(lam_a, d_a, mu_a)
    z = {}
    for d, c in y_coeffs.items():
        hecke.hecke_add_into(z, hecke.right_mult_perm(image_of_x, d), c)
    shift = -norm_exponent(a) - norm_exponent(b)
    out = {}
    for e, g in hecke._rewrite_double_cosets(z, lam_a, mu_b).items():
        m = coset_to_matrix(lam_a, e, mu_b)
        coeff = g * v_power(shift + norm_exponent(m))
        if not coeff.is_zero():
            out[m] = coeff
    return out


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


def test_tree_walk_matches_the_per_representative_product():
    pairs = [p for r in range(6) for p in composable_pairs(2, r)]
    pairs += [p for r in range(5) for p in composable_pairs(3, r)]
    for a, b in pairs:
        assert oracle_product(a, b, 5) == per_rep_oracle_product(a, b), (a, b)
    assert {entry_sum(a) for a, _ in LARGE_PAIRS} == {6, 7}
    for a, b in LARGE_PAIRS:
        assert co(a) == ro(b)
        got = oracle_product(a, b, 7)
        assert got and got == per_rep_oracle_product(a, b), (a, b)


def test_minimal_right_coset_representatives_are_prefix_closed():
    # dropping the last letter of a reduced word keeps a representative
    # minimal, which is what lets `oracle_product` walk them as a tree
    from qschur.permutations import mult_gen_right, reduced_word

    for r in range(1, 7):
        for lam in (c for n in range(1, r + 1) for c in compositions_of(r, n)):
            if 0 in lam:
                continue
            reps = set(hecke._right_coset_data(lam)[0])
            for d in reps:
                word = reduced_word(d)
                if word:
                    parent = mult_gen_right(d, word[-1])
                    assert parent in reps and length(parent) == length(d) - 1, (lam, d)


def test_oracle_product_takes_one_generator_step_per_tree_node(monkeypatch):
    # a deterministic cost guard: at most one right_mult_gen call per
    # non-root coset representative, where replaying every reduced word
    # makes sum(len(word)) calls
    calls = []
    step = hecke.right_mult_gen

    def counted(h, i):
        calls.append(i)
        return step(h, i)

    monkeypatch.setattr(hecke, "right_mult_gen", counted)
    a, b = ((3, 0), (1, 3)), ((2, 2), (2, 1))
    bound = len(hecke._right_coset_data(ro(b))[0]) - 1
    assert bound == 34
    assert oracle_product(a, b, 7)
    assert len(calls) <= bound


def test_coset_rewrites_check_their_reconstruction():
    # W_lam is the right coset of the identity and its (lam, lam) double coset
    lam = (2, 1)
    e, s = sorted(x_lambda(lam))
    rewrites = [
        lambda h: hecke._rewrite_right_cosets(h, lam),
        lambda h: hecke._rewrite_double_cosets(h, lam, lam),
    ]
    for rewrite in rewrites:
        assert rewrite({e: v_power(2), s: v_power(2)}) == {e: v_power(2)}
        for bad in ({e: ONE}, {e: ONE, s: v_power(1)}):
            with pytest.raises(ConsistencyError):
                rewrite(bad)
