import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qschur import symbolic
from qschur.errors import DimensionMismatch, DomainError
from qschur.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    balanced_binomial,
    balanced_trinomial,
    unbalanced_binomial,
    v_power,
    vector_binomial,
    vector_trinomial,
)
from qschur.matrices import (
    add_to_entry,
    co,
    entry_matrix,
    entry_sum,
    has_zero_diagonal,
    is_nonnegative,
    rev,
    ro,
    theta_pm,
    zero_matrix,
)
from qschur.schur import SchurElement, _completion_table, diag_sum
from qschur.vectors import boxes, compositions, dot, is_natural, vadd, vsub
from qschur.symbolic import (
    SymbolicElement,
    TruncatedElement,
    delta_reduce,
    fold_word,
    gen_mult,
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
    # raising keys first, then lowering keys; each entry is one letter
    # at n = 2, so the transfers add up to the mass
    z = (0, 0)
    assert triangular_word(((0, 2), (1, 0))) == (
        (((0, 2), (0, 0)), z, z),
        (((0, 0), (1, 0)), z, z),
    )


def explicit_triangular_word(a):
    # both halves written out, kept as the reference for the lowering
    # half derived by transposition
    n = len(a)
    zero = (0,) * n
    word = []
    for jcol in range(n, 1, -1):
        for irow in range(jcol - 1, 0, -1):
            mval = a[irow - 1][jcol - 1]
            if mval:
                for h in range(irow, jcol):
                    word.append((entry_matrix(n, h, h + 1, mval), zero, zero))
    for jcol in range(2, n + 1):
        for irow in range(1, jcol):
            mval = a[jcol - 1][irow - 1]
            if mval:
                for h in range(jcol - 1, irow - 1, -1):
                    word.append((entry_matrix(n, h + 1, h, mval), zero, zero))
    return tuple(word)


def test_triangular_word_matches_the_explicit_loops():
    mats = [*theta_pm(2, 4), *theta_pm(3, 4), *theta_pm(4, 3)]
    assert len(mats) == 680
    for a in mats:
        assert triangular_word(a) == explicit_triangular_word(a), a


def test_gen_mult_dispatches_each_kind_of_generator():
    n = 3
    z = (0,) * n
    x = SymbolicElement.gen(((0, 1, 0), (0, 0, 2), (1, 0, 0)), (1, -1, 0), (0, 1, 2))
    assert gen_mult((zero_matrix(n), (1, 0, -2), (0, 2, 1)), x) == torus_mult(
        (1, 0, -2), (0, 2, 1), x
    )
    assert gen_mult((entry_matrix(n, 2, 3, 2), z, z), x) == raising_mult(2, 2, x)
    assert gen_mult((entry_matrix(n, 2, 1, 1), z, z), x) == lowering_mult(1, 1, x)
    with pytest.raises(DimensionMismatch):
        gen_mult((entry_matrix(2, 1, 2, 1), (0, 0), (0, 0)), x)


@pytest.mark.parametrize(
    "key",
    [
        (((0, 1), (1, 0)), (0, 0), (0, 0)),
        (((0, 1), (0, 0)), (1, 0), (0, 0)),
        (((0, 0), (2, 0)), (0, 0), (0, 1)),
        (((0, -1), (0, 0)), (0, 0), (0, 0)),
        (((0, 0, 1), (0, 0, 0), (0, 0, 0)), (0, 0, 0), (0, 0, 0)),
    ],
    ids=["two-entries", "transfer-with-delta", "transfer-with-lambda",
         "negative-entry", "non-adjacent"],
)
def test_gen_mult_rejects_non_generator_keys(key):
    with pytest.raises(DomainError):
        gen_mult(key, SymbolicElement.unit(len(key[0])))


@pytest.mark.parametrize("a", [((0, -1), (0, 0)), ((0, 0), (-2, 0))])
def test_negative_key_entries_are_rejected(a):
    # such a key names no basis element; it used to yield the zero element
    with pytest.raises(DomainError):
        SymbolicElement.gen(a, (0, 0), (0, 0))


# n, key, and the error and message of the first check it fails
KEY_FAULTS = [
    (2, (((0, 1), (0, 0)), (0, 0, 0), (0, 0)), DimensionMismatch, "vector lengths disagree"),
    (2, (((0, 1), (0, 0)), (0, 0), (0,)), DimensionMismatch, "vector lengths disagree"),
    (2, (zero_matrix(3), (0, 0, 0), (0, 0, 0)), DimensionMismatch, "key size differs"),
    (2, (((0, 1), (0, 0)), (0, 0), (-1, 0)), DomainError, "binomial depths"),
    (2, (((1, 1), (0, 0)), (0, 0), (0, 0)), DomainError, "zero-diagonal"),
    (2, (((0, -1), (0, 0)), (0, 0), (0, 0)), DomainError, "nonnegative entries"),
    # combined: the first failure in this order is the one reported
    (2, (((1, -1, 0), (0, 0, 0), (0, 0, 0)), (0, 0), (-1, 0, 0)), DimensionMismatch, "vector lengths disagree"),
    (2, (((1, -1, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), (-1, 0, 0)), DimensionMismatch, "key size differs"),
    (3, (((1, -1, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), (-1, 0, 0)), DomainError, "binomial depths"),
    (2, (((2, -1), (0, 0)), (0, 0), (0, 0)), DomainError, "zero-diagonal"),
]


@pytest.mark.parametrize("n, key, error, message", KEY_FAULTS)
def test_keys_are_checked_in_one_order_by_gen_and_realization(n, key, error, message):
    # gen and diag_sum take their size from the matrix, so they meet no
    # size mismatch; realization checks the raw constructor's keys, in
    # and above every degree asked, alone and beside a valid key
    if len(key[0]) == n:
        with pytest.raises(error, match=message):
            SymbolicElement.gen(*key)
        for r in (0, 3):
            with pytest.raises(error, match=message):
                diag_sum(*key, r)
    unit = (zero_matrix(n), (0,) * n, (0,) * n)
    for terms in ({key: ONE}, {key: v_power(1)}, {unit: ONE, key: ONE}):
        bad = SymbolicElement(n, terms)
        for realize in (bad.realize, bad.realize_truncated):
            for r in (0, 3):
                with pytest.raises(error, match=message):
                    realize(r)


def test_gen_takes_an_integer_coefficient():
    key = (((0, 1), (0, 0)), (1, 0), (0, 1))
    assert SymbolicElement.gen(*key, 3) == SymbolicElement.gen(*key).scale(3)
    assert SymbolicElement.gen(*key, -1).terms == {key: -ONE}
    empty = SymbolicElement.gen(*key, 0)
    assert empty == SymbolicElement(2) and empty.is_zero()
    assert SymbolicElement.gen(*key, ZERO) == empty


def test_fold_word_acts_on_any_element():
    x = SymbolicElement.gen(((0, 1), (0, 0)), (0, 1), (1, 0))
    e = (((0, 1), (0, 0)), (0, 0), (0, 0))
    f = (((0, 0), (1, 0)), (0, 0), (0, 0))
    assert fold_word((), x) == x
    assert fold_word((e, f), x) == raising_mult(1, 1, lowering_mult(1, 1, x))


def test_triangular_product_report_structure():
    for a in theta_pm(2, 2):
        if entry_sum(a) == 0:
            continue
        el, rep = triangular_product(a)
        assert rep["leading_is_one"]
        assert rep["lower_terms_precede"]
        assert rep["norms_decrease"]
        assert isinstance(el, SymbolicElement)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.data())
def test_truncated_scale_divexact_roundtrip(n, data):
    x = data.draw(gens(n)).realize_truncated(2)
    c = v_power(data.draw(st.integers(-2, 2))) + ONE
    assert x.scale(c).scale_divexact(c) == x


@pytest.mark.parametrize("n", [2, 3, 4])
def test_torus_binomial_keys_realize_lusztigs_binomials(n):
    """The key (0; 0, t e_i) realizes to Lusztig's torus binomial

        [K_i; 0, t] = prod_{s=1}^t (K_i v^(1-s) - K_i^-1 v^(s-1)) / (v^s - v^-s)

    (G. Lusztig, Geom. Dedicata 35 (1990), 89-113), built here from the
    realizations of (0; +-e_i, 0) by truncated products and one exact
    division, so no oracle is needed."""
    r_max = 5
    zero, z = zero_matrix(n), (0,) * n
    for i in range(n):
        e = tuple(int(p == i) for p in range(n))
        k = SymbolicElement.gen(zero, e, z).realize_truncated(r_max)
        k_inv = SymbolicElement.gen(zero, tuple(-x for x in e), z).realize_truncated(r_max)
        num = TruncatedElement.unit(n, r_max)
        den = ONE
        # after step t, num and den are the products over s <= t
        for t in range(1, 5):
            num = (k.scale(v_power(1 - t)) - k_inv.scale(v_power(t - 1))).multiply(num)
            den = den * (v_power(t) - v_power(-t))
            want = SymbolicElement.gen(zero, z, tuple(t * x for x in e)).realize_truncated(r_max)
            assert num.scale_divexact(den) == want


def joint_sum_torus_key(gamma, mu, a, delta, lam):
    # the torus rule as one joint sum over all vectors j, kept as the
    # reference for the coordinatewise `_torus_key`
    n = len(a)
    rows = ro(a)
    out = []
    for nu in product(*(range(m + 1) for m in mu)):
        coeff = ZERO
        j_ranges = [range(max(0, nu[i] - lam[i]), nu[i] + 1) for i in range(n)]
        for j in product(*j_ranges):
            muj = vsub(mu, j)
            exp = dot(rows, vadd(gamma, muj)) + dot(lam, muj)
            part = v_power(exp) * vector_binomial(rows, j)
            if part.is_zero():
                continue
            part = part * vector_trinomial(
                vsub(vadd(lam, mu), nu), vsub(nu, j), vsub(vadd(lam, j), nu), vsub(mu, nu)
            )
            coeff = coeff + part
        if coeff.is_zero():
            continue
        key = (a, vsub(vadd(gamma, delta), nu), vsub(vadd(lam, mu), nu))
        out.append((key, coeff))
    return tuple(out)


def torus_grid(n, stride):
    # every stride-th (A, mu, lam) with off-diagonal weight <= 2 and
    # depths in [0, 2]^n; gamma and delta cycle through [-2, 2]^n
    box = list(boxes(-2, 2, n))
    depths = list(boxes(0, 2, n))
    triples = product(theta_pm(n, 2), depths, depths)
    for k, (a, mu, lam) in enumerate(triples):
        if k % stride == 0:
            yield box[k % len(box)], mu, a, box[(7 * k + 3) % len(box)], lam


def test_torus_key_matches_the_joint_sum():
    # equal as tuples: the same keys, coefficients and key order
    cases = [*torus_grid(2, 1), *torus_grid(3, 7), *torus_grid(4, 6007)]
    assert len(cases) == 486 + 2916 + 100
    for args in cases:
        assert symbolic._torus_key(*args) == joint_sum_torus_key(*args), args


# ---------------------------------------------------------------------------
# the rule tables against the per-key loops they replaced


def triple_loop_raising_key(m, h, a, delta, lam):
    # the raising rule with one Laurent product per (t, j, k, c) and
    # merging of equal keys, kept as the reference for the tabled rule
    n = len(a)
    hi = h - 1
    row_top = a[hi]
    row_bot = a[hi + 1]
    out = {}
    for t in compositions(n, m):
        if any(row_bot[u] < t[u] for u in range(n) if u != hi + 1):
            continue
        base_exp = t[hi + 1] * delta[hi + 1] - t[hi] * delta[hi]
        later = 0
        for u in range(n - 1, -1, -1):
            tu = t[u]
            if tu:
                off = row_top[hi] - row_bot[hi + 1] if u <= hi else 0
                base_exp += tu * (sum(row_top[u:]) - sum(row_bot[u + 1 :]) - off + later)
                if u != hi and u != hi + 1:
                    later += tu
        base = v_power(base_exp)
        for u in range(n):
            if u != hi and t[u]:
                base = base * unbalanced_binomial(row_top[u] + t[u], t[u]).bar()
        rows = [list(row) for row in a]
        for u in range(n):
            if u != hi:
                rows[hi][u] += t[u]
            if u != hi + 1:
                rows[hi + 1][u] -= t[u]
        a_new = tuple(tuple(row) for row in rows)
        th, th1 = t[hi], t[hi + 1]
        pre = sum(t[:hi])
        for j in range(lam[hi] + 1):
            bin_j = balanced_binomial(-th, lam[hi] - j)
            for k in range(lam[hi + 1] + 1):
                bin_k = balanced_binomial(th1, lam[hi + 1] - k)
                for c in range(min(th, j) + 1):
                    tri = balanced_trinomial(c, th - c, j - c)
                    coeff = (base * bin_j * bin_k * tri).shift(2 * j * th - k * th1)
                    if coeff.is_zero():
                        continue
                    d_new = list(delta)
                    d_new[hi] = delta[hi] + pre + lam[hi] - j - c
                    d_new[hi + 1] = delta[hi + 1] + lam[hi + 1] - k - pre - th
                    l_new = list(lam)
                    l_new[hi] = th + j - c
                    l_new[hi + 1] = k
                    key = (a_new, tuple(d_new), tuple(l_new))
                    s = out.get(key, ZERO) + coeff
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
    return tuple(out.items())


def triple_loop_lowering_key(m, h, a, delta, lam):
    mirror = triple_loop_raising_key(m, len(a) - h, rev(a), delta[::-1], lam[::-1])
    return tuple(((rev(b), d[::-1], lb[::-1]), c) for (b, d, lb), c in mirror)


def per_composition_raising_key(m, h, a, delta, lam):
    # the raising rule that works out each composition's move from a, t
    # and delta on every call, kept as the reference for the rule that
    # reads the moves from the (m, h, a) table
    n = len(a)
    hi = h - 1
    row_top = a[hi]
    row_bot = a[hi + 1]
    off = row_top[hi] - row_bot[hi + 1]
    gain = [
        sum(row_top[u if u == hi else u + 1 :]) - sum(row_bot[u + 1 :]) - (off if u <= hi else 0)
        for u in range(n)
    ]
    out = []
    for t in compositions(n, m):
        if any(row_bot[u] < t[u] for u in range(n) if u != hi + 1):
            continue
        base_exp = t[hi + 1] * delta[hi + 1] - t[hi] * delta[hi]
        later = 0
        for u in range(n - 1, -1, -1):
            tu = t[u]
            if tu:
                base_exp += tu * (gain[u] + later)
                if u != hi and u != hi + 1:
                    later += tu
        base = v_power(base_exp)
        for u in range(n):
            if u != hi and t[u]:
                base = base * balanced_binomial(row_top[u] + t[u], t[u])
        rows = [list(row) for row in a]
        for u in range(n):
            if u != hi:
                rows[hi][u] += t[u]
            if u != hi + 1:
                rows[hi + 1][u] -= t[u]
        a_new = tuple(tuple(row) for row in rows)
        th = t[hi]
        pre = sum(t[:hi])
        d_head, d_tail = delta[:hi], delta[hi + 2 :]
        l_head, l_tail = lam[:hi], lam[hi + 2 :]
        d_low = delta[hi] + pre + lam[hi]
        d_top = delta[hi + 1] + lam[hi + 1] - pre - th
        for j, k, c, f in symbolic._raising_table(th, t[hi + 1], lam[hi], lam[hi + 1]):
            key = (
                a_new,
                d_head + (d_low - j - c, d_top - k) + d_tail,
                l_head + (th + j - c, k) + l_tail,
            )
            out.append((key, base * f))
    return tuple(out)


def per_nu_torus_key(gamma, mu, a, delta, lam):
    # the coefficient of each nu as its own product of one-coordinate
    # factors, kept as the reference for the tabled rule
    rows = ro(a)
    out = []
    for nu in product(*(range(m + 1) for m in mu)):
        coeff = v_power(dot(rows, gamma))
        for args in zip(rows, mu, lam, nu):
            coeff = coeff * symbolic._torus_factor(*args)
        if not coeff.is_zero():
            key = (a, vsub(vadd(gamma, delta), nu), vsub(vadd(lam, mu), nu))
            out.append((key, coeff))
    return tuple(out)


def rule_matrices(n):
    # every zero-diagonal matrix of weight <= 2, and at n = 2 also the
    # weight-3 ones, so that a move of m = 3 finds enough units
    return theta_pm(n, 3 if n == 2 else 2)


def transfer_grid():
    # every (m, h, a, delta, lam) with a from rule_matrices(n), lam in
    # [0, 3]^n, m in 1..3 and delta drawn from [-3, 3]^n, at n = 2, 3
    rng = random.Random(17)
    for n in (2, 3):
        for a in rule_matrices(n):
            for lam in boxes(0, 3, n):
                delta = tuple(rng.randint(-3, 3) for _ in range(n))
                for m in (1, 2, 3):
                    for h in range(1, n):
                        yield m, h, a, delta, lam


TRANSFER_GRID_SIZE = 10 * 16 * 3 + 28 * 64 * 3 * 2


def test_transfer_tables_match_the_triple_loop():
    # equal as tuples: the same keys, coefficients and key order
    count = 0
    for m, h, a, delta, lam in transfer_grid():
        got = symbolic._raising_key(m, h, a, delta, lam)
        assert got == triple_loop_raising_key(m, h, a, delta, lam)
        x = SymbolicElement.gen(a, delta, lam)
        got = tuple(lowering_mult(m, h, x).terms.items())
        assert got == triple_loop_lowering_key(m, h, a, delta, lam)
        count += 1
    assert count == TRANSFER_GRID_SIZE


def test_tabulated_moves_match_the_per_composition_rule():
    # equal as tuples, for the raising rule and for the lowering rule
    # through its mirror: the same keys, coefficients and key order
    count = 0
    for m, h, a, delta, lam in transfer_grid():
        want = per_composition_raising_key(m, h, a, delta, lam)
        assert symbolic._raising_key(m, h, a, delta, lam) == want
        x = SymbolicElement.gen(a, delta, lam)
        assert tuple(raising_mult(m, h, x).terms.items()) == want
        n = len(a)
        mirror = per_composition_raising_key(m, n - h, rev(a), delta[::-1], lam[::-1])
        want = tuple(((rev(b), d[::-1], lb[::-1]), c) for (b, d, lb), c in mirror)
        assert tuple(lowering_mult(m, h, x).terms.items()) == want
        count += 1
    assert count == TRANSFER_GRID_SIZE


# the torus rule reads a only through its row sums (0, 0, 0), (0, 2, 0)
# and (3, 0, 1): each coordinate meets a zero and a nonzero row sum
TORUS_MATRICES_3 = (
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (1, 0, 1), (0, 0, 0)),
    ((0, 2, 1), (0, 0, 0), (1, 0, 0)),
)


def test_torus_tables_match_the_per_nu_product():
    rng = random.Random(19)
    count = 0
    for n, mats in ((2, rule_matrices(2)), (3, TORUS_MATRICES_3)):
        for a in mats:
            for mu in boxes(0, 3, n):
                for lam in boxes(0, 3, n):
                    gamma = tuple(rng.randint(-3, 3) for _ in range(n))
                    delta = tuple(rng.randint(-3, 3) for _ in range(n))
                    got = symbolic._torus_key(gamma, mu, a, delta, lam)
                    assert got == per_nu_torus_key(gamma, mu, a, delta, lam)
                    count += 1
    assert count == 10 * 16 * 16 + len(TORUS_MATRICES_3) * 64 * 64


def test_rule_tables_are_keyed_by_shape():
    a = ((0, 1, 2), (1, 0, 0), (0, 2, 0))
    lam = (1, 2, 1)
    for rule in (raising_mult, lowering_mult):
        rule(2, 1, SymbolicElement.gen(a, (0, 1, -1), lam))
        before = symbolic._raising_table.cache_info()
        moves = symbolic._raising_moves.cache_info()
        rule(2, 1, SymbolicElement.gen(a, (3, -2, 2), lam))
        after = symbolic._raising_table.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits
        # the moves are keyed by (m, h, a) alone: another lam reads them too
        rule(2, 1, SymbolicElement.gen(a, (-1, 0, 4), (0, 3, 2)))
        info = symbolic._raising_moves.cache_info()
        assert info.misses == moves.misses and info.hits == moves.hits + 2
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 1 << 16
    symbolic._torus_key((1, 0, 2), (2, 1, 1), a, (0, 1, -1), lam)
    before = symbolic._torus_table.cache_info()
    symbolic._torus_key((-2, 3, 0), (2, 1, 1), a, (2, 2, 0), lam)
    after = symbolic._torus_table.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 1


def worklist_delta_reduce(x):
    # the rewriting loop without merging of equal keys: exponential in
    # the excess, kept as the reference for small exponents
    done = SymbolicElement(x.n)
    pending = list(x.terms.items())
    while pending:
        (a, delta, lam), c = pending.pop()
        bad = next((i for i, d in enumerate(delta) if d < 0 or d > 1), None)
        if bad is None:
            done.add_into((a, delta, lam), c)
            continue
        i = bad
        li = lam[i]
        lam_up = tuple(x + 1 if p == i else x for p, x in enumerate(lam))
        mixed = v_power(li + 1) - v_power(-li - 1)
        if delta[i] > 1:
            d1 = tuple(x - 1 if p == i else x for p, x in enumerate(delta))
            d2 = tuple(x - 2 if p == i else x for p, x in enumerate(delta))
            pending.append(((a, d1, lam_up), c * v_power(li) * mixed))
            pending.append(((a, d2, lam), c * v_power(2 * li)))
        else:
            d1 = tuple(x + 1 if p == i else x for p, x in enumerate(delta))
            d2 = tuple(x + 2 if p == i else x for p, x in enumerate(delta))
            pending.append(((a, d1, lam_up), c * v_power(-li) * mixed * -1))
            pending.append(((a, d2, lam), c * v_power(-2 * li)))
    return done


def test_delta_reduce_matches_the_unmerged_worklist():
    a = ((0, 1), (2, 0))
    for delta in ((12, -3), (-5, 6), (6, 6), (0, 12)):
        x = SymbolicElement.gen(a, delta, (1, 0))
        assert delta_reduce(x) == worklist_delta_reduce(x)
    b = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    x = torus_mult((3, -2, 1), (1, 2, 0), SymbolicElement.gen(b, (4, -3, 2), (0, 1, 1)))
    y = x + SymbolicElement.gen(b, (-5, 6, 0), (2, 0, 1), v_power(3) - ONE)
    assert delta_reduce(y) == worklist_delta_reduce(y)


def test_delta_reduce_is_polynomial_in_the_excess():
    x = SymbolicElement.gen(((0, 1), (0, 0)), (40, 0), (0, 0))
    started = time.perf_counter()
    reduced = delta_reduce(x)
    assert time.perf_counter() - started < 1.0
    for _, delta, _ in reduced.terms:
        assert all(0 <= d <= 1 for d in delta)
    assert x.realize_truncated(3) == reduced.realize_truncated(3)


# ---------------------------------------------------------------------------
# realization against the defining sum


def _compositions(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(n - 1, total - first):
            yield (first, *rest)


_PASCAL = {}


def q_pascal(m, l):
    """[m choose l] for naturals m, l as an {exponent: coefficient} dict,
    from [m choose l] = v^l [m-1 choose l] + v^(l-m) [m-1 choose l-1]."""
    if l == 0:
        return {0: 1}
    if m < l:
        return {}
    if (m, l) not in _PASCAL:
        out = {}
        for shift, part in ((l, q_pascal(m - 1, l)), (l - m, q_pascal(m - 1, l - 1))):
            for e, c in part.items():
                out[e + shift] = out.get(e + shift, 0) + c
        _PASCAL[m, l] = out
    return _PASCAL[m, l]


def defining_sum(x, r):
    """Degree r of the realization of x: the sum over keys (A; delta, lam)
    and completions mu of c v^(mu.delta) [mu choose lam] [A + diag(mu)]."""
    out = {}
    for (a, delta, lam), c in x.terms.items():
        rest = r - sum(map(sum, a))
        if rest < 0:
            continue
        for mu in _compositions(x.n, rest):
            coeff = {sum(m * d for m, d in zip(mu, delta)): 1}
            for m, l in zip(mu, lam):
                step = {}
                for e, ce in coeff.items():
                    for f, cf in q_pascal(m, l).items():
                        step[e + f] = step.get(e + f, 0) + ce * cf
                coeff = step
            if not any(coeff.values()):
                continue
            mat = tuple(
                tuple(x + (mu[i] if i == j else 0) for j, x in enumerate(row))
                for i, row in enumerate(a)
            )
            out[mat] = out.get(mat, ZERO) + c * LaurentPoly(coeff)
    return {mat: c for mat, c in out.items() if c}


R = 4
MIXED = (ONE, -ONE, v_power(-3), LaurentPoly({-2: 5, 1: -1, 4: 2}), LaurentPoly({0: 2, 1: -1}))


def seeded_element(rng, n):
    # one key of each lowest degree |A| + |lam| in 0..7: below, at and
    # above R, with the mass split at random between A and lam
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    terms = {}
    for lowest in range(8):
        mass = rng.randint(0, lowest)
        a = [[0] * n for _ in range(n)]
        for _ in range(mass):
            i, j = rng.choice(cells)
            a[i][j] += 1
        lam = [0] * n
        for _ in range(lowest - mass):
            lam[rng.randrange(n)] += 1
        delta = tuple(rng.randint(-2, 2) for _ in range(n))
        terms[tuple(map(tuple, a)), delta, tuple(lam)] = rng.choice(MIXED)
    return SymbolicElement(n, terms)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_realization_matches_the_defining_sum(n, seed):
    x = seeded_element(random.Random(10 * n + seed), n)
    # x - delta_reduce(x) keeps the keys outside {0,1}^n, whose
    # realizations cancel in every degree
    cancelled = x - delta_reduce(x)
    assert cancelled.terms and cancelled.realize_truncated(R).is_zero()
    for el in (x, cancelled, x + delta_reduce(x).scale(v_power(1))):
        got = el.realize_truncated(R)
        for r in range(R + 1):
            assert got.components[r].terms == defining_sum(el, r)
            assert el.realize(r) == got.components[r]


def test_realization_at_degree_40():
    a = ((0, 1, 0), (0, 0, 2), (1, 0, 0))
    x = SymbolicElement(3, {
        (a, (1, -2, 0), (2, 0, 1)): LaurentPoly({-1: 3, 2: -1}),
        (zero_matrix(3), (0, 1, 1), (0, 0, 0)): ONE,
    })
    got = x.realize(40)
    assert len(got.terms) > 800
    assert got.terms == defining_sum(x, 40)


def test_realization_skips_degrees_below_the_lowest_one():
    # counted in completion-table misses, one per (A, lam, degree) read;
    # the per-key table is cleared too, or a key realized by an earlier
    # test would read no completion table
    symbolic._key_parts.cache_clear()
    _completion_table.cache_clear()
    SymbolicElement(2, {(((0, 2), (1, 0)), (1, -1), (1, 2)): ONE}).realize_truncated(4)
    assert _completion_table.cache_info().misses == 0
    SymbolicElement(2, {(((0, 1), (0, 0)), (0, 1), (1, 0)): ONE}).realize_truncated(4)
    assert _completion_table.cache_info().misses == 3


@pytest.mark.parametrize("r", [0, 4, 8, 20])
@pytest.mark.parametrize(
    "lam, error", [((-1, 9), DomainError), ((0, 9, 1), DimensionMismatch)]
)
def test_realization_checks_every_key_in_every_degree(r, lam, error):
    # the raw constructor skips the key checks; realization makes them
    # even where the key's lowest degree lies above every degree asked,
    # through the per-key table (one key with coefficient 1) and without
    # it (one scaled key, two keys)
    key = (zero_matrix(2), (0, 0), lam)
    for terms in ({key: ONE}, {key: v_power(1)}, {(zero_matrix(2), (0, 0), (0, 0)): ONE, key: ONE}):
        bad = SymbolicElement(2, terms)
        with pytest.raises(error):
            bad.realize(r)
        with pytest.raises(error):
            bad.realize_truncated(r)


# ---------------------------------------------------------------------------
# read-only realization: one builder merges each key's completions,
# scaled and shifted by mu.delta, from one (A, lam, r) table; a one-key
# element with coefficient 1 is its key's cached parts


def test_colliding_slices_cancel_to_zero():
    # v^mu.(1,1) = v^2 on every completion of degree 2, so the two keys
    # cancel there and only there
    zero = zero_matrix(2)
    x = SymbolicElement(2, {(zero, (1, 1), (0, 0)): ONE, (zero, (0, 0), (0, 0)): -v_power(2)})
    got = x.realize_truncated(R)
    assert got.components[2].is_zero() and not got.components[3].is_zero()
    for r in range(R + 1):
        assert got.components[r].terms == defining_sum(x, r)


@pytest.mark.parametrize("c", [-ONE, v_power(-3), -v_power(2), LaurentPoly({0: 2, 1: -1})])
def test_non_unit_coefficients_scale_the_slices(c):
    a = ((0, 2, 0), (0, 0, 0), (1, 0, 0))
    key = (a, (1, -2, 0), (1, 0, 1))
    x = SymbolicElement.gen(*key, c)
    # a second key whose slices meet those of the first
    y = x + SymbolicElement.gen(a, (0, 1, 0), (0, 0, 1), -c)
    for el in (x, y):
        got = el.realize_truncated(6)
        for r in range(7):
            assert got.components[r].terms == defining_sum(el, r)
    assert x.realize_truncated(6) == SymbolicElement.gen(*key).realize_truncated(6).scale(c)


def test_realized_parts_are_read_only():
    a = ((0, 1), (0, 0))
    key = (a, (1, 0), (0, 1))
    want = {r: dict(diag_sum(*key, r).terms) for r in range(R + 1)}
    one = SymbolicElement.gen(*key)
    # a unit key sharing matrices with the first, and a scaled key
    many = one + SymbolicElement.gen(a, (0, 0), (0, 0)) + SymbolicElement.gen(a, (0, 1), (0, 0), v_power(2))
    realized = [el.realize_truncated(R) for el in (one, many, SymbolicElement(2))]
    parts = [part for x in realized for part in x.components] + [many.realize(3)]
    for part in parts:
        with pytest.raises(TypeError):
            part.add_into(add_to_entry(a, 2, 2, part.r - 1), ONE)
    first = realized[0]
    assert first.components is symbolic._key_parts(2, key, 0, R)
    assert first.components[3] == diag_sum(*key, 3)
    for fresh in (first + first, first.scale(2), first.scale(ONE)):
        for part, old in zip(fresh.components, first.components):
            assert part is not old
            part.add_into(a, ONE)
    for r in range(R + 1):
        assert diag_sum(*key, r).terms == want[r]
        assert one.realize(r).terms == want[r]


def test_the_key_table_is_keyed_by_one_key():
    # only a one-key element with coefficient 1 reads the per-key table;
    # an element of several keys, or of one scaled key, merges straight
    # from the completion table
    a = ((0, 1), (0, 0))
    keys = [(a, (0, 0), (0, 0)), (a, (1, 0), (0, 1)), (zero_matrix(2), (0, 1), (1, 0))]
    x = SymbolicElement(2, {k: ONE for k in keys[:2]})
    y = SymbolicElement(2, {k: v_power(1) for k in keys[1:]})
    symbolic._key_parts.cache_clear()
    x.realize_truncated(R)
    y.realize_truncated(R)
    SymbolicElement.gen(*keys[1], v_power(1)).realize_truncated(R)
    info = symbolic._key_parts.cache_info()
    assert (info.currsize, info.misses, info.hits) == (0, 0, 0)
    one = SymbolicElement.gen(*keys[1])
    first = one.realize_truncated(R)
    assert one.realize_truncated(R) == first
    info = symbolic._key_parts.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert info.maxsize is not None and info.maxsize <= 1 << 16
    # degrees below a key's lowest one share the empty parts
    parts = symbolic._key_parts(2, keys[1], 0, R)
    assert parts is first.components
    assert parts[0] is SymbolicElement(2).realize(0) and not parts[1].terms and parts[2].terms


def test_the_completion_table_is_keyed_by_matrix_depths_and_degree():
    # two keys that differ only in delta share one entry, and neither
    # builds a diag_sum slice
    a = ((0, 1, 0), (0, 0, 0), (2, 0, 0))
    lam = (1, 0, 1)
    deltas = [(0, 0, 0), (1, -2, 0)]
    x = SymbolicElement(3, {(a, d, lam): c for d, c in zip(deltas, (ONE, v_power(2)))})
    _completion_table.cache_clear()
    diag_sum.cache_clear()
    x.realize(6)
    info = _completion_table.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert info.maxsize is not None and info.maxsize <= 1 << 16
    assert diag_sum.cache_info().misses == 0
    # entries (a + diag(mu), mu, [mu choose lam]) over mu >= lam, lex ascending
    table = _completion_table(a, lam, 6)
    want = [mu for mu in compositions(3, 3) if all(m >= l for m, l in zip(mu, lam))]
    assert [mu for _, mu, _ in table] == want
    for mat, mu, b in table:
        assert mat == tuple(
            tuple(x + (mu[i] if i == j else 0) for j, x in enumerate(row)) for i, row in enumerate(a)
        )
        assert b == vector_binomial(mu, lam)
    # a delta only shifts each entry
    for d in deltas:
        assert dict(diag_sum(a, d, lam, 6).terms) == {m: b.shift(dot(mu, d)) for m, mu, b in table}


def shared_depth_element(rng, n):
    # three (A, lam) pairs, each under three exponent vectors, and one
    # more pair of keys on a shared (A, lam) whose terms cancel in
    # exactly one degree r0: their exponents differ by (1, ..., 1), so
    # v^(mu.delta) differs by v^(r0 - |A|) there
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    terms = {}
    for _ in range(3):
        a = [[0] * n for _ in range(n)]
        for _ in range(rng.randint(0, 2)):
            i, j = rng.choice(cells)
            a[i][j] += 1
        a = tuple(map(tuple, a))
        lam = [0] * n
        for _ in range(rng.randint(0, R - entry_sum(a))):
            lam[rng.randrange(n)] += 1
        lam = tuple(lam)
        for _ in range(3):
            delta = tuple(rng.randint(-2, 2) for _ in range(n))
            terms[a, delta, lam] = rng.choice(MIXED)
    r0 = rng.randint(entry_sum(a) + sum(lam), R)
    delta = tuple(rng.randint(3, 4) for _ in range(n))
    c = rng.choice(MIXED)
    pair = {(a, delta, lam): c, (a, vadd(delta, (1,) * n), lam): -c * v_power(entry_sum(a) - r0)}
    terms.update(pair)
    return SymbolicElement(n, terms), SymbolicElement(n, pair), r0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_keys_sharing_matrix_and_depths_realize_to_the_defining_sum(n, seed):
    x, pair, r0 = shared_depth_element(random.Random(100 * n + seed), n)
    assert pair.realize(r0).is_zero() and not pair.realize(r0 + 1).is_zero()
    for el in (x, pair):
        got = el.realize_truncated(R)
        for r in range(R + 1):
            assert got.components[r].terms == defining_sum(el, r)
            assert el.realize(r) == got.components[r]


@pytest.mark.parametrize(
    "el",
    [
        SymbolicElement.unit(2),
        SymbolicElement.gen(((0, 1), (0, 0)), (1, 0), (0, 1), v_power(2)),
        SymbolicElement.unit(2) + SymbolicElement.gen(((0, 1), (0, 0)), (1, 0), (0, 1)),
        SymbolicElement(2),
    ],
)
def test_negative_degrees_are_rejected(el):
    # SchurElement.unit(2, -1) raises, and so does every realization
    with pytest.raises(DomainError):
        SchurElement.unit(2, -1)
    with pytest.raises(DomainError):
        el.realize(-1)
    with pytest.raises(DomainError):
        el.realize_truncated(-1)


@pytest.mark.parametrize(
    "key, error",
    [
        ((((0, 5), (0, 0)), (0, 0, 0), (0, 0)), DimensionMismatch),
        ((((0, 5), (0, 0)), (0, 0), (-1, 2)), DomainError),
    ],
)
def test_keys_above_every_degree_are_still_checked(key, error):
    # lowest degree 5 or 6, above every degree asked; a valid key comes
    # first so the bad one is not the only one
    zero = zero_matrix(2)
    bad = SymbolicElement(2, {(zero, (0, 0), (0, 0)): ONE, key: ONE})
    with pytest.raises(error):
        bad.realize(2)
    with pytest.raises(error):
        bad.realize_truncated(3)


def test_predicates_on_one_by_one_and_empty_input():
    assert is_natural(()) and is_natural((0,)) and not is_natural((-1,))
    assert is_nonnegative(()) and is_nonnegative(((0,),)) and not is_nonnegative(((-1,),))
    assert has_zero_diagonal(()) and has_zero_diagonal(((0,),)) and not has_zero_diagonal(((2,),))
    assert ro(()) == co(()) == () and entry_sum(()) == 0
    assert ro(((3,),)) == co(((3,),)) == (3,) and entry_sum(((3,),)) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*(st.tuples(*(st.integers(-2, 3) for _ in range(n))) for _ in range(n)))
))
def test_predicates_match_their_definitions(a):
    n = len(a)
    assert ro(a) == tuple(sum(row) for row in a)
    assert co(a) == tuple(sum(a[i][j] for i in range(n)) for j in range(n))
    assert entry_sum(a) == sum(x for row in a for x in row)
    assert is_nonnegative(a) == all(x >= 0 for row in a for x in row)
    assert has_zero_diagonal(a) == all(a[i][i] == 0 for i in range(n))
    assert is_natural(a[0]) == all(x >= 0 for x in a[0])


def test_unknown_engine_is_rejected():
    x = SymbolicElement.gen(((0, 1), (0, 0)), (0, 0), (0, 0)).realize_truncated(2)
    with pytest.raises(DomainError, match="'fast' or 'oracle'"):
        x.multiply(x, engine="fats")
    assert x.multiply(x, engine="fast") == x.multiply(x, engine="oracle")


@pytest.mark.parametrize("engine", ["fast", "oracle"])
def test_truncated_products_skip_empty_degrees_but_check_headers(engine, monkeypatch):
    # E realized through degree 2 is empty in degree 0; E times the
    # unit multiplies only the nonempty degrees and keeps the empty one
    x = SymbolicElement.gen(((0, 1), (0, 0)), (0, 0), (0, 0)).realize_truncated(2)
    unit = TruncatedElement.unit(2, 2)
    assert not x.components[0].terms and x.components[1].terms
    calls = []
    mult = symbolic._ENGINES[engine]
    monkeypatch.setitem(
        symbolic._ENGINES, engine, lambda a, b, cap: calls.append(a.r) or mult(a, b, cap)
    )
    assert x.multiply(unit, engine=engine) == x == unit.multiply(x, engine=engine)
    assert calls == [1, 2, 1, 2]
    # an empty component of the wrong degree is still a mismatch, on
    # either side and whether or not the other side is empty
    wrong = TruncatedElement(2, 2, (SchurElement(2, 1), *x.components[1:]))
    for left, right in ((wrong, unit), (unit, wrong), (wrong, x), (x, wrong)):
        with pytest.raises(DimensionMismatch):
            left.multiply(right, engine=engine)
