"""Symbolic elements spanning all degrees at once, and the closed
product formulas that act on them.

A symbolic key is a triple (A, delta, lam): a zero-diagonal matrix of
nonnegative off-diagonal entries, an integer vector of torus exponents
and a natural vector of torus binomial depths.  Realizing a key in
degree r produces the sum over diagonal completions mu of

    v^(mu . delta) * [mu choose lam] * (basis element A + diag(mu)),

and a symbolic element is a finite Laurent-combination of keys,
realized into a `TruncatedElement` by `schur._realize_parts`, the one
realization builder, which checks every key with `schur.check_key` as
`gen` and the rules do.  A completion mu covers lam entrywise, so the
builder starts each key at degree |A| + |lam| and merges
c * [mu choose lam], shifted by mu . delta, from the (A, lam, r)
completion table into read-only parts.  A one-key element with
coefficient 1 is the builder's parts for that key, cached by the
element size, the key and its degree window.

Three product rules multiply a one-generator factor into a symbolic
element without leaving the symbolic side:

* `torus_mult`    -- left factor (0; gamma, mu);
* `raising_mult`  -- left factor (m E_{h,h+1}; 0, 0);
* `lowering_mult` -- left factor (m E_{h+1,h}; 0, 0).

Most of each rule's Laurent arithmetic depends on a few small integers
of the key, not on the key itself, so it is tabulated once per shape:
the torus rule by (ro(A), mu, lam), one cached table per coordinate
prefix whose entries carry the output depths lam + mu - nu, and the
raising rule by (t_h, t_{h+1}, lam_h, lam_{h+1}) for each composition t
of the moved units.  The raising rule's moves depend on the generator
and the matrix alone, so a bounded table keyed by (m, h, A) holds, for
each admissible t, the new matrix and the part of the coefficient that
is free of delta and lam; formula runs meet one (m, h, A) under many
(delta, lam).  A key then costs one shift per move and one product per
table entry.  The lowering rule is the raising rule on the reversed
element and reads the same tables.  Beyond these shape tables the
rules' per-key results are not cached: runs almost never repeat a key.

Every generator is its own key, so a generator word is a tuple of
keys: `gen_mult` sends a one-generator key to its rule by the route
that `schur` tabulates for the key's matrix as a left factor, and
`fold_word` folds a word onto any element, right to left.

`delta_reduce` rewrites every key until its exponent vector lies in
{0,1}^n, using the two-term recurrences satisfied by the torus part;
`triangular_product` folds the canonical raising/lowering word of a
zero-diagonal matrix and checks its triangular shape against the
corner-sum order.
"""

from __future__ import annotations

import operator
from functools import cache, lru_cache, partial
from heapq import heapify, heappop, heappush

from .errors import DimensionMismatch, DomainError
from .laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    balanced_binomial,
    balanced_trinomial,
    v_power,
)
from .matrices import (
    Matrix,
    entry_matrix,
    has_zero_diagonal,
    matrix_norm,
    precedes,
    rev,
    ro,
    transpose,
    zero_matrix,
)
from .schur import (
    _DIAGONAL,
    _ORACLE,
    Combination,
    SchurElement,
    _realize_parts,
    _table,
    check_key,
    force_oracle_product,
    general_product,
)
from .hecke import DEFAULT_ORACLE_CAP
from .vectors import IntVector, compositions, dot, is_natural, vadd

__all__ = [
    "SymbolicKey",
    "GeneratorWord",
    "SymbolicElement",
    "TruncatedElement",
    "torus_mult",
    "raising_mult",
    "lowering_mult",
    "delta_reduce",
    "gen_mult",
    "fold_word",
    "triangular_word",
    "triangular_product",
]

SymbolicKey = tuple[Matrix, IntVector, IntVector]
GeneratorWord = tuple[SymbolicKey, ...]


@lru_cache(maxsize=1 << 14)
def _key_parts(n: int, key: SymbolicKey, lo: int, hi: int) -> tuple[SchurElement, ...]:
    """The read-only parts of one key with coefficient 1, in an element
    of size n, in degrees lo..hi.  Keyed by the size, one key and its
    degree window, never by an element or a pair."""
    return _realize_parts(n, ((key, ONE),), lo, hi)


class SymbolicElement(Combination):
    """Laurent-combination of symbolic keys of one common size n."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms: dict[SymbolicKey, LaurentPoly] | None = None):
        self.n = n
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()} if terms else {}

    def _header(self) -> tuple[int]:
        return (self.n,)

    @classmethod
    def gen(
        cls, a: Matrix, delta: IntVector, lam: IntVector, coeff: LaurentPoly | int = ONE
    ) -> "SymbolicElement":
        """The one key (a; delta, lam) with coefficient ``coeff``; a zero
        coefficient gives the empty element of size len(a)."""
        n = len(a)
        check_key(n, a, delta, lam)
        if isinstance(coeff, int):
            coeff = LaurentPoly.from_int(coeff)
        out = cls(n)
        if coeff:
            out.terms = {(a, delta, lam): coeff}
        return out

    @classmethod
    def unit(cls, n: int) -> "SymbolicElement":
        z = (0,) * n
        return cls(n, {(zero_matrix(n), z, z): ONE})

    def _realize(self, lo: int, hi: int) -> tuple[SchurElement, ...]:
        # degrees lo..hi, read-only, from the one builder in `schur`; a
        # one-key element with coefficient 1 is that key's cached parts
        if len(self.terms) == 1 and ONE in self.terms.values():
            return _key_parts(self.n, next(iter(self.terms)), lo, hi)
        return _realize_parts(self.n, self.terms.items(), lo, hi)

    def realize(self, r: int) -> SchurElement:
        return self._realize(r, r)[0]

    def realize_truncated(self, r_max: int) -> "TruncatedElement":
        return TruncatedElement(self.n, r_max, self._realize(0, r_max))

    def to_json_obj(self) -> list[dict]:
        return [
            {"A": a, "delta": delta, "lambda": lam, "coeff": x.to_pairs()}
            for (a, delta, lam), x in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"SymbolicElement(n={self.n}, {len(self.terms)} keys)"


_ENGINES = {"fast": general_product, "oracle": force_oracle_product}


class TruncatedElement:
    """Degree-by-degree realization up to a cutoff: one `SchurElement`
    for every r in 0..r_max."""

    __slots__ = ("n", "r_max", "components")

    def __init__(self, n: int, r_max: int, components: tuple[SchurElement, ...]):
        if len(components) != r_max + 1:
            raise DimensionMismatch("need one component per degree 0..r_max")
        self.n = n
        self.r_max = r_max
        self.components = components

    @classmethod
    def zero(cls, n: int, r_max: int) -> "TruncatedElement":
        return cls(n, r_max, tuple(SchurElement.zero(n, r) for r in range(r_max + 1)))

    @classmethod
    def unit(cls, n: int, r_max: int) -> "TruncatedElement":
        return cls(n, r_max, tuple(SchurElement.unit(n, r) for r in range(r_max + 1)))

    def _zip(self, other: "TruncatedElement", op) -> "TruncatedElement":
        if self.n != other.n or self.r_max != other.r_max:
            raise DimensionMismatch("truncations differ")
        return TruncatedElement(
            self.n, self.r_max, tuple(map(op, self.components, other.components))
        )

    def __add__(self, other: "TruncatedElement") -> "TruncatedElement":
        return self._zip(other, operator.add)

    def __sub__(self, other: "TruncatedElement") -> "TruncatedElement":
        return self._zip(other, operator.sub)

    def scale(self, c: LaurentPoly | int) -> "TruncatedElement":
        return TruncatedElement(self.n, self.r_max, tuple(x.scale(c) for x in self.components))

    def scale_divexact(self, divisor: LaurentPoly) -> "TruncatedElement":
        parts = (
            SchurElement(self.n, x.r, {a: c.divexact(divisor) for a, c in x.terms.items()})
            for x in self.components
        )
        return TruncatedElement(self.n, self.r_max, tuple(parts))

    def multiply(
        self, other: "TruncatedElement", cap: int = DEFAULT_ORACLE_CAP, engine: str = "fast"
    ) -> "TruncatedElement":
        """Degree-wise product: ``engine`` "fast" takes the structured
        rules where they apply, "oracle" sends every pair to the coset
        oracle."""
        mult = _ENGINES.get(engine)
        if mult is None:
            raise DomainError(f"unknown engine {engine!r}: use 'fast' or 'oracle'")

        def product(a: SchurElement, b: SchurElement) -> SchurElement:
            if a.terms and b.terms:
                return mult(a, b, cap)
            # a degree with an empty side has the empty product
            if a.n != b.n or a.r != b.r:
                raise DimensionMismatch("elements live in different algebras")
            return b if a.terms else a

        return self._zip(other, product)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedElement):
            return NotImplemented
        return (
            self.n == other.n
            and self.r_max == other.r_max
            and self.components == other.components
        )

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r_max": self.r_max,
            "components": [c.to_json_obj() for c in self.components],
        }

    def __repr__(self) -> str:
        sizes = [len(c.terms) for c in self.components]
        return f"TruncatedElement(n={self.n}, r_max={self.r_max}, terms per degree {sizes})"


# ---------------------------------------------------------------------------
# product rules


@cache
def _torus_factor(row: int, m: int, l: int, nu: int) -> LaurentPoly:
    """One coordinate of the torus rule: the sum over j of
    v^((row+l)(m-j)) [row choose j] [l+m-nu; nu-j, l+j-nu, m-nu]."""
    out = ZERO
    for j in range(max(0, nu - l), nu + 1):
        b = balanced_binomial(row, j)
        if b:
            tri = balanced_trinomial(nu - j, l + j - nu, m - nu)
            out = out + (b * tri).shift((row + l) * (m - j))
    return out


@cache
def _torus_table(
    rows: IntVector, mu: IntVector, lam: IntVector
) -> tuple[tuple[IntVector, IntVector, LaurentPoly], ...]:
    """The nonzero (nu, lam + mu - nu, product over i of f(rows_i, mu_i,
    lam_i, nu_i)) of the torus rule, nu in lexicographic order: the
    second entry is the output depth vector.  The table of a prefix of
    the coordinates is a cached table of its own, so it is multiplied
    out once for all its extensions."""
    if not rows:
        return (((), (), ONE),)
    row, m, l = rows[-1], mu[-1], lam[-1]
    factors = [(nu, l + m - nu, f) for nu in range(m + 1) if (f := _torus_factor(row, m, l, nu))]
    return tuple(
        (p + (nu,), d + (depth,), c * f)
        for p, d, c in _torus_table(rows[:-1], mu[:-1], lam[:-1])
        for nu, depth, f in factors
    )


def _torus_key(
    gamma: IntVector, mu: IntVector, a: Matrix, delta: IntVector, lam: IntVector
) -> tuple[tuple[SymbolicKey, LaurentPoly], ...]:
    # Every factor of the summand is a product over coordinates and the
    # ranges of j are independent, so the coefficient of nu is
    # v^(ro(a).gamma) times a product of one-coordinate factors that
    # depends on ro(a), mu and lam only: the table of that shape.
    # Z[v, v^-1] has no zero divisors, so the nonzero keys are exactly
    # the products of nonzero factors.
    rows = ro(a)
    shift = dot(rows, gamma)
    top_d = vadd(gamma, delta)
    return tuple(
        ((a, tuple(map(operator.sub, top_d, nu)), depth), c.shift(shift))
        for nu, depth, c in _torus_table(rows, mu, lam)
    )


def _gather(x: SymbolicElement, rule) -> SymbolicElement:
    """The sum over the keys of x, each with its coefficient c, of c times
    the (key, coefficient) pairs rule(a, delta, lam).  One key's pairs
    are distinct, so the first key's make the terms dict outright; later
    keys merge into it."""
    out = SymbolicElement(x.n)
    for (a, delta, lam), c in x.terms.items():
        pairs = rule(a, delta, lam)
        if c != ONE:
            # Z[v, v^-1] has no zero divisors: no product vanishes
            pairs = [(key, c * coeff) for key, coeff in pairs]
        if out.terms:
            for key, coeff in pairs:
                out.add_into(key, coeff)
        else:
            out.terms = dict(pairs)
    return out


def torus_mult(gamma: IntVector, mu: IntVector, x: SymbolicElement) -> SymbolicElement:
    """Left-multiply by the torus generator (0; gamma, mu)."""
    n = x.n
    if len(gamma) != n or len(mu) != n:
        raise DimensionMismatch("vector lengths disagree with the element size")
    if not is_natural(mu):
        raise DomainError("binomial depths must be nonnegative")
    return _gather(x, partial(_torus_key, gamma, mu))


@cache
def _raising_table(
    th: int, th1: int, l: int, l1: int
) -> tuple[tuple[int, int, int, LaurentPoly], ...]:
    """The nonzero (j, k, c, F) of the raising rule for t_h = th,
    t_{h+1} = th1, lam_h = l and lam_{h+1} = l1, in (j, k, c) order:
    F = v^(2 j th - k th1) [-th; l-j] [th1; l1-k] [c, th-c, j-c]."""
    out = []
    for j in range(l + 1):
        bin_j = balanced_binomial(-th, l - j)
        if bin_j.is_zero():
            continue
        for k in range(l1 + 1):
            bin_k = balanced_binomial(th1, l1 - k)
            if bin_k.is_zero():
                continue
            bin_jk = (bin_j * bin_k).shift(2 * j * th - k * th1)
            for c in range(min(th, j) + 1):
                tri = balanced_trinomial(c, th - c, j - c)
                if not tri.is_zero():
                    out.append((j, k, c, bin_jk * tri))
    return tuple(out)


@lru_cache(maxsize=1 << 14)
def _raising_moves(
    m: int, h: int, a: Matrix
) -> tuple[tuple[int, int, int, Matrix, LaurentPoly], ...]:
    """The moves of the raising rule on matrix a: for each composition t
    of m whose units row h+1 of a can give, in lexicographic order,
    (t_h, t_{h+1}, |t| before column h, the new matrix, v^e times the
    product of the bar-binomials), the part of the summand that depends
    on neither delta nor lam.  Keyed by one generator and one matrix,
    never by an exponent or depth vector or an element."""
    n = len(a)
    hi = h - 1
    row_top = a[hi]
    row_bot = a[hi + 1]
    # each unit moved up in column u picks up row h from column u on and
    # row h+1 after column u, both off their diagonal entries, and t_u2
    # for every later column u2 outside {h, h+1}; outside column h it
    # also carries the bar of the one-sided [row_top[u] + t_u choose t_u],
    # which is v^(-t_u row_top[u]) times the balanced binomial
    off = row_top[hi] - row_bot[hi + 1]
    gain = [
        sum(row_top[u if u == hi else u + 1 :]) - sum(row_bot[u + 1 :]) - (off if u <= hi else 0)
        for u in range(n)
    ]
    out = []
    for t in compositions(n, m):
        if any(row_bot[u] < t[u] for u in range(n) if u != hi + 1):
            continue
        exp = 0
        later = 0
        for u in range(n - 1, -1, -1):
            tu = t[u]
            if tu:
                exp += tu * (gain[u] + later)
                if u != hi and u != hi + 1:
                    later += tu
        coeff = v_power(exp)
        for u in range(n):
            if u != hi and t[u]:
                coeff = coeff * balanced_binomial(row_top[u] + t[u], t[u])
        rows = [list(row) for row in a]
        for u in range(n):
            if u != hi:
                rows[hi][u] += t[u]
            if u != hi + 1:
                rows[hi + 1][u] -= t[u]
        out.append((t[hi], t[hi + 1], sum(t[:hi]), tuple(map(tuple, rows)), coeff))
    return tuple(out)


def _raising_key(
    m: int, h: int, a: Matrix, delta: IntVector, lam: IntVector
) -> tuple[tuple[SymbolicKey, LaurentPoly], ...]:
    # a move t fixes the new matrix, so keys of different t never meet,
    # and within one t the table entries give distinct (delta, lam); the
    # exponent vector enters each move as one shift
    hi = h - 1
    d_h, d_h1 = delta[hi], delta[hi + 1]
    l_h, l_h1 = lam[hi], lam[hi + 1]
    d_head, d_tail = delta[:hi], delta[hi + 2 :]
    l_head, l_tail = lam[:hi], lam[hi + 2 :]
    out = []
    for th, th1, pre, a_new, coeff in _raising_moves(m, h, a):
        base = coeff.shift(th1 * d_h1 - th * d_h)
        d_low = d_h + pre + l_h
        d_top = d_h1 + l_h1 - pre - th
        for j, k, c, f in _raising_table(th, th1, l_h, l_h1):
            key = (
                a_new,
                d_head + (d_low - j - c, d_top - k) + d_tail,
                l_head + (th + j - c, k) + l_tail,
            )
            out.append((key, base * f))
    return tuple(out)


def raising_mult(m: int, h: int, x: SymbolicElement) -> SymbolicElement:
    """Left-multiply by the raising generator (m E_{h,h+1}; 0, 0)."""
    n = x.n
    if not 1 <= h <= n - 1:
        raise DomainError(f"row index {h} out of range")
    if m < 0:
        raise DomainError("transfer amount must be nonnegative")
    return _gather(x, partial(_raising_key, m, h))


def _reversed(x: SymbolicElement) -> SymbolicElement:
    # rows, columns and both vectors of each key reversed; no coefficient is zero
    out = SymbolicElement(x.n)
    out.terms = {(rev(a), delta[::-1], lam[::-1]): c for (a, delta, lam), c in x.terms.items()}
    return out


def lowering_mult(m: int, h: int, x: SymbolicElement) -> SymbolicElement:
    """Left-multiply by the lowering generator (m E_{h+1,h}; 0, 0): the
    reversed raising product on rows (n-h, n-h+1) of the reversed x."""
    if not 1 <= h <= x.n - 1:
        raise DomainError(f"row index {h} out of range")
    return _reversed(raising_mult(m, x.n - h, _reversed(x)))


# ---------------------------------------------------------------------------
# exponent reduction


def _excess(delta: IntVector) -> int:
    """How far the exponents lie outside {0, 1}, summed over coordinates."""
    return sum(d - 1 if d > 1 else -d if d < 0 else 0 for d in delta)


def delta_reduce(x: SymbolicElement) -> SymbolicElement:
    """Rewrite until every torus exponent lies in {0, 1}.

    Each step trades one unit of exponent at one coordinate for a
    two-term combination with deeper binomial part; both rewriting
    directions strictly shrink the total excess.  Pending keys are
    merged and the key of largest excess is rewritten first, so every
    key is rewritten at most once.
    """
    pending = SymbolicElement(x.n, x.terms)
    heap = [(-_excess(key[1]), key) for key in pending.terms]
    heapify(heap)
    while heap and heap[0][0] < 0:
        _, key = heappop(heap)
        c = pending.terms.pop(key, None)
        if c is None:
            # cancelled, or a second heap entry of a key already rewritten
            continue
        a, delta, lam = key
        i = next(p for p, d in enumerate(delta) if d < 0 or d > 1)
        li = lam[i]
        lam_up = tuple(x + 1 if p == i else x for p, x in enumerate(lam))
        # s = +1 lowers an exponent above 1 and s = -1 raises one below 0:
        # the second rewrite is the first with v -> v^-1, shifts reversed
        s = 1 if delta[i] > 1 else -1
        d1 = tuple(x - s if p == i else x for p, x in enumerate(delta))
        d2 = tuple(x - 2 * s if p == i else x for p, x in enumerate(delta))
        c1 = c * v_power(s * li) * (v_power(s * (li + 1)) - v_power(-s * (li + 1)))
        c2 = c * v_power(2 * s * li)
        for new_key, new_c in (((a, d1, lam_up), c1), ((a, d2, lam), c2)):
            if new_key not in pending.terms:
                heappush(heap, (-_excess(new_key[1]), new_key))
            pending.add_into(new_key, new_c)
    return pending


# ---------------------------------------------------------------------------
# generator words


def _generator_rule(key: SymbolicKey, n: int):
    """The product rule that left-multiplies an element of size n by a
    one-generator key, with its leading arguments: `torus_mult` for
    (0; delta, lam), `raising_mult` for (m E_{h,h+1}; 0, 0) and
    `lowering_mult` for (m E_{h+1,h}; 0, 0), m > 0.  A key that fails
    `check_key` raises as it says; any other key raises DomainError."""
    a, delta, lam = key
    check_key(n, a, delta, lam)
    # a checked key's matrix has a zero diagonal: a diagonal one is zero
    route = _table(a)[2]
    if route is _DIAGONAL:
        return torus_mult, (delta, lam)
    if route is not _ORACLE and not any(delta) and not any(lam):
        kind, h, m = route
        return (raising_mult if kind == "raising" else lowering_mult), (m, h)
    raise DomainError(f"not a generator key: {key!r}")


def gen_mult(key: SymbolicKey, x: SymbolicElement) -> SymbolicElement:
    """Left-multiply by the generator whose symbolic key is ``key``."""
    rule, args = _generator_rule(key, x.n)
    return rule(*args, x)


def fold_word(word: GeneratorWord, x: SymbolicElement) -> SymbolicElement:
    """The product word[0] * ... * word[-1] * x, folded right to left."""
    for key in reversed(word):
        x = gen_mult(key, x)
    return x


def _raising_word(a: Matrix) -> GeneratorWord:
    n = len(a)
    zero = (0,) * n
    word: list[SymbolicKey] = []
    for jcol in range(n, 1, -1):
        for irow in range(jcol - 1, 0, -1):
            mval = a[irow - 1][jcol - 1]
            if mval:
                for h in range(irow, jcol):
                    word.append((entry_matrix(n, h, h + 1, mval), zero, zero))
    return tuple(word)


def triangular_word(a: Matrix) -> GeneratorWord:
    """The canonical generator word of a zero-diagonal matrix: raising
    keys for the upper part (columns outermost-first), then lowering
    keys for the lower part, each entry m contributing a chain of
    transfer keys (m E_{h,h+1}; 0, 0) or (m E_{h+1,h}; 0, 0) between
    its row and the diagonal.
    """
    if not has_zero_diagonal(a):
        raise DomainError("triangular words need zero-diagonal matrices")
    # transposition swaps raising and lowering keys and reverses words
    lower = reversed(_raising_word(transpose(a)))
    return _raising_word(a) + tuple((transpose(b), d, l) for b, d, l in lower)


def triangular_product(a: Matrix) -> tuple[SymbolicElement, dict]:
    """Fold the canonical word of ``a``, reduce its exponents, and
    report the triangular shape of the result.

    The report records whether the key (a; 0, 0) carries coefficient
    exactly 1 and whether every other surviving key strictly precedes
    ``a`` in the corner-sum order with strictly smaller norm.
    """
    n = len(a)
    folded = delta_reduce(fold_word(triangular_word(a), SymbolicElement.unit(n)))
    zero = (0,) * n
    lead = folded.terms.get((a, zero, zero), ZERO)
    lower_ok = True
    norm_ok = True
    base_norm = matrix_norm(a)
    for (b, _, _), _c in folded.terms.items():
        if b == a:
            continue
        if not precedes(b, a):
            lower_ok = False
        if not matrix_norm(b) < base_norm:
            norm_ok = False
    report = {
        "matrix": [list(row) for row in a],
        "leading_is_one": lead == ONE,
        "lower_terms_precede": lower_ok,
        "norms_decrease": norm_ok,
        "keys": len(folded.terms),
    }
    return folded, report
