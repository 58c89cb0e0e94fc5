"""Elements of the degree-r endomorphism algebra in its normalized
matrix basis, with structured product rules.

A basis element is named by an n-by-n nonnegative integer matrix with
entry sum r.  Products fall into layers:

* diagonal basis elements act as orthogonal idempotents matching row
  and column sums;
* a matrix whose only off-diagonal entry is m at (h, h+1), or at
  (h+1, h), multiplies by a closed-form signed-free sum over
  compositions (`multiply_raising` / `multiply_lowering`);
* everything else falls back to the coset oracle in `hecke`.

`general_product` dispatches each pair with co(a) == ro(b) between the
layers.  A bounded table keyed by one matrix (never by a pair) holds
ro, co and the layer of each matrix as a left factor, so a matrix is
classified once, for products and for the symbolic generator rules; no
product is memoized here.  `check_key` is the one judge of a symbolic
key; `_realize_parts`, the one realization builder, checks each key
there and merges its diagonal completions from one bounded table keyed
by (a, lam, r), and `diag_sum` is the builder on one key in one degree.
Every cached element is read-only.  The structured layers are exactly
what the verification suites compare against the oracle.
`Combination` holds the term arithmetic that `SchurElement` shares with
the symbolic elements.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from types import MappingProxyType

from .errors import DimensionMismatch, DomainError
from .hecke import DEFAULT_ORACLE_CAP, oracle_product
from .laurent import ONE, LaurentPoly, balanced_binomial, v_power, vector_binomial
from .matrices import (
    Matrix,
    co,
    diag_matrix,
    entry_sum,
    has_zero_diagonal,
    is_diagonal,
    is_nonnegative,
    rev,
    ro,
)
from .vectors import IntVector, compositions

__all__ = [
    "Combination",
    "SchurElement",
    "basis_product",
    "general_product",
    "force_oracle_product",
    "multiply_raising",
    "multiply_lowering",
    "diag_sum",
    "check_key",
    "raising_shape",
    "lowering_shape",
]


class Combination:
    """A finite combination of keys with nonzero coefficients in the
    algebra named by a header.  A subclass gives its header slots,
    `_header`, and a constructor that takes the header, then the terms,
    and keeps only the nonzero ones; that constructor is inline because
    every product and realization builds an element."""

    __slots__ = ("terms",)

    @classmethod
    def zero(cls, *header):
        return cls(*header)

    def _check(self, other: "Combination") -> None:
        if self._header() != other._header():
            raise DimensionMismatch("elements live in different algebras")

    def add_into(self, key, c) -> None:
        s = self.terms.get(key)
        s = c if s is None else s + c
        if s.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def __add__(self, other):
        self._check(other)
        out = self.zero(*self._header())
        out.terms = self.terms.copy()
        for k, c in other.terms.items():
            out.add_into(k, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if isinstance(c, int):
            c = LaurentPoly.from_int(c)
        out = self.zero(*self._header())
        if not c.is_zero():
            out.terms = {k: x * c for k, x in self.terms.items()}
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._header() == other._header() and self.terms == other.terms

    def sorted_terms(self) -> list:
        return [(k, self.terms[k]) for k in sorted(self.terms)]


class SchurElement(Combination):
    """A finite Laurent-combination of basis matrices of one degree."""

    __slots__ = ("n", "r")

    def __init__(self, n: int, r: int, terms: dict[Matrix, LaurentPoly] | None = None):
        self.n = n
        self.r = r
        self.terms = {a: c for a, c in terms.items() if not c.is_zero()} if terms else {}

    def _header(self) -> tuple[int, int]:
        return (self.n, self.r)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self.terms == other.terms

    @classmethod
    def basis(cls, a: Matrix) -> "SchurElement":
        if not is_nonnegative(a):
            raise DomainError("basis matrices must be nonnegative")
        return cls(len(a), entry_sum(a), {a: ONE})

    @classmethod
    def unit(cls, n: int, r: int) -> "SchurElement":
        """Sum of all diagonal basis elements of the given degree."""
        return cls(n, r, {diag_matrix(mu): ONE for mu in compositions(n, r)})

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "terms": [{"matrix": a, "coeff": x.to_pairs()} for a, x in self.sorted_terms()],
        }

    def __repr__(self) -> str:
        return f"SchurElement(n={self.n}, r={self.r}, {len(self.terms)} terms)"


def raising_shape(a: Matrix) -> tuple[int, int] | None:
    """(h, m) when the only off-diagonal entry is m > 0 at (h, h+1)."""
    n = len(a)
    found: tuple[int, int] | None = None
    for i in range(n):
        for j in range(n):
            if i != j and a[i][j]:
                if found is not None or j != i + 1:
                    return None
                found = (i + 1, a[i][j])
    return found


def lowering_shape(a: Matrix) -> tuple[int, int] | None:
    """(h, m) when the only off-diagonal entry is m > 0 at (h+1, h).

    Reversal moves that entry to (n-h, n-h+1), so this is the raising
    shape of the reversed matrix with h -> n-h.
    """
    shape = raising_shape(rev(a))
    return None if shape is None else (len(a) - shape[0], shape[1])


@lru_cache(maxsize=1 << 10)
def _empty(n: int, r: int) -> SchurElement:
    out = SchurElement(n, r)
    out.terms = MappingProxyType(out.terms)
    return out


def _frozen(n: int, r: int, terms: dict[Matrix, LaurentPoly]) -> SchurElement:
    """A read-only element of ``terms``, all nonzero, for a cache to
    share; empty terms give the one shared empty element of (n, r)."""
    if not terms:
        return _empty(n, r)
    out = SchurElement(n, r)
    out.terms = MappingProxyType(terms)
    return out


@lru_cache(maxsize=1 << 18)
def multiply_raising(h: int, m: int, a: Matrix) -> SchurElement:
    """Left-multiply the basis element of ``a`` by the basis element
    that moves m units from row h+1 to row h (1 <= h < n).

    The product is a free sum over compositions t of m dominated by
    row h+1 of ``a``: each summand shifts t_u units up in column u and
    carries a v-power and a product of one-sided binomials.
    """
    n = len(a)
    if not 1 <= h <= n - 1:
        raise DomainError(f"row index {h} out of range")
    if not is_nonnegative(a):
        raise DomainError("matrix entries must be nonnegative")
    lam = ro(a)
    if not 0 <= m <= lam[h]:
        raise DomainError("transfer amount exceeds the available row sum")
    hi = h - 1
    row_top = a[hi]
    row_bot = a[hi + 1]
    # each t gives its own matrix, with a nonzero coefficient
    terms = {}
    # the bar of the one-sided [x choose t] is v^(-t(x-t)) times the
    # balanced [x choose t]; here that is v^(-t_u row_top[u]), which drops
    # row_top[u] from the suffix sum of column u
    gain = [sum(row_top[u + 1 :]) - sum(row_bot[u + 1 :]) for u in range(n)]
    for t in compositions(n, m):
        if any(map(operator.gt, t, row_bot)):
            continue
        exp = 0
        for u in range(n):
            tu = t[u]
            if tu:
                exp += tu * gain[u]
                for u2 in range(u + 1, n):
                    exp += tu * t[u2]
        coeff = v_power(exp)
        for u in range(n):
            if t[u]:
                coeff = coeff * balanced_binomial(row_top[u] + t[u], t[u])
        rows = [list(row) for row in a]
        for u in range(n):
            rows[hi][u] += t[u]
            rows[hi + 1][u] -= t[u]
        terms[tuple(tuple(row) for row in rows)] = coeff
    return _frozen(n, entry_sum(a), terms)


@lru_cache(maxsize=1 << 18)
def multiply_lowering(h: int, m: int, a: Matrix) -> SchurElement:
    """Mirror of `multiply_raising`: moves m units from row h to row h+1.

    Reversing the row and column order of every matrix turns this move
    into the raising move on rows n-h and n-h+1, so the product is the
    reversed image of that raising product.  The raising rule checks m
    against its row n-h+1, which is row h here.
    """
    n = len(a)
    if not 1 <= h <= n - 1:
        raise DomainError(f"row index {h} out of range")
    mirror = multiply_raising.__wrapped__(n - h, m, rev(a))
    return _frozen(n, mirror.r, {rev(b): c for b, c in mirror.terms.items()})


# The route of a left factor in `_table`: the two tags without a shape
# are compared by identity.
_DIAGONAL = ("diagonal",)
_ORACLE = ("oracle",)


@lru_cache(maxsize=1 << 10)
def _table(a: Matrix) -> tuple[IntVector, IntVector, tuple]:
    """ro(a), co(a) and the route of [a] as a left factor: `_DIAGONAL`,
    ("raising", h, m), ("lowering", h, m) or `_ORACLE`.  Keyed by one
    matrix, never by a pair, and read-only."""
    if is_diagonal(a):
        route = _DIAGONAL
    elif (shape := raising_shape(a)) is not None:
        route = ("raising", *shape)
    elif (shape := lowering_shape(a)) is not None:
        route = ("lowering", *shape)
    else:
        route = _ORACLE
    return ro(a), co(a), route


def _basis_terms(a: Matrix, b: Matrix, cap: int) -> dict[Matrix, LaurentPoly]:
    # The terms of [a][b], co(a) == ro(b); cached dicts are shared: never mutate one.
    route = _table(a)[2]
    if route is _DIAGONAL:
        return {b: ONE}
    if _table(b)[2] is _DIAGONAL:
        return {a: ONE}
    if route is _ORACLE:
        return oracle_product(a, b, cap)
    kind, h, m = route
    rule = multiply_raising if kind == "raising" else multiply_lowering
    return rule(h, m, b).terms


def basis_product(a: Matrix, b: Matrix, cap: int = DEFAULT_ORACLE_CAP) -> SchurElement:
    """[a][b] via the fastest applicable rule.

    The cap only constrains products that need the coset oracle; the
    structured layers have no size limit.
    """
    return general_product(SchurElement.basis(a), SchurElement.basis(b), cap)


def _bilinear(x: SchurElement, y: SchurElement, product, cap: int) -> SchurElement:
    # Extend product(a, b, cap), the terms of [a][b], over the pairs with co(a) == ro(b).
    if x.n != y.n or x.r != y.r:
        raise DimensionMismatch("elements live in different algebras")
    out = SchurElement(x.n, x.r)
    if not (x.terms and y.terms):
        return out
    right: dict[IntVector, list] = {}
    for b, cb in y.terms.items():
        right.setdefault(_table(b)[0], []).append((b, cb))
    for a, ca in x.terms.items():
        for b, cb in right.get(_table(a)[1], ()):
            prod = product(a, b, cap)
            if prod:
                c = ca * cb
                for mat, coeff in prod.items():
                    # the diagonal routes give the coefficient ONE itself
                    out.add_into(mat, c if coeff is ONE else c * coeff)
    return out


def general_product(
    x: SchurElement, y: SchurElement, cap: int = DEFAULT_ORACLE_CAP
) -> SchurElement:
    """Bilinear extension of `basis_product`."""
    return _bilinear(x, y, _basis_terms, cap)


def force_oracle_product(
    x: SchurElement, y: SchurElement, cap: int = DEFAULT_ORACLE_CAP
) -> SchurElement:
    """Bilinear product that routes every basis pair through the coset
    oracle, bypassing the structured layers (used for cross-checks)."""
    return _bilinear(x, y, oracle_product, cap)


@lru_cache(maxsize=1 << 14)
def _key_matrix(a: Matrix) -> tuple[int, str | None]:
    """|a|, and why a cannot be the matrix of a symbolic key, or None
    when it can.  Keyed by one matrix."""
    if not has_zero_diagonal(a):
        fault = "symbolic keys use zero-diagonal matrices"
    elif not is_nonnegative(a):
        fault = "symbolic key matrices have nonnegative entries"
    else:
        fault = None
    return entry_sum(a), fault


def check_key(n: int, a: Matrix, delta: IntVector, lam: IntVector) -> int:
    """Check a symbolic key (a; delta, lam) of an element of size n and
    return its lowest degree |a| + |lam|.  `SymbolicElement.gen`, the
    generator rules and the realization builder all check keys here.
    The first failure raises, in this order: a vector length differs
    from the matrix size, the matrix size differs from n, a binomial
    depth is negative, a diagonal entry is nonzero, an entry is
    negative."""
    size = len(a)
    if len(delta) != size or len(lam) != size:
        raise DimensionMismatch("vector lengths disagree with the matrix size")
    if size != n:
        raise DimensionMismatch("key size differs from the element size")
    if size and min(lam) < 0:
        raise DomainError("binomial depths must be nonnegative")
    mass, fault = _key_matrix(a)
    if fault:
        raise DomainError(fault)
    return mass + sum(lam)


@lru_cache(maxsize=1 << 14)
def _completion_table(
    a: Matrix, lam: IntVector, r: int
) -> tuple[tuple[Matrix, IntVector, LaurentPoly], ...]:
    """The degree-r completions of a checked key (a; lam) with
    r >= |a| + |lam|: (a + diag(mu), mu, [mu choose lam]) for each
    mu >= lam with |a| + |mu| = r, lex ascending in mu.  Keyed by one
    matrix, one depth vector and one degree, never by an exponent
    vector: v^(mu.delta) is a shift of each entry."""
    # row i of a + diag(mu) is a[i] with mu_i added at position i
    rows = [(row[:i], row[i], row[i + 1 :]) for i, row in enumerate(a)]
    out = []
    for nu in compositions(len(lam), r - entry_sum(a) - sum(lam)):
        mu = tuple(map(operator.add, lam, nu))
        mat = tuple([pre + (d + m,) + post for (pre, d, post), m in zip(rows, mu)])
        out.append((mat, mu, vector_binomial(mu, lam)))
    return tuple(out)


def _realize_parts(n: int, items, lo: int, hi: int) -> tuple[SchurElement, ...]:
    """The read-only parts in degrees lo..hi of the combination of keys
    ``items``, pairs ((a; delta, lam), c), of size n: in degree r, the
    sum over keys of c v^(mu.delta) [mu choose lam] [a + diag(mu)] over
    the completions mu of the (a, lam, r) table.  Every key passes
    `check_key`, even one above every degree asked, and is merged from
    its lowest degree |a| + |lam| up; nothing is computed below it."""
    if lo < 0 or hi < 0:
        raise DomainError(f"degree {min(lo, hi)} is negative")
    merged: list[dict] = [{} for _ in range(lo, hi + 1)]
    for (a, delta, lam), c in items:
        low = check_key(n, a, delta, lam)
        if low > hi:
            continue
        for r in range(max(lo, low), hi + 1):
            terms = merged[r - lo]
            for mat, mu, b in _completion_table(a, lam, r):
                x = (c * b).shift(sum(map(operator.mul, mu, delta)))
                s = terms.get(mat)
                if s is not None:
                    x = s + x
                # a specialized c can kill an entry; sums can cancel
                if not x.is_zero():
                    terms[mat] = x
                elif s is not None:
                    del terms[mat]
    return tuple(_frozen(n, lo + i, terms) for i, terms in enumerate(merged))


@lru_cache(maxsize=1 << 18)
def diag_sum(a: Matrix, delta: IntVector, lam: IntVector, r: int) -> SchurElement:
    """The degree-r slice of the symbolic generator (a; delta, lam):
    sum over diagonal completions mu of v^(mu.delta) [mu choose lam]
    times the basis element a + diag(mu).

    [m choose l] vanishes exactly when 0 <= m < l, so only the
    completions mu >= lam contribute, and the slice is zero when the
    degree cannot accommodate |a| + |lam|.  This is `_realize_parts` on
    the one key in the one degree: a key that fails `check_key`, such
    as one with a negative entry, and a negative degree raise.
    """
    return _realize_parts(len(a), (((a, delta, lam), ONE),), r, r)[0]
