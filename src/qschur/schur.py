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

`general_product` dispatches between the layers; the structured layers
are exactly what the verification suites compare against the oracle.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import DimensionMismatch, DomainError
from .hecke import DEFAULT_ORACLE_CAP, oracle_product
from .laurent import ONE, ZERO, LaurentPoly, unbalanced_binomial, v_power, vector_binomial
from .matrices import (
    Matrix,
    add_diag,
    co,
    diag_matrix,
    entry_sum,
    is_diagonal,
    is_nonnegative,
    rev,
    ro,
)
from .vectors import IntVector, compositions, compositions_capped, dot

__all__ = [
    "SchurElement",
    "basis_product",
    "general_product",
    "force_oracle_product",
    "multiply_raising",
    "multiply_lowering",
    "diag_mult",
    "diag_sum",
    "raising_shape",
    "lowering_shape",
]


class SchurElement:
    """A finite Laurent-combination of basis matrices of one degree."""

    __slots__ = ("n", "r", "terms")

    def __init__(self, n: int, r: int, terms: dict[Matrix, LaurentPoly] | None = None):
        self.n = n
        self.r = r
        self.terms: dict[Matrix, LaurentPoly] = {}
        if terms:
            for a, c in terms.items():
                if not c.is_zero():
                    self.terms[a] = c

    @classmethod
    def zero(cls, n: int, r: int) -> "SchurElement":
        return cls(n, r)

    @classmethod
    def basis(cls, a: Matrix) -> "SchurElement":
        if not is_nonnegative(a):
            raise DomainError("basis matrices must be nonnegative")
        return cls(len(a), entry_sum(a), {a: ONE})

    @classmethod
    def unit(cls, n: int, r: int) -> "SchurElement":
        """Sum of all diagonal basis elements of the given degree."""
        return cls(n, r, {diag_matrix(mu): ONE for mu in compositions(n, r)})

    def _check(self, other: "SchurElement") -> None:
        if self.n != other.n or self.r != other.r:
            raise DimensionMismatch("elements live in different algebras")

    def __add__(self, other: "SchurElement") -> "SchurElement":
        self._check(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            s = out.get(a)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(a, None)
            else:
                out[a] = s
        res = SchurElement(self.n, self.r)
        res.terms = out
        return res

    def __sub__(self, other: "SchurElement") -> "SchurElement":
        return self + other.scale(LaurentPoly.from_int(-1))

    def scale(self, c: LaurentPoly | int) -> "SchurElement":
        if isinstance(c, int):
            c = LaurentPoly.from_int(c)
        res = SchurElement(self.n, self.r)
        if not c.is_zero():
            res.terms = {a: x * c for a, x in self.terms.items()}
        return res

    def add_into(self, a: Matrix, c: LaurentPoly) -> None:
        s = self.terms.get(a)
        s = c if s is None else s + c
        if s.is_zero():
            self.terms.pop(a, None)
        else:
            self.terms[a] = s

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchurElement):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, self.r, frozenset(self.terms.items())))

    def coeff(self, a: Matrix) -> LaurentPoly:
        return self.terms.get(a, ZERO)

    def sorted_terms(self) -> list[tuple[Matrix, LaurentPoly]]:
        return [(a, self.terms[a]) for a in sorted(self.terms)]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "terms": [
                {"matrix": [list(row) for row in a], "coeff": [[e, c] for e, c in x.to_pairs()]}
                for a, x in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(", ", ": "))

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
    """(h, m) when the only off-diagonal entry is m > 0 at (h+1, h)."""
    n = len(a)
    found: tuple[int, int] | None = None
    for i in range(n):
        for j in range(n):
            if i != j and a[i][j]:
                if found is not None or i != j + 1:
                    return None
                found = (j + 1, a[i][j])
    return found


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
    lam = ro(a)
    if not 0 <= m <= lam[h]:
        raise DomainError("transfer amount exceeds the available row sum")
    hi = h - 1
    row_top = a[hi]
    row_bot = a[hi + 1]
    out = SchurElement(n, entry_sum(a))
    for t in compositions_capped(n, m, tuple(row_bot)):
        exp = 0
        for u in range(n):
            tu = t[u]
            if tu:
                exp += tu * sum(row_top[u:]) - tu * sum(row_bot[u + 1 :])
                for u2 in range(u + 1, n):
                    exp += tu * t[u2]
        coeff = v_power(exp)
        for u in range(n):
            if t[u]:
                coeff = coeff * unbalanced_binomial(row_top[u] + t[u], t[u]).bar()
        rows = [list(row) for row in a]
        for u in range(n):
            rows[hi][u] += t[u]
            rows[hi + 1][u] -= t[u]
        out.add_into(tuple(tuple(row) for row in rows), coeff)
    return out


@lru_cache(maxsize=1 << 18)
def multiply_lowering(h: int, m: int, a: Matrix) -> SchurElement:
    """Mirror of `multiply_raising`: moves m units from row h to row h+1.

    Reversing the row and column order of every matrix turns this move
    into the raising move on rows n-h and n-h+1, so the product is the
    reversed image of that raising product.
    """
    n = len(a)
    if not 1 <= h <= n - 1:
        raise DomainError(f"row index {h} out of range")
    if not 0 <= m <= ro(a)[h - 1]:
        raise DomainError("transfer amount exceeds the available row sum")
    mirror = multiply_raising.__wrapped__(n - h, m, rev(a))
    return SchurElement(n, mirror.r, {rev(b): c for b, c in mirror.terms.items()})


def diag_mult(lam: IntVector, a: Matrix, side: str = "left") -> SchurElement:
    """Multiply by a diagonal basis element on the given side."""
    if side == "left":
        keep = ro(a) == lam
    elif side == "right":
        keep = co(a) == lam
    else:
        raise DomainError("side must be 'left' or 'right'")
    if keep:
        return SchurElement.basis(a)
    return SchurElement.zero(len(a), entry_sum(a))


@lru_cache(maxsize=1 << 18)
def _basis_product_cached(a: Matrix, b: Matrix, cap: int) -> SchurElement:
    n = len(a)
    r = entry_sum(a)
    if co(a) != ro(b):
        return SchurElement.zero(n, r)
    if is_diagonal(a):
        return SchurElement.basis(b)
    if is_diagonal(b):
        return SchurElement.basis(a)
    shape = raising_shape(a)
    if shape is not None:
        return multiply_raising(shape[0], shape[1], b)
    shape = lowering_shape(a)
    if shape is not None:
        return multiply_lowering(shape[0], shape[1], b)
    raw = oracle_product(a, b, cap)
    out = SchurElement(n, r)
    out.terms = raw
    return out


def basis_product(a: Matrix, b: Matrix, cap: int = DEFAULT_ORACLE_CAP) -> SchurElement:
    """[a][b] via the fastest applicable rule.

    The cap only constrains products that need the coset oracle; the
    structured layers have no size limit.
    """
    if len(a) != len(b):
        raise DimensionMismatch("matrix sizes differ")
    if entry_sum(a) != entry_sum(b):
        raise DimensionMismatch("matrices have different degrees")
    return _basis_product_cached(a, b, cap)


def general_product(
    x: SchurElement, y: SchurElement, cap: int = DEFAULT_ORACLE_CAP
) -> SchurElement:
    """Bilinear extension of `basis_product`."""
    x._check(y)
    out = SchurElement(x.n, x.r)
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            prod = _basis_product_cached(a, b, cap)
            if prod.is_zero():
                continue
            c = ca * cb
            for mat, coeff in prod.terms.items():
                out.add_into(mat, c * coeff)
    return out


def force_oracle_product(
    x: SchurElement, y: SchurElement, cap: int = DEFAULT_ORACLE_CAP
) -> SchurElement:
    """Bilinear product that routes every basis pair through the coset
    oracle, bypassing the structured layers (used for cross-checks)."""
    x._check(y)
    out = SchurElement(x.n, x.r)
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            raw = oracle_product(a, b, cap)
            c = ca * cb
            for mat, coeff in raw.items():
                out.add_into(mat, c * coeff)
    return out


@lru_cache(maxsize=1 << 18)
def diag_sum(a: Matrix, delta: IntVector, lam: IntVector, r: int) -> SchurElement:
    """The degree-r slice of the symbolic generator (a; delta, lam):
    sum over diagonal completions mu of v^(mu.delta) [mu choose lam]
    times the basis element a + diag(mu).

    Zero when the off-diagonal entries are not all nonnegative or the
    degree cannot accommodate the off-diagonal mass.
    """
    n = len(a)
    if len(delta) != n or len(lam) != n:
        raise DimensionMismatch("vector lengths disagree with the matrix size")
    out = SchurElement(n, r)
    if not is_nonnegative(a):
        return out
    rest = r - entry_sum(a)
    if rest < 0:
        return out
    for mu in compositions(n, rest):
        c = vector_binomial(mu, lam)
        if c.is_zero():
            continue
        out.add_into(add_diag(a, mu), v_power(dot(mu, delta)) * c)
    return out
