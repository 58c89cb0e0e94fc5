"""Symbolic elements spanning all degrees at once, and the closed
product formulas that act on them.

A symbolic key is a triple (A, delta, lam): a zero-diagonal matrix of
nonnegative off-diagonal entries, an integer vector of torus exponents
and a natural vector of torus binomial depths.  Realizing a key in
degree r produces the sum over diagonal completions mu of

    v^(mu . delta) * [mu choose lam] * (basis element A + diag(mu)),

and a symbolic element is a finite Laurent-combination of keys,
realized degree by degree into a `TruncatedElement`.

Three product rules multiply a one-generator factor into a symbolic
element without leaving the symbolic side:

* `torus_mult`    -- left factor (0; gamma, mu);
* `raising_mult`  -- left factor (m E_{h,h+1}; 0, 0);
* `lowering_mult` -- left factor (m E_{h+1,h}; 0, 0).

`delta_reduce` rewrites every key until its exponent vector lies in
{0,1}^n, using the two-term recurrences satisfied by the torus part;
`triangular_product` folds the canonical raising/lowering word of a
zero-diagonal matrix and checks its triangular shape against the
corner-sum order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _product

from .errors import DimensionMismatch, DomainError
from .laurent import (
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
from .matrices import (
    Matrix,
    has_zero_diagonal,
    is_nonnegative,
    matrix_norm,
    precedes,
    rev,
    ro,
    zero_matrix,
)
from .schur import SchurElement, diag_sum, force_oracle_product, general_product
from .hecke import DEFAULT_ORACLE_CAP
from .vectors import IntVector, compositions, dot, is_natural, vadd, vsub

__all__ = [
    "SymbolicKey",
    "SymbolicElement",
    "TruncatedElement",
    "torus_mult",
    "raising_mult",
    "lowering_mult",
    "torus_product_expansion",
    "delta_reduce",
    "triangular_word",
    "triangular_product",
    "precedes",
    "matrix_norm",
]

SymbolicKey = tuple[Matrix, IntVector, IntVector]


def _check_key(a: Matrix, delta: IntVector, lam: IntVector) -> None:
    n = len(a)
    if len(delta) != n or len(lam) != n:
        raise DimensionMismatch("vector lengths disagree with the matrix size")
    if not has_zero_diagonal(a):
        raise DomainError("symbolic keys use zero-diagonal matrices")
    if not is_natural(lam):
        raise DomainError("binomial depths must be nonnegative")


class SymbolicElement:
    """Laurent-combination of symbolic keys of one common size n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[SymbolicKey, LaurentPoly] | None = None):
        self.n = n
        self.terms: dict[SymbolicKey, LaurentPoly] = {}
        if terms:
            for k, c in terms.items():
                if not c.is_zero():
                    self.terms[k] = c

    @classmethod
    def gen(
        cls, a: Matrix, delta: IntVector, lam: IntVector, coeff: LaurentPoly = ONE
    ) -> "SymbolicElement":
        _check_key(a, delta, lam)
        out = cls(len(a))
        if is_nonnegative(a) and not coeff.is_zero():
            out.terms[(a, delta, lam)] = coeff
        return out

    @classmethod
    def unit(cls, n: int) -> "SymbolicElement":
        z = (0,) * n
        return cls(n, {(zero_matrix(n), z, z): ONE})

    @classmethod
    def zero(cls, n: int) -> "SymbolicElement":
        return cls(n)

    def add_into(self, key: SymbolicKey, c: LaurentPoly) -> None:
        s = self.terms.get(key)
        s = c if s is None else s + c
        if s.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def __add__(self, other: "SymbolicElement") -> "SymbolicElement":
        if self.n != other.n:
            raise DimensionMismatch("sizes differ")
        out = SymbolicElement(self.n, self.terms)
        for k, c in other.terms.items():
            out.add_into(k, c)
        return out

    def __sub__(self, other: "SymbolicElement") -> "SymbolicElement":
        return self + other.scale(LaurentPoly.from_int(-1))

    def scale(self, c: LaurentPoly | int) -> "SymbolicElement":
        if isinstance(c, int):
            c = LaurentPoly.from_int(c)
        out = SymbolicElement(self.n)
        if not c.is_zero():
            out.terms = {k: c * x for k, x in self.terms.items()}
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def sorted_terms(self) -> list[tuple[SymbolicKey, LaurentPoly]]:
        return [(k, self.terms[k]) for k in sorted(self.terms)]

    def realize(self, r: int) -> SchurElement:
        out = SchurElement(self.n, r)
        for (a, delta, lam), c in self.terms.items():
            piece = diag_sum(a, delta, lam, r)
            for mat, x in piece.terms.items():
                out.add_into(mat, c * x)
        return out

    def realize_truncated(self, r_max: int) -> "TruncatedElement":
        return TruncatedElement(
            self.n, r_max, tuple(self.realize(r) for r in range(r_max + 1))
        )

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "A": [list(row) for row in a],
                "delta": list(delta),
                "lambda": list(lam),
                "coeff": [[e, c] for e, c in x.to_pairs()],
            }
            for (a, delta, lam), x in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"SymbolicElement(n={self.n}, {len(self.terms)} keys)"


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

    def _check(self, other: "TruncatedElement") -> None:
        if self.n != other.n or self.r_max != other.r_max:
            raise DimensionMismatch("truncations differ")

    def __add__(self, other: "TruncatedElement") -> "TruncatedElement":
        self._check(other)
        return TruncatedElement(
            self.n, self.r_max, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "TruncatedElement") -> "TruncatedElement":
        self._check(other)
        return TruncatedElement(
            self.n, self.r_max, tuple(a - b for a, b in zip(self.components, other.components))
        )

    def scale(self, c: LaurentPoly | int) -> "TruncatedElement":
        return TruncatedElement(self.n, self.r_max, tuple(x.scale(c) for x in self.components))

    def scale_divexact(self, divisor: LaurentPoly) -> "TruncatedElement":
        out = []
        for comp in self.components:
            piece = SchurElement(self.n, comp.r)
            for a, c in comp.terms.items():
                piece.add_into(a, c.divexact(divisor))
            out.append(piece)
        return TruncatedElement(self.n, self.r_max, tuple(out))

    def multiply(
        self, other: "TruncatedElement", cap: int = DEFAULT_ORACLE_CAP, engine: str = "fast"
    ) -> "TruncatedElement":
        self._check(other)
        mult = general_product if engine == "fast" else force_oracle_product
        return TruncatedElement(
            self.n,
            self.r_max,
            tuple(mult(a, b, cap) for a, b in zip(self.components, other.components)),
        )

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


@lru_cache(maxsize=1 << 18)
def _torus_key(
    gamma: IntVector, mu: IntVector, a: Matrix, delta: IntVector, lam: IntVector
) -> tuple[tuple[SymbolicKey, LaurentPoly], ...]:
    n = len(a)
    rows = ro(a)
    out: list[tuple[SymbolicKey, LaurentPoly]] = []
    for nu in _product(*(range(m + 1) for m in mu)):
        nu = tuple(nu)
        coeff = ZERO
        j_ranges = [range(max(0, nu[i] - lam[i]), nu[i] + 1) for i in range(n)]
        for j in _product(*j_ranges):
            j = tuple(j)
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


def torus_mult(gamma: IntVector, mu: IntVector, x: SymbolicElement) -> SymbolicElement:
    """Left-multiply by the torus generator (0; gamma, mu)."""
    n = x.n
    if len(gamma) != n or len(mu) != n:
        raise DimensionMismatch("vector lengths disagree with the element size")
    if not is_natural(mu):
        raise DomainError("binomial depths must be nonnegative")
    out = SymbolicElement(n)
    for (a, delta, lam), c in x.terms.items():
        for key, coeff in _torus_key(gamma, mu, a, delta, lam):
            out.add_into(key, c * coeff)
    return out


@lru_cache(maxsize=1 << 18)
def _raising_key(
    m: int, h: int, a: Matrix, delta: IntVector, lam: IntVector
) -> tuple[tuple[SymbolicKey, LaurentPoly], ...]:
    n = len(a)
    hi = h - 1
    row_top = a[hi]
    row_bot = a[hi + 1]
    out: dict[SymbolicKey, LaurentPoly] = {}
    for t in compositions(n, m):
        if any(row_bot[u] < t[u] for u in range(n) if u != hi + 1):
            continue
        base_exp = 0
        for u in range(n):
            tu = t[u]
            if tu:
                base_exp += tu * sum(x for p, x in enumerate(row_top) if p >= u and p != hi)
                base_exp -= tu * sum(x for p, x in enumerate(row_bot) if p > u and p != hi + 1)
                for u2 in range(u + 1, n):
                    if u2 != hi and u2 != hi + 1:
                        base_exp += tu * t[u2]
        base_exp += -t[hi] * delta[hi] + t[hi + 1] * delta[hi + 1]
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
            if bin_j.is_zero():
                continue
            for k in range(lam[hi + 1] + 1):
                bin_k = balanced_binomial(th1, lam[hi + 1] - k)
                if bin_k.is_zero():
                    continue
                for c in range(min(th, j) + 1):
                    tri = balanced_trinomial(c, th - c, j - c)
                    if tri.is_zero():
                        continue
                    coeff = (
                        base
                        * v_power(2 * j * th - k * th1)
                        * bin_j
                        * bin_k
                        * tri
                    )
                    d_new = list(delta)
                    d_new[hi] += pre + lam[hi] - j - c
                    d_new[hi + 1] += lam[hi + 1] - k - pre - th
                    l_new = list(lam)
                    l_new[hi] = th + j - c
                    l_new[hi + 1] = k
                    key = (a_new, tuple(d_new), tuple(l_new))
                    s = out.get(key)
                    s = coeff if s is None else s + coeff
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
    return tuple(out.items())


@lru_cache(maxsize=1 << 18)
def _lowering_key(
    m: int, h: int, a: Matrix, delta: IntVector, lam: IntVector
) -> tuple[tuple[SymbolicKey, LaurentPoly], ...]:
    # reversing rows, columns and both vectors turns the lowering move
    # on rows (h, h+1) into the raising move on rows (n-h, n-h+1)
    mirror = _raising_key.__wrapped__(m, len(a) - h, rev(a), delta[::-1], lam[::-1])
    # one reversed matrix per distinct matrix, shared by its keys, as the
    # cache holds every key
    mats = {b: rev(b) for (b, _, _), _ in mirror}
    return tuple(((mats[b], d[::-1], lb[::-1]), c) for (b, d, lb), c in mirror)


def _transfer_mult(key_fn, m: int, h: int, x: SymbolicElement) -> SymbolicElement:
    n = x.n
    if not 1 <= h <= n - 1:
        raise DomainError(f"row index {h} out of range")
    if m < 0:
        raise DomainError("transfer amount must be nonnegative")
    out = SymbolicElement(n)
    for (a, delta, lam), c in x.terms.items():
        for key, coeff in key_fn(m, h, a, delta, lam):
            out.add_into(key, c * coeff)
    return out


def raising_mult(m: int, h: int, x: SymbolicElement) -> SymbolicElement:
    """Left-multiply by the raising generator (m E_{h,h+1}; 0, 0)."""
    return _transfer_mult(_raising_key, m, h, x)


def lowering_mult(m: int, h: int, x: SymbolicElement) -> SymbolicElement:
    """Left-multiply by the lowering generator (m E_{h+1,h}; 0, 0)."""
    return _transfer_mult(_lowering_key, m, h, x)


def torus_product_expansion(delta: IntVector, lam: IntVector, a: Matrix) -> SymbolicElement:
    """Expansion of (0; delta, lam) * (a; 0, 0); the key (a; delta, lam)
    appears with the invertible coefficient v^(ro(a).(delta+lam))."""
    n = len(a)
    zero = (0,) * n
    return torus_mult(delta, lam, SymbolicElement.gen(a, zero, zero))


# ---------------------------------------------------------------------------
# exponent reduction


def delta_reduce(x: SymbolicElement) -> SymbolicElement:
    """Rewrite until every torus exponent lies in {0, 1}.

    Each step trades one unit of exponent at one coordinate for a
    two-term combination with deeper binomial part; both rewriting
    directions strictly shrink the total excess, so this terminates.
    """
    n = x.n
    done = SymbolicElement(n)
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


# ---------------------------------------------------------------------------
# triangular words


def triangular_word(a: Matrix) -> list[tuple[str, int, int]]:
    """The canonical generator word of a zero-diagonal matrix: raising
    symbols for the upper part (columns outermost-first), then lowering
    symbols for the lower part, each entry contributing a chain between
    its row and the diagonal.  Symbols are ("E"|"F", h, m) with m > 0.
    """
    n = len(a)
    if not has_zero_diagonal(a):
        raise DomainError("triangular words need zero-diagonal matrices")
    word: list[tuple[str, int, int]] = []
    for jcol in range(n, 1, -1):
        for irow in range(jcol - 1, 0, -1):
            mval = a[irow - 1][jcol - 1]
            if mval:
                for h in range(irow, jcol):
                    word.append(("E", h, mval))
    for jcol in range(2, n + 1):
        for irow in range(1, jcol):
            mval = a[jcol - 1][irow - 1]
            if mval:
                for h in range(jcol - 1, irow - 1, -1):
                    word.append(("F", h, mval))
    return word


def apply_symbol(sym: tuple[str, int, int], x: SymbolicElement) -> SymbolicElement:
    kind, h, m = sym
    if kind == "E":
        return raising_mult(m, h, x)
    if kind == "F":
        return lowering_mult(m, h, x)
    raise DomainError(f"unknown symbol kind {kind!r}")


def fold_word(word: list[tuple[str, int, int]], n: int) -> SymbolicElement:
    """Right-to-left product of a generator word on the symbolic side."""
    acc = SymbolicElement.unit(n)
    for sym in reversed(word):
        acc = apply_symbol(sym, acc)
    return acc


def triangular_product(a: Matrix, r_max: int) -> tuple[TruncatedElement, dict]:
    """Fold the canonical word of ``a`` and report its triangular shape.

    The report records whether the key (a; 0, 0) carries coefficient
    exactly 1 and whether every other surviving key strictly precedes
    ``a`` in the corner-sum order with strictly smaller norm.
    """
    n = len(a)
    folded = delta_reduce(fold_word(triangular_word(a), n))
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
    return folded.realize_truncated(r_max), report
