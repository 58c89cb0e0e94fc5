"""Symbolic elements spanning all degrees at once, and the closed
product formulas that act on them.

A symbolic key is a triple (A, delta, lam): a zero-diagonal matrix of
nonnegative off-diagonal entries, an integer vector of torus exponents
and a natural vector of torus binomial depths.  Realizing a key in
degree r produces the sum over diagonal completions mu of

    v^(mu . delta) * [mu choose lam] * (basis element A + diag(mu)),

and a symbolic element is a finite Laurent-combination of keys,
realized into a `TruncatedElement`.  A completion mu covers lam
entrywise, so realization goes key by key and starts each key at
degree |A| + |lam|.

Three product rules multiply a one-generator factor into a symbolic
element without leaving the symbolic side:

* `torus_mult`    -- left factor (0; gamma, mu);
* `raising_mult`  -- left factor (m E_{h,h+1}; 0, 0);
* `lowering_mult` -- left factor (m E_{h+1,h}; 0, 0).

Every generator is its own key, so a generator word is a tuple of
keys: `gen_mult` sends a one-generator key to its rule, and
`fold_word` folds a word onto any element, right to left.

`delta_reduce` rewrites every key until its exponent vector lies in
{0,1}^n, using the two-term recurrences satisfied by the torus part;
`triangular_product` folds the canonical raising/lowering word of a
zero-diagonal matrix and checks its triangular shape against the
corner-sum order.
"""

from __future__ import annotations

import operator
from functools import cache
from heapq import heapify, heappop, heappush
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
)
from .matrices import (
    Matrix,
    entry_matrix,
    entry_sum,
    has_zero_diagonal,
    is_nonnegative,
    matrix_norm,
    precedes,
    rev,
    ro,
    zero_matrix,
)
from .schur import (
    Combination,
    SchurElement,
    check_diag_key,
    diag_sum,
    force_oracle_product,
    general_product,
    lowering_shape,
    raising_shape,
)
from .hecke import DEFAULT_ORACLE_CAP
from .vectors import IntVector, compositions, dot, is_natural, vadd, vsub

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


def _check_key(a: Matrix, delta: IntVector, lam: IntVector) -> None:
    n = len(a)
    if len(delta) != n or len(lam) != n:
        raise DimensionMismatch("vector lengths disagree with the matrix size")
    if not has_zero_diagonal(a):
        raise DomainError("symbolic keys use zero-diagonal matrices")
    if not is_nonnegative(a):
        raise DomainError("symbolic key matrices have nonnegative entries")
    if not is_natural(lam):
        raise DomainError("binomial depths must be nonnegative")


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
        cls, a: Matrix, delta: IntVector, lam: IntVector, coeff: LaurentPoly = ONE
    ) -> "SymbolicElement":
        _check_key(a, delta, lam)
        return cls(len(a), {(a, delta, lam): coeff})

    @classmethod
    def unit(cls, n: int) -> "SymbolicElement":
        z = (0,) * n
        return cls(n, {(zero_matrix(n), z, z): ONE})

    def _realize(self, lo: int, hi: int) -> tuple[SchurElement, ...]:
        # degrees lo..hi; no key has a completion below |a| + |lam|
        out = tuple(SchurElement(self.n, r) for r in range(lo, hi + 1))
        for (a, delta, lam), c in self.terms.items():
            parts = out[max(0, entry_sum(a) + sum(lam) - lo):]
            if not parts:
                # diag_sum checks the key wherever it is called
                check_diag_key(a, delta, lam)
            for part in parts:
                for mat, x in diag_sum(a, delta, lam, part.r).terms.items():
                    part.add_into(mat, c * x)
        return out

    def realize(self, r: int) -> SchurElement:
        return self._realize(r, r)[0]

    def realize_truncated(self, r_max: int) -> "TruncatedElement":
        return TruncatedElement(self.n, r_max, self._realize(0, r_max))

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
        mult = general_product if engine == "fast" else force_oracle_product
        return self._zip(other, lambda a, b: mult(a, b, cap))

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


def _torus_key(
    gamma: IntVector, mu: IntVector, a: Matrix, delta: IntVector, lam: IntVector
) -> tuple[tuple[SymbolicKey, LaurentPoly], ...]:
    # Every factor of the summand is a product over coordinates and the
    # ranges of j are independent, so the coefficient of nu is
    # v^(ro(a).gamma) times a product of one-coordinate factors.  Z[v, v^-1]
    # has no zero divisors: the nonzero keys are exactly the products of
    # nonzero factors, and `_product` walks them in lexicographic nu order.
    rows = ro(a)
    base = dot(rows, gamma)
    factors = [
        [(nu, f) for nu in range(m + 1) if (f := _torus_factor(row, m, l, nu))]
        for row, m, l in zip(rows, mu, lam)
    ]
    top_d = vadd(gamma, delta)
    top_l = vadd(lam, mu)
    out: list[tuple[SymbolicKey, LaurentPoly]] = []
    for choice in _product(*factors):
        nu = tuple(x for x, _ in choice)
        coeff = choice[0][1]
        for _, f in choice[1:]:
            coeff = coeff * f
        out.append(((a, vsub(top_d, nu), vsub(top_l, nu)), coeff.shift(base)))
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


def _lowering_key(
    m: int, h: int, a: Matrix, delta: IntVector, lam: IntVector
) -> tuple[tuple[SymbolicKey, LaurentPoly], ...]:
    # reversing rows, columns and both vectors turns the lowering move
    # on rows (h, h+1) into the raising move on rows (n-h, n-h+1)
    mirror = _raising_key(m, len(a) - h, rev(a), delta[::-1], lam[::-1])
    # one reversed matrix per distinct matrix, shared by its keys, as the
    # product keeps every key
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


def _generator_rule(key: SymbolicKey):
    """The product rule that left-multiplies by a one-generator key,
    with its leading arguments: `torus_mult` for (0; delta, lam),
    `raising_mult` for (m E_{h,h+1}; 0, 0) and `lowering_mult` for
    (m E_{h+1,h}; 0, 0), m > 0.  Any other key raises DomainError."""
    a, delta, lam = key
    _check_key(a, delta, lam)
    if not any(map(any, a)):
        return torus_mult, (delta, lam)
    if not any(delta) and not any(lam):
        for shape_of, rule in ((raising_shape, raising_mult), (lowering_shape, lowering_mult)):
            shape = shape_of(a)
            if shape is not None and shape[1] > 0:
                return rule, (shape[1], shape[0])
    raise DomainError(f"not a generator key: {key!r}")


def gen_mult(key: SymbolicKey, x: SymbolicElement) -> SymbolicElement:
    """Left-multiply by the generator whose symbolic key is ``key``."""
    if len(key[0]) != x.n:
        raise DimensionMismatch("key size differs from the element size")
    rule, args = _generator_rule(key)
    return rule(*args, x)


def fold_word(word: GeneratorWord, x: SymbolicElement) -> SymbolicElement:
    """The product word[0] * ... * word[-1] * x, folded right to left."""
    for key in reversed(word):
        x = gen_mult(key, x)
    return x


def triangular_word(a: Matrix) -> GeneratorWord:
    """The canonical generator word of a zero-diagonal matrix: raising
    keys for the upper part (columns outermost-first), then lowering
    keys for the lower part, each entry m contributing a chain of
    transfer keys (m E_{h,h+1}; 0, 0) or (m E_{h+1,h}; 0, 0) between
    its row and the diagonal.
    """
    n = len(a)
    if not has_zero_diagonal(a):
        raise DomainError("triangular words need zero-diagonal matrices")
    zero = (0,) * n
    word: list[SymbolicKey] = []
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
