"""Exact Laurent polynomials in one variable v over the integers.

A polynomial is stored as a dict mapping exponents to nonzero integer
coefficients, so equality of values coincides with equality of the
canonical representation.  Products take one of three routes.  A
one-term operand c v^e shifts the other operand by e and scales it by c
(the unit returns the other operand itself).  Otherwise two polynomials
multiply by the double loop over their terms when either has fewer than
8 terms.  Longer ones are multiplied as one big integer (Kronecker
substitution): each is laid out densely in signed 64-bit slots on its
common exponent stride, and the integer product holds the product's
coefficients slot by slot.  When a product coefficient could need more
than 62 bits, or an operand would fill too few of its slots, the double
loop is used instead.

On top of the ring operations this module provides the bar involution
(v -> v^-1) and the quantum combinatorics used everywhere else in the
package:

* ``balanced_bracket(i)``    -- (v^i - v^-i) / (v - v^-1), symmetric in
  the sense bar([i]) = [i];
* ``unbalanced_bracket(i)``  -- (v^2i - 1) / (v^2 - 1), a polynomial in
  v^2 only;
* factorials, binomial coefficients and trinomial (three-part
  multinomial) coefficients built from either bracket, including
  binomials with an arbitrary integer on top, defined as the falling
  product divided by a bracket factorial and computed from the
  Gaussian binomial in v^2 (one shift-subtract and one strided prefix
  sum per factor);
* entrywise vector versions of the binomial and trinomial.

All divisions are exact divisions in Z[v, v^-1] and raise
ExactDivisionError when a remainder appears, rather than ever rounding.

>>> print(balanced_bracket(3))
v^-2 + 1 + v^2
>>> print(unbalanced_bracket(-1))
-v^-2
>>> balanced_binomial(4, 2) == LaurentPoly({-4: 1, -2: 1, 0: 2, 2: 1, 4: 1})
True
>>> balanced_binomial(2, 3).is_zero()
True
"""

from __future__ import annotations

import operator
import sys
from array import array
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd
from typing import Iterable

from .errors import DimensionMismatch, DomainError, ExactDivisionError

__all__ = [
    "LaurentPoly",
    "ZERO",
    "ONE",
    "V",
    "VINV",
    "v_power",
    "balanced_bracket",
    "unbalanced_bracket",
    "balanced_factorial",
    "unbalanced_factorial",
    "balanced_binomial",
    "unbalanced_binomial",
    "balanced_trinomial",
    "unbalanced_trinomial",
    "vector_binomial",
    "vector_trinomial",
]


class LaurentPoly:
    """An element of Z[v, v^-1].

    The term dict is normalized on construction (zero coefficients are
    dropped) and never mutated afterwards, so instances may be shared,
    compared and hashed freely.

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
    True
    >>> p.bar() == p
    True
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[int, int] | None = None):
        if terms:
            self._terms = {e: c for e, c in terms.items() if c}
        else:
            self._terms = {}
        self._hash: int | None = None

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "LaurentPoly":
        # Trusted constructor: terms must already contain no zeros.
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def from_int(cls, c: int) -> "LaurentPoly":
        return cls._raw({0: c}) if c else cls._raw({})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "LaurentPoly":
        terms: dict[int, int] = {}
        for e, c in pairs:
            terms[e] = terms.get(e, 0) + c
        return cls(terms)

    def to_pairs(self) -> list[tuple[int, int]]:
        """Canonical form: [exponent, coefficient] pairs, ascending."""
        return [(e, self._terms[e]) for e in sorted(self._terms)]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly.from_int(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPoly._raw(terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly.from_int(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = terms.get(e, 0) - c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPoly._raw(terms)

    def __rsub__(self, other: int) -> "LaurentPoly":
        if not isinstance(other, int):
            return NotImplemented
        return LaurentPoly.from_int(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                # let the other operand's reflected method decide
                return NotImplemented
            if not other:
                return ZERO
            return LaurentPoly._raw({e: c * other for e, c in self._terms.items()})
        if len(self._terms) > len(other._terms):
            self, other = other, self
        a, b = self._terms, other._terms
        if not a:
            return ZERO
        if len(a) == 1:
            [(e, c)] = a.items()
            if c == 1:
                return other.shift(e)
            return LaurentPoly._raw({k + e: c * x for k, x in b.items()})
        if len(a) >= _PACKED_MIN_TERMS:
            packed = _packed_product(a, b)
            if packed is not None:
                return LaurentPoly._raw(packed)
        terms: dict[int, int] = {}
        get = terms.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = get(e, 0) + ca * cb
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        return LaurentPoly._raw(terms)

    __rmul__ = __mul__

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by the monomial v^e."""
        if not e:
            return self
        return LaurentPoly._raw({k + e: c for k, c in self._terms.items()})

    def bar(self) -> "LaurentPoly":
        """The involution sending v to v^-1."""
        return LaurentPoly._raw({-e: c for e, c in self._terms.items()})

    def min_exp(self) -> int:
        if not self._terms:
            raise DomainError("zero polynomial has no valuation")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise DomainError("zero polynomial has no degree")
        return max(self._terms)

    def coeff(self, e: int) -> int:
        return self._terms.get(e, 0)

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ExactDivisionError on any remainder.

        >>> num = balanced_bracket(2) * balanced_bracket(3)
        >>> print(num.divexact(balanced_bracket(3)))
        v^-1 + v
        """
        if divisor.is_zero():
            raise ExactDivisionError("division by zero")
        if self.is_zero():
            return ZERO
        rem = dict(self._terms)
        dmax = divisor.max_exp()
        dlead = divisor._terms[dmax]
        # an exact quotient cannot reach below this exponent
        emin = self.min_exp() - divisor.min_exp()
        out: dict[int, int] = {}
        while rem:
            rmax = max(rem)
            q, r = divmod(rem[rmax], dlead)
            if r:
                raise ExactDivisionError("leading coefficient does not divide")
            e = rmax - dmax
            if e < emin:
                raise ExactDivisionError("remainder after full descent")
            out[e] = q
            for de, dc in divisor._terms.items():
                k = de + e
                s = rem.get(k, 0) - dc * q
                if s:
                    rem[k] = s
                elif k in rem:
                    del rem[k]
        return LaurentPoly._raw(out)

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact evaluation at a nonzero rational point."""
        x = Fraction(x)
        if not x:
            raise DomainError("cannot evaluate a Laurent polynomial at 0")
        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * x**e
        return total

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if e == 0:
                t = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                t = f"{head}v" if e == 1 else f"{head}v^{e}"
            if not chunks:
                chunks.append(t if c > 0 else "-" + t)
            else:
                chunks.append(("+ " if c > 0 else "- ") + t)
        return " ".join(chunks)


# Both operands need this many terms before one packed integer product
# beats the double loop of `__mul__`.  An operand spread over more than
# this many slots per term stays on the double loop: packing it would
# multiply mostly zero slots.
_PACKED_MIN_TERMS = 8
_PACKED_MAX_SLOTS_PER_TERM = 8
_TOP_BIT = (1 << 63).to_bytes(8, "little")


def _pack(terms: dict[int, int], lo: int, g: int, size: int) -> int:
    # sum c * 2^(64 (e - lo) / g): read the two's-complement slots as
    # one unsigned integer, then XOR in and subtract a bias of 2^63 per
    # slot, which turns each slot back into its signed value
    slots = array("q", bytes(8 * size))
    for e, c in terms.items():
        slots[(e - lo) // g] = c
    if sys.byteorder == "big":
        slots.byteswap()
    bias = int.from_bytes(_TOP_BIT * size, "little")
    return (int.from_bytes(slots.tobytes(), "little") ^ bias) - bias


def _packed_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int] | None:
    """The product of two term dicts as one big-integer product
    (Kronecker substitution), or None when a product coefficient might
    not fit a signed 64-bit slot or an operand is too sparse to pack.
    Each dict holds at least two terms, so the stride g below is positive.

    Exponents are divided by their common stride g, so polynomials in
    v^2 take one slot per term.  Every product coefficient is bounded by
    min(len) * max|a| * max|b| < 2^62, so the slots of the packed
    product never carry into each other, and adding and XORing the bias
    reads them back as signed 64-bit integers.
    """
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    if bound.bit_length() > 62:
        return None
    lo_a, lo_b = min(a), min(b)
    g = gcd(*[e - lo_a for e in a], *[e - lo_b for e in b])
    size_a = (max(a) - lo_a) // g + 1
    size_b = (max(b) - lo_b) // g + 1
    if size_a > _PACKED_MAX_SLOTS_PER_TERM * len(a) or size_b > _PACKED_MAX_SLOTS_PER_TERM * len(b):
        return None
    n = size_a + size_b - 1
    bias = int.from_bytes(_TOP_BIT * n, "little")
    product = _pack(a, lo_a, g, size_a) * _pack(b, lo_b, g, size_b)
    out = array("q", ((product + bias) ^ bias).to_bytes(8 * n, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    lo = lo_a + lo_b
    return {lo + g * k: c for k, c in enumerate(out) if c}


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({0: 1})
V = LaurentPoly._raw({1: 1})
VINV = LaurentPoly._raw({-1: 1})


def v_power(e: int) -> LaurentPoly:
    """The monomial v^e."""
    return LaurentPoly._raw({e: 1})


@cache
def balanced_bracket(i: int) -> LaurentPoly:
    """The symmetric quantum integer (v^i - v^-i) / (v - v^-1).

    >>> print(balanced_bracket(-1))
    -1
    >>> balanced_bracket(0).is_zero()
    True
    """
    if i == 0:
        return ZERO
    if i < 0:
        return -balanced_bracket(-i)
    return LaurentPoly._raw({i - 1 - 2 * k: 1 for k in range(i)})


@cache
def unbalanced_bracket(i: int) -> LaurentPoly:
    """The one-sided quantum integer (v^2i - 1) / (v^2 - 1).

    >>> print(unbalanced_bracket(2))
    1 + v^2
    >>> unbalanced_bracket(1) == ONE
    True
    """
    if i == 0:
        return ZERO
    if i > 0:
        return LaurentPoly._raw({2 * k: 1 for k in range(i)})
    return LaurentPoly._raw({-2 * k: -1 for k in range(1, -i + 1)})


def _factorial(factorial, bracket, t: int) -> LaurentPoly:
    if t < 0:
        raise DomainError("factorial of a negative integer")
    return ONE if t == 0 else factorial(t - 1) * bracket(t)


@cache
def balanced_factorial(t: int) -> LaurentPoly:
    return _factorial(balanced_factorial, balanced_bracket, t)


@cache
def unbalanced_factorial(t: int) -> LaurentPoly:
    return _factorial(unbalanced_factorial, unbalanced_bracket, t)


def _gaussian(m: int, k: int) -> list[int]:
    """Coefficients in q of the Gaussian binomial (m choose k)_q for
    0 <= k <= m, as a dense list from q^0 up.

    The product (1 - q^(m-k+i)) / (1 - q^i) over i = 1..k is built one
    factor at a time: the partial product up to i is (m-k+i choose i)_q,
    so every division is exact.  Multiplying by 1 - q^s is one
    shift-subtract; dividing by 1 - q^i is a prefix sum along each
    residue class mod i.
    """
    k = min(k, m - k)
    coeffs = [1]
    for i in range(1, k + 1):
        s = m - k + i
        coeffs = list(map(operator.sub, coeffs + [0] * s, [0] * s + coeffs))
        # the quotient by 1 - q^i has degree i lower
        del coeffs[-i:]
        for res in range(i):
            coeffs[res::i] = accumulate(coeffs[res::i])
    return coeffs


def _binomial(top: int, t: int, two_sided: bool) -> LaurentPoly:
    # [top choose t] from the Gaussian binomial in q = v^2.  For top < 0,
    # [top choose t] = (-1)^t [t-top-1 choose t], up to the one-sided
    # bracket's factor v^(2 (t top - t(t-1)/2)).  The two-sided bracket is
    # centred: [m choose t] = v^(-t(m-t)) (m choose t)_{v^2}.
    if t < 0:
        raise DomainError("binomial with negative lower index")
    if t == 0:
        return ONE
    if 0 <= top < t:
        return ZERO
    m, sign, shift = top, 1, 0
    if top < 0:
        m, sign = t - top - 1, (-1) ** t
        if not two_sided:
            shift = 2 * t * top - t * (t - 1)
    if two_sided:
        shift = -t * (m - t)
    return LaurentPoly._raw(
        {shift + 2 * j: sign * c for j, c in enumerate(_gaussian(m, t)) if c}
    )


@cache
def balanced_binomial(top: int, t: int) -> LaurentPoly:
    """Binomial from symmetric brackets; ``top`` may be any integer.

    Equal to the falling product [top][top-1]...[top-t+1] divided by
    the factorial [t]!, and built from the Gaussian binomial in v^2.
    Vanishes exactly when 0 <= top < t.

    >>> print(balanced_binomial(-1, 1))
    -1
    >>> print(balanced_binomial(-2, 2))
    v^-2 + 1 + v^2
    """
    return _binomial(top, t, True)


@cache
def unbalanced_binomial(top: int, t: int) -> LaurentPoly:
    """Binomial from one-sided brackets; ``top`` may be any integer.

    >>> print(unbalanced_binomial(3, 2))
    1 + v^2 + v^4
    >>> unbalanced_binomial(1, 3).is_zero()
    True
    """
    return _binomial(top, t, False)


def _trinomial(binomial, a: int, b: int, c: int) -> LaurentPoly:
    if a < 0 or b < 0 or c < 0:
        raise DomainError("trinomial parts must be nonnegative")
    return binomial(a + b + c, a) * binomial(b + c, b)


@cache
def balanced_trinomial(a: int, b: int, c: int) -> LaurentPoly:
    """[a+b+c]! / ([a]! [b]! [c]!) for nonnegative a, b, c."""
    return _trinomial(balanced_binomial, a, b, c)


@cache
def unbalanced_trinomial(a: int, b: int, c: int) -> LaurentPoly:
    """Same three-part multinomial built from one-sided brackets."""
    return _trinomial(unbalanced_binomial, a, b, c)


def vector_binomial(mu: tuple[int, ...], lam: tuple[int, ...]) -> LaurentPoly:
    """Entrywise product of balanced binomials [mu_i choose lam_i].

    The top vector may have arbitrary integer entries; the bottom must
    be nonnegative.

    >>> print(vector_binomial((2, 1), (1, 1)))
    v^-1 + v
    >>> vector_binomial((1, 0), (0, 1)).is_zero()
    True
    """
    if len(mu) != len(lam):
        raise DimensionMismatch("vector lengths differ")
    out = ONE
    for m, t in zip(mu, lam):
        if t < 0:
            raise DomainError("binomial with negative lower index")
        out = out * balanced_binomial(m, t)
        if out.is_zero():
            return ZERO
    return out


def vector_trinomial(
    total: tuple[int, ...],
    a: tuple[int, ...],
    b: tuple[int, ...],
    c: tuple[int, ...],
) -> LaurentPoly:
    """Entrywise product of balanced trinomials; requires total = a+b+c."""
    if not (len(total) == len(a) == len(b) == len(c)):
        raise DimensionMismatch("vector lengths differ")
    out = ONE
    for t, x, y, z in zip(total, a, b, c):
        if x + y + z != t:
            raise DomainError("trinomial parts must sum to the total")
        out = out * balanced_trinomial(x, y, z)
        if out.is_zero():
            return ZERO
    return out
