"""Exact Laurent polynomials in one variable v over the integers.

A polynomial is stored packed: its lowest exponent and one big integer
that holds its coefficients in signed slots, sum c_k 2^(w k) for the
coefficient c_k of v^(lowest + k), one slot per exponent from the lowest
to the highest.  The slot width w is 64 bits, or the next multiple of 64
when a coefficient needs it, and each value keeps a sound bound on the
bits of its coefficients.  Sums, differences, products (Kronecker
substitution), scaling and equality are then one big-integer operation
each, and a shift only moves the lowest exponent; a product by a
monomial v^k is such a shift.  When an operation's bound would overflow
its slots, the bound is first tightened by reading the slots back, and
the operands are widened only if the result still does not fit, so
values are exact at any size.  Equal packed values of one width are the
same integer at the same lowest exponent.

Each value also keeps a bound on its number of terms: exact for a value
built from a dict, the sum of the operands' bounds for a sum or a
difference, and their product (at most the span) for a product.  A
packed value spans at most 8 slots per term of its bound, so a
polynomial in v^2 such as a binomial, with a zero slot between its
terms, packs.  A dict whose exponents would span more (say {0: 1, 2: 1,
46: 1}, exponents 0..6 and 10^9, or any stride of 16 or more) is kept as
an exponent -> coefficient dict instead, and sums and products that
involve it take the double loop over the terms, as do sums of packed
operands whose span would break the rule.  Equal values compare and
hash equal whichever form or width they are stored in, and a constant
hashes as the integer it equals.  One packer, `_pack`, lays out every
dense value built from coefficients, and one reader, `_slots`, reads
them back for `to_pairs` (and so the hash, `divexact` and `evaluate`),
`bar` and the bound tightening.

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
  sum per factor).  Gaussian binomials are palindromic, so for
  x >= t >= 0 the bar of the one-sided [x choose t] is the shift
  v^(-t(x-t)) of the balanced one, and callers shift instead of taking
  the bar;
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

    Instances are never mutated after construction (only a cached hash
    and a tightened coefficient bound are filled in later), so they may
    be shared, compared and hashed freely.

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
    True
    >>> p.bar() == p
    True
    """

    # A dense value keeps _lo, _packed, _width, _bits and _n: slot k holds
    # the coefficient of v^(_lo + k), every slot is below
    # 2^_bits <= 2^(_width - 1) in absolute value, and at most _n slots
    # are nonzero.  A sparse value keeps _packed = None, _width = 0 and
    # _terms.  _hash is filled in on first use.
    __slots__ = ("_lo", "_packed", "_width", "_bits", "_n", "_terms", "_hash")

    def __init__(self, terms: dict[int, int] | None = None):
        _store(self, {e: c for e, c in terms.items() if c} if terms else {})

    @classmethod
    def from_int(cls, c: int) -> "LaurentPoly":
        bits = c.bit_length()
        return _dense(0, c, _width_for(bits), bits, 1) if c else ZERO

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "LaurentPoly":
        terms: dict[int, int] = {}
        for e, c in pairs:
            terms[e] = terms.get(e, 0) + c
        return cls(terms)

    def to_pairs(self) -> list[tuple[int, int]]:
        """Canonical form: [exponent, coefficient] pairs, ascending."""
        packed = self._packed
        if packed is None:
            terms = self._terms
            return [(e, terms[e]) for e in sorted(terms)]
        e = self._lo
        if packed.bit_length() < self._width:
            # one slot, which is the coefficient itself
            return [(e, packed)] if packed else []
        slots = _slots(self)
        return list(filter(_coefficient, zip(range(e, e + len(slots)), slots)))

    def is_zero(self) -> bool:
        return self._packed == 0

    def __bool__(self) -> bool:
        return self._packed != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            # a dense value is unique given its width; width 0 is the
            # sparse form
            width = self._width
            if width == other._width:
                if not width:
                    return self._terms == other._terms
                return self._packed == other._packed and self._lo == other._lo
            if width and other._width:
                # equal values share their lowest and highest exponents
                if self._lo != other._lo or _top(self) != _top(other):
                    return False
            return self.to_pairs() == other.to_pairs()
        if isinstance(other, int):
            return self == LaurentPoly.from_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            packed = self._packed
            if packed is not None and not self._lo and packed.bit_length() < self._width:
                # a constant, zero included, hashes as the integer it equals
                h = hash(packed)
            else:
                h = hash(tuple(self.to_pairs()))
            self._hash = h
        return h

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly.from_int(other)
        return _sum(self, other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        if self._packed is None:
            return _sparse({e: -c for e, c in self._terms.items()})
        return _dense(self._lo, -self._packed, self._width, self._bits, self._n)

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly.from_int(other)
        return _sum(self, other, operator.sub)

    def __rsub__(self, other: int) -> "LaurentPoly":
        if not isinstance(other, int):
            return NotImplemented
        return LaurentPoly.from_int(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                # let the other operand's reflected method decide
                return NotImplemented
            other = LaurentPoly.from_int(other)
        pa, pb = self._packed, other._packed
        # a product by a monomial v^k is a shift
        if pa == 1:
            return other.shift(self._lo)
        if pb == 1:
            return self.shift(other._lo)
        if pa is None or pb is None:
            return _double_loop(_terms_of(self), _terms_of(other))
        if not (pa and pb):
            return ZERO
        width = self._width
        # the top slots, and the terms in at most the product's span,
        # which is at most _SPARSE n if the operands' spans are
        ka, kb = pa.bit_length() // width, pb.bit_length() // other._width
        n = min(self._n * other._n, ka + kb + 1)
        # a product coefficient sums at most min(ka, kb) + 1 products of
        # two coefficients below 2^_bits each
        bits = self._bits + other._bits + min(ka, kb).bit_length()
        if bits >= width or width != other._width:
            a, b, bits = _fit(self, other, _product_bits)
            pa, pb, width = a._packed, b._packed, a._width
        return _dense(self._lo + other._lo, pa * pb, width, bits, n)

    __rmul__ = __mul__

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by the monomial v^e."""
        if not e or self._packed == 0:
            return self
        if self._packed is None:
            return _sparse({k + e: c for k, c in self._terms.items()})
        return _dense(self._lo + e, self._packed, self._width, self._bits, self._n)

    def bar(self) -> "LaurentPoly":
        """The involution sending v to v^-1."""
        packed = self._packed
        if packed is None:
            return _sparse({-e: c for e, c in self._terms.items()})
        width, k = self._width, packed.bit_length() // self._width
        if not k:
            return _dense(-self._lo, packed, width, self._bits, self._n)
        slots = _slots(self)
        slots.reverse()
        return _dense(-self._lo - k, _pack(slots, width), width, self._bits, self._n)

    def min_exp(self) -> int:
        if not self:
            raise DomainError("zero polynomial has no valuation")
        return self._lo if self._packed is not None else min(self._terms)

    def max_exp(self) -> int:
        if not self:
            raise DomainError("zero polynomial has no degree")
        if self._packed is None:
            return max(self._terms)
        return _top(self)

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
        rem = dict(self.to_pairs())
        dterms = divisor.to_pairs()
        dmax, dlead = dterms[-1]
        # an exact quotient cannot reach below this exponent
        emin = self.min_exp() - dterms[0][0]
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
            for de, dc in dterms:
                k = de + e
                s = rem.get(k, 0) - dc * q
                if s:
                    rem[k] = s
                elif k in rem:
                    del rem[k]
        return _store(object.__new__(LaurentPoly), out)

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact evaluation at a nonzero rational point."""
        x = Fraction(x)
        if not x:
            raise DomainError("cannot evaluate a Laurent polynomial at 0")
        pairs, a, b = self.to_pairs(), x.numerator, x.denominator
        lo, hi = (pairs[0][0], pairs[-1][0]) if pairs else (0, 0)
        # p(a/b) = a^lo b^-hi times the sum of c a^(e-lo) b^(hi-e), over Z
        total = sum(c * a ** (e - lo) * b ** (hi - e) for e, c in pairs)
        return Fraction(total * a ** max(lo, 0) * b ** max(-hi, 0), a ** max(-lo, 0) * b ** max(hi, 0))

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.to_pairs())!r})"

    def __str__(self) -> str:
        pairs = self.to_pairs()
        if not pairs:
            return "0"
        chunks: list[str] = []
        for e, c in pairs:
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


# Slots per term beyond which a value stays a term dict: packing it
# would store mostly zero slots.  With one slot per exponent this alone
# decides the form: a polynomial in v^2 packs with a zero slot between
# its terms, while {0: 1, 2: 1, 46: 1} (47 slots for 3 terms), two terms
# 16 or more apart, or a stride of 10^9 keep the dict.
_SPARSE = 8
# Runs of up to this many slots are packed by a plain loop; longer ones
# go through bytes.
_SHORT = 16
_WIDTH = 64
_MASK = (1 << 64) - 1
_coefficient = operator.itemgetter(1)


def _width_for(bits: int) -> int:
    """The narrowest slot width, a multiple of 64, that holds signed
    coefficients below 2^bits."""
    return (bits // _WIDTH + 1) * _WIDTH


def _top(p: LaurentPoly) -> int:
    # the highest exponent of a dense value (0 for zero)
    return p._lo + p._packed.bit_length() // p._width


def _dense(lo: int, packed: int, width: int, bits: int, n: int) -> LaurentPoly:
    # Trusted constructor: packed is nonzero in its lowest slot (or is
    # zero with lo = 0), every slot is below 2^bits <= 2^(width-1), at
    # most n slots are nonzero, and the slots span at most _SPARSE n.
    p = object.__new__(LaurentPoly)
    p._lo = lo
    p._packed = packed
    p._width = width
    p._bits = bits
    p._n = n
    return p


def _sparse(terms: dict[int, int]) -> LaurentPoly:
    # Trusted constructor: terms is nonempty, holds no zeros and breaks
    # the density rule.
    p = object.__new__(LaurentPoly)
    p._packed = None
    p._width = 0
    p._terms = terms
    return p


def _store(p: LaurentPoly, terms: dict[int, int]) -> LaurentPoly:
    """Fill p with the value of terms, which holds no zeros: packed when
    its exponents span at most _SPARSE slots per term, else as the dict
    itself."""
    n = len(terms)
    if not n:
        p._lo = p._packed = p._bits = p._n = 0
        p._width = _WIDTH
        return p
    lo = min(terms)
    span = max(terms) - lo + 1
    if span > _SPARSE * n:
        p._packed, p._width, p._terms = None, 0, terms
        return p
    bits = max(map(abs, terms.values())).bit_length()
    width = _width_for(bits)
    slots = [0] * span
    for e, c in terms.items():
        slots[e - lo] = c
    p._lo = lo
    p._packed = _pack(slots, width)
    p._width = width
    p._bits = bits
    p._n = n
    return p


# 2^63 in each of n 64-bit slots, for the short values read back most
_BIAS64 = [((1 << _WIDTH * n) - 1) // _MASK << (_WIDTH - 1) for n in range(4 * _SHORT)]


def _bias(width: int, n: int) -> int:
    # 2^(width-1) in each of n slots
    if width == _WIDTH and n < len(_BIAS64):
        return _BIAS64[n]
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * n, "little")


def _pack(slots, width: int) -> int:
    """The sum of slots[k] 2^(width k) for signed slots below 2^(width-1)."""
    if len(slots) <= _SHORT:
        packed = 0
        for c in reversed(slots):
            packed = (packed << width) + c
        return packed
    if width == _WIDTH:
        raw = array("q", slots)
        if sys.byteorder == "big":
            raw.byteswap()
        raw = raw.tobytes()
    else:
        raw = b"".join(c.to_bytes(width // 8, "little", signed=True) for c in slots)
    # the bytes hold each slot in two's complement: XORing a bias of
    # 2^(width-1) per slot lifts each slot by that bias, which is then
    # subtracted from the whole
    bias = _bias(width, len(slots))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _slots(p: LaurentPoly):
    """The signed slots of a nonzero dense value, lowest first: an array
    of 64-bit integers, or a list for wider slots."""
    width, n = p._width, p._packed.bit_length() // p._width + 1
    # adding the bias makes every slot nonnegative, so no slot borrows
    # from the next; XORing it back gives each slot in two's complement
    bias = _bias(width, n)
    raw = ((p._packed + bias) ^ bias).to_bytes(width // 8 * n, "little")
    if width == _WIDTH:
        slots = array("q", raw)
        if sys.byteorder == "big":
            slots.byteswap()
        return slots
    size = width // 8
    return [int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, len(raw), size)]


def _terms_of(p: LaurentPoly) -> dict[int, int]:
    return dict(p.to_pairs()) if p._packed is not None else p._terms


def _tighten(p: LaurentPoly) -> None:
    # the exact bit length of the largest coefficient, read from the slots
    if p._packed:
        p._bits = max(map(abs, _slots(p))).bit_length()


def _product_bits(a: LaurentPoly, b: LaurentPoly) -> int:
    slots = min(a._packed.bit_length() // a._width, b._packed.bit_length() // b._width)
    return a._bits + b._bits + slots.bit_length()


def _fit(a: LaurentPoly, b: LaurentPoly, bound) -> tuple[LaurentPoly, LaurentPoly, int]:
    """a and b in one slot width that holds bound(a, b) bits: the bound
    is recomputed from the coefficients read back, and the slots are
    widened when it still does not fit."""
    width = max(a._width, b._width)
    bits = bound(a, b)
    if bits >= width:
        _tighten(a)
        _tighten(b)
        bits = bound(a, b)
        width = max(width, _width_for(bits))
    return _rewidth(a, width), _rewidth(b, width), bits


def _rewidth(p: LaurentPoly, width: int) -> LaurentPoly:
    if p._width == width or not p._packed:
        return p
    return _dense(p._lo, _pack(_slots(p), width), width, p._bits, p._n)


def _sum(a: LaurentPoly, b: LaurentPoly, op) -> LaurentPoly:
    """a + b or a - b, for op operator.add or operator.sub."""
    pa, pb = a._packed, b._packed
    if pa is None or pb is None:
        return _term_sum(_terms_of(a), _terms_of(b), op)
    if not pb:
        return a
    if not pa:
        return b if op is operator.add else -b
    width, bits = a._width, a._bits
    if b._bits > bits:
        bits = b._bits
    bits += 1
    if bits >= width or width != b._width:
        a, b, bits = _fit(a, b, lambda x, y: max(x._bits, y._bits) + 1)
        pa, pb, width = a._packed, b._packed, a._width
    lo, d, n = a._lo, b._lo - a._lo, a._n + b._n
    # less than _SPARSE slots apart, the sum spans at most _SPARSE n slots
    # if its operands do; otherwise check its span
    if d >= _SPARSE or d <= -_SPARSE:
        na, nb = pa.bit_length() // width, pb.bit_length() // width
        n = min(a._n, na + 1) + min(b._n, nb + 1)
        if max(na, d + nb) - min(0, d) >= _SPARSE * n:
            return _term_sum(_terms_of(a), _terms_of(b), op)
    if not d:
        packed = op(pa, pb)
        if not packed:
            return ZERO
        if not packed & (_MASK if width == _WIDTH else (1 << width) - 1):
            # the lowest slots cancelled
            k = ((packed & -packed).bit_length() - 1) // width
            packed >>= width * k
            lo += k
    elif d > 0:
        packed = op(pa, pb << (width * d))
    else:
        packed = op(pa << (width * -d), pb)
        lo += d
    return _dense(lo, packed, width, bits, n)


def _term_sum(a: dict[int, int], b: dict[int, int], op) -> LaurentPoly:
    terms = dict(a)
    for e, c in b.items():
        s = op(terms.get(e, 0), c)
        if s:
            terms[e] = s
        elif e in terms:
            del terms[e]
    return _store(object.__new__(LaurentPoly), terms)


def _double_loop(a: dict[int, int], b: dict[int, int]) -> LaurentPoly:
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
    return _store(object.__new__(LaurentPoly), terms)


ZERO = _dense(0, 0, _WIDTH, 0, 0)
ONE = _dense(0, 1, _WIDTH, 1, 1)
V = _dense(1, 1, _WIDTH, 1, 1)
VINV = _dense(-1, 1, _WIDTH, 1, 1)


def v_power(e: int) -> LaurentPoly:
    """The monomial v^e."""
    return _dense(e, 1, _WIDTH, 1, 1)


def _every_other(lo: int, coeffs: list[int]) -> LaurentPoly:
    """sum of coeffs[j] v^(lo + 2 j), for nonzero end coefficients: the
    coefficients with a zero slot between each two."""
    bits = max(map(abs, coeffs)).bit_length()
    width = _width_for(bits)
    slots = [0] * (2 * len(coeffs) - 1)
    slots[::2] = coeffs
    return _dense(lo, _pack(slots, width), width, bits, len(coeffs))


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
    return _every_other(1 - i, [1] * i)


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
        return _every_other(0, [1] * i)
    return _every_other(2 * i, [-1] * -i)


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
    coeffs = _gaussian(m, t)
    if sign < 0:
        coeffs = [-c for c in coeffs]
    return _every_other(shift, coeffs)


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
    out = None
    for m, t in zip(mu, lam):
        if t < 0:
            raise DomainError("binomial with negative lower index")
        if t:
            # [m choose 0] = 1 is left out of the product
            x = balanced_binomial(m, t)
            out = x if out is None else out * x
            if out.is_zero():
                return ZERO
    return ONE if out is None else out


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
