"""Exact arithmetic in the cyclotomic field Q(eps), eps a primitive
l-th root of unity, realized as Q[v] modulo the l-th cyclotomic
polynomial.  Only odd l >= 1 is accepted; this is the parameter regime
the rest of the package specializes into.

A scalar is a coefficient vector of length deg(Phi_l) over Q.  For
l = 1 the field is Q itself and the vector has length one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import DomainError, ExactDivisionError
from .laurent import LaurentPoly

__all__ = ["cyclotomic_coeffs", "CycloScalar", "eval_at_root"]


@cache
def cyclotomic_coeffs(l: int) -> tuple[int, ...]:
    """Integer coefficients of the l-th cyclotomic polynomial, low to high.

    Computed by exact division of x^l - 1 by the cyclotomic polynomials
    of the proper divisors of l.

    >>> cyclotomic_coeffs(1)
    (-1, 1)
    >>> cyclotomic_coeffs(3)
    (1, 1, 1)
    """
    if l < 1:
        raise DomainError("cyclotomic index must be positive")
    num = LaurentPoly({l: 1, 0: -1})
    for d in range(1, l):
        if l % d == 0:
            num = num.divexact(LaurentPoly(dict(enumerate(cyclotomic_coeffs(d)))))
    deg = num.max_exp()
    return tuple(num.coeff(e) for e in range(deg + 1))


@cache
def _root_powers(l: int) -> tuple[tuple[Fraction, ...], ...]:
    # eps^k reduced mod Phi_l, for 0 <= k < l, as length-deg vectors.
    phi = cyclotomic_coeffs(l)
    deg = len(phi) - 1
    powers: list[tuple[Fraction, ...]] = []
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    for _ in range(l):
        powers.append(tuple(cur))
        # multiply by v, then reduce the degree-deg overflow via Phi_l
        head = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        if head:
            for i in range(deg):
                cur[i] -= head * phi[i]
    return tuple(powers)


class CycloScalar:
    """An element of Q[v]/(Phi_l), stored as a rational coefficient vector."""

    __slots__ = ("l", "coeffs")

    def __init__(self, l: int, coeffs: tuple[Fraction, ...]):
        if l < 1 or l % 2 == 0:
            raise DomainError("root-of-unity order must be odd and positive")
        deg = len(cyclotomic_coeffs(l)) - 1
        if len(coeffs) != deg:
            raise DomainError("coefficient vector has wrong length")
        self.l = l
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def _raw(cls, l: int, coeffs: tuple[Fraction, ...]) -> "CycloScalar":
        s = object.__new__(cls)
        s.l = l
        s.coeffs = coeffs
        return s

    @classmethod
    def zero(cls, l: int) -> "CycloScalar":
        deg = len(cyclotomic_coeffs(l)) - 1
        return cls(l, (Fraction(0),) * deg)

    @classmethod
    def one(cls, l: int) -> "CycloScalar":
        deg = len(cyclotomic_coeffs(l)) - 1
        return cls(l, (Fraction(1),) + (Fraction(0),) * (deg - 1))

    @classmethod
    def from_rational(cls, l: int, a: Fraction | int) -> "CycloScalar":
        deg = len(cyclotomic_coeffs(l)) - 1
        return cls(l, (Fraction(a),) + (Fraction(0),) * (deg - 1))

    def _check(self, other: "CycloScalar") -> None:
        if self.l != other.l:
            raise DomainError("scalars live over different roots of unity")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycloScalar):
            return self.l == other.l and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == CycloScalar.from_rational(self.l, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.l, self.coeffs))

    def __add__(self, other: "CycloScalar") -> "CycloScalar":
        self._check(other)
        return CycloScalar._raw(self.l, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloScalar") -> "CycloScalar":
        self._check(other)
        return CycloScalar._raw(self.l, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloScalar":
        return CycloScalar._raw(self.l, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycloScalar | LaurentPoly | Fraction | int") -> "CycloScalar":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycloScalar._raw(self.l, tuple(a * f for a in self.coeffs))
        if isinstance(other, LaurentPoly):
            # the ring map Z[v, v^-1] -> Q(eps) that sends v to eps
            other = eval_at_root(other, self.l)
        self._check(other)
        deg = len(self.coeffs)
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        phi = cyclotomic_coeffs(self.l)
        # reduce mod the monic Phi_l by long division, top down
        for k in range(2 * deg - 2, deg - 1, -1):
            c = conv[k]
            if c:
                conv[k] = Fraction(0)
                for i in range(deg):
                    conv[k - deg + i] -= c * phi[i]
        return CycloScalar._raw(self.l, tuple(conv[:deg]))

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        """Multiplicative inverse via the extended Euclid algorithm in Q[v]."""
        if self.is_zero():
            raise ExactDivisionError("inverse of zero")
        phi = [Fraction(c) for c in cyclotomic_coeffs(self.l)]
        a = list(self.coeffs)
        # invariants: s * self = a (mod Phi), t * self = b (mod Phi)
        b = phi
        s: list[Fraction] = [Fraction(1)]
        t: list[Fraction] = []

        def strip(p: list[Fraction]) -> list[Fraction]:
            while p and not p[-1]:
                p.pop()
            return p

        a = strip(a)
        b = strip(list(b))
        while b:
            q, r = _polydiv(a, b)
            a, b = b, strip(r)
            s, t = t, _polysub(s, _polymul(q, t))
        # a is now a nonzero constant gcd; s * self = a (mod Phi)
        c = a[0]
        deg = len(self.coeffs)
        inv_coeffs = [x / c for x in s] + [Fraction(0)] * deg
        return CycloScalar._raw(self.l, tuple(inv_coeffs[:deg]))

    def __truediv__(self, other: "CycloScalar") -> "CycloScalar":
        return self * other.inv()

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"CycloScalar(l={self.l}, {[str(c) for c in self.coeffs]})"


def _polydiv(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    # quotient and remainder in Q[v]; b nonzero
    r = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(r) >= len(b) and any(r):
        while r and not r[-1]:
            r.pop()
        if len(r) < len(b):
            break
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
        r.pop()
    while r and not r[-1]:
        r.pop()
    return q, r


def _polymul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _polysub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def eval_at_root(p: LaurentPoly, l: int) -> CycloScalar:
    """Evaluate a Laurent polynomial at a primitive l-th root of unity.

    Exponents are reduced mod l (eps^l = 1 makes negative exponents
    meaningful), so the result is exact in Q[v]/(Phi_l).

    >>> from .laurent import LaurentPoly
    >>> eval_at_root(LaurentPoly({3: 1}), 3) == CycloScalar.one(3)
    True
    >>> eval_at_root(LaurentPoly({2: 1, 1: 1, 0: 1}), 3).is_zero()
    True
    """
    if l < 1 or l % 2 == 0:
        raise DomainError("root-of-unity order must be odd and positive")
    powers = _root_powers(l)
    deg = len(cyclotomic_coeffs(l)) - 1
    acc = [Fraction(0)] * deg
    for e, c in p.to_pairs():
        vec = powers[e % l]
        for i in range(deg):
            acc[i] += c * vec[i]
    return CycloScalar._raw(l, tuple(acc))
