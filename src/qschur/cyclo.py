"""Exact arithmetic in the ring Z[eps], eps a primitive l-th root of
unity, realized as Z[v] modulo the l-th cyclotomic polynomial.  Only
odd l >= 1 is accepted; this is the parameter regime the rest of the
package specializes into.

A scalar is a coefficient vector of length deg(Phi_l) over Z; for
l = 1 the ring is Z itself.  There is no inverse: `linalg` ranks rows
over Z[eps] by fraction-free elimination.
"""

from __future__ import annotations

from functools import cache

from .errors import DomainError
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
    terms = dict(num.to_pairs())
    return tuple(terms.get(e, 0) for e in range(num.max_exp() + 1))


def _check_odd(l: int) -> None:
    if l < 1 or l % 2 == 0:
        raise DomainError(f"root-of-unity order must be odd and positive, got {l}")


@cache
def _root_powers(l: int) -> tuple[tuple[int, ...], ...]:
    # eps^k reduced mod Phi_l, for 0 <= k < l, as length-deg vectors.
    phi = cyclotomic_coeffs(l)
    deg = len(phi) - 1
    powers: list[tuple[int, ...]] = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(l):
        powers.append(tuple(cur))
        # multiply by v, then reduce the degree-deg overflow via Phi_l
        head = cur[-1]
        cur = [0] + cur[:-1]
        if head:
            for i in range(deg):
                cur[i] -= head * phi[i]
    return tuple(powers)


class CycloScalar:
    """An element of Z[v]/(Phi_l), stored as an integer coefficient vector."""

    __slots__ = ("l", "coeffs")

    def __init__(self, l: int, coeffs: tuple[int, ...]):
        _check_odd(l)
        deg = len(cyclotomic_coeffs(l)) - 1
        if len(coeffs) != deg:
            raise DomainError("coefficient vector has wrong length")
        if any(type(c) is not int for c in coeffs):
            raise DomainError("coefficients must be integers")
        self.l = l
        self.coeffs = tuple(coeffs)

    @classmethod
    def _raw(cls, l: int, coeffs: tuple[int, ...]) -> "CycloScalar":
        s = object.__new__(cls)
        s.l = l
        s.coeffs = coeffs
        return s

    @classmethod
    def zero(cls, l: int) -> "CycloScalar":
        deg = len(cyclotomic_coeffs(l)) - 1
        return cls(l, (0,) * deg)

    @classmethod
    def one(cls, l: int) -> "CycloScalar":
        deg = len(cyclotomic_coeffs(l)) - 1
        return cls(l, (1,) + (0,) * (deg - 1))

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
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.l, self.coeffs))

    def __add__(self, other: "CycloScalar") -> "CycloScalar":
        if not isinstance(other, CycloScalar):
            return NotImplemented
        self._check(other)
        return CycloScalar._raw(self.l, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloScalar") -> "CycloScalar":
        if not isinstance(other, CycloScalar):
            return NotImplemented
        self._check(other)
        return CycloScalar._raw(self.l, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloScalar":
        return CycloScalar._raw(self.l, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycloScalar | LaurentPoly | int") -> "CycloScalar":
        if isinstance(other, int):
            return CycloScalar._raw(self.l, tuple(a * other for a in self.coeffs))
        if isinstance(other, LaurentPoly):
            # the ring map Z[v, v^-1] -> Z[eps] that sends v to eps
            other = eval_at_root(other, self.l)
        elif not isinstance(other, CycloScalar):
            return NotImplemented
        self._check(other)
        deg = len(self.coeffs)
        conv = [0] * (2 * deg - 1)
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
                conv[k] = 0
                for i in range(deg):
                    conv[k - deg + i] -= c * phi[i]
        return CycloScalar._raw(self.l, tuple(conv[:deg]))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CycloScalar(l={self.l}, {[str(c) for c in self.coeffs]})"


def _combine(l: int, pairs) -> CycloScalar:
    # sum of c * eps^e over the (e, c) pairs, through the reduced powers
    powers = _root_powers(l)
    acc = [0] * len(powers[0])
    for e, c in pairs:
        vec = powers[e % l]
        for i in range(len(acc)):
            acc[i] += c * vec[i]
    return CycloScalar._raw(l, tuple(acc))


def eval_at_root(p: LaurentPoly, l: int) -> CycloScalar:
    """Evaluate a Laurent polynomial at a primitive l-th root of unity.

    Exponents are reduced mod l (eps^l = 1 makes negative exponents
    meaningful), so the result is exact in Z[v]/(Phi_l).

    >>> from .laurent import LaurentPoly
    >>> eval_at_root(LaurentPoly({3: 1}), 3) == CycloScalar.one(3)
    True
    >>> eval_at_root(LaurentPoly({2: 1, 1: 1, 0: 1}), 3).is_zero()
    True
    """
    _check_odd(l)
    return _combine(l, p.to_pairs())
