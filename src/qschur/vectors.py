"""Small helpers for integer vectors (stored as plain tuples).

Compositions of r into n nonnegative parts are enumerated in ascending
lexicographic order and cached per (n, r), since the same index sets
are walked over and over by the algebra code.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterator

from .errors import DimensionMismatch, DomainError

__all__ = [
    "IntVector",
    "dot",
    "vadd",
    "vsub",
    "unit_vector",
    "is_natural",
    "compositions",
    "boxes",
]

IntVector = tuple[int, ...]


def dot(a: IntVector, b: IntVector) -> int:
    if len(a) != len(b):
        raise DimensionMismatch("vector lengths differ")
    return sum(x * y for x, y in zip(a, b))


def vadd(a: IntVector, b: IntVector) -> IntVector:
    if len(a) != len(b):
        raise DimensionMismatch("vector lengths differ")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: IntVector, b: IntVector) -> IntVector:
    if len(a) != len(b):
        raise DimensionMismatch("vector lengths differ")
    return tuple(x - y for x, y in zip(a, b))


def unit_vector(n: int, i: int) -> IntVector:
    """The i-th standard basis vector of length n, 1 <= i <= n."""
    if not 1 <= i <= n:
        raise DomainError(f"index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def is_natural(a: IntVector) -> bool:
    return min(a, default=0) >= 0


@cache
def compositions(n: int, r: int) -> tuple[IntVector, ...]:
    """All ways to write r as an ordered sum of n naturals, lex ascending.

    >>> compositions(2, 2)
    ((0, 2), (1, 1), (2, 0))
    """
    if n < 0 or r < 0:
        raise DomainError("compositions need nonnegative arguments")
    if n == 0:
        return ((),) if r == 0 else ()
    if n == 1:
        return ((r,),)
    out: list[IntVector] = []
    for first in range(r + 1):
        for rest in compositions(n - 1, r - first):
            out.append((first,) + rest)
    return tuple(out)


def boxes(lo: int, hi: int, n: int) -> Iterator[IntVector]:
    """All length-n integer vectors with entries in [lo, hi], lex ascending."""
    yield from product(range(lo, hi + 1), repeat=n)
