"""Symmetric group combinatorics on one-line permutation tuples.

A permutation of degree r is a tuple of length r containing each of
0..r-1 exactly once; position p is sent to w[p].  Degree stays small
(single digits) throughout the package, so groups are enumerated
eagerly and cached per degree.

>>> length((2, 0, 1))
2
"""

from __future__ import annotations

from functools import cache
from itertools import permutations as _iter_permutations, product as _product

from .errors import DomainError
from .vectors import IntVector

__all__ = [
    "Permutation",
    "inverse",
    "length",
    "all_permutations",
    "block_ranges",
    "young_subgroup",
]

Permutation = tuple[int, ...]


def inverse(w: Permutation) -> Permutation:
    out = [0] * len(w)
    for p, val in enumerate(w):
        out[val] = p
    return tuple(out)


def length(w: Permutation) -> int:
    """Number of inversions, which equals the Coxeter length."""
    r = len(w)
    return sum(1 for i in range(r) for j in range(i + 1, r) if w[i] > w[j])


@cache
def all_permutations(r: int) -> tuple[Permutation, ...]:
    """Every permutation of degree r, sorted by length then lex."""
    perms = sorted(_iter_permutations(range(r)), key=lambda w: (length(w), w))
    return tuple(perms)


def block_ranges(lam: IntVector) -> tuple[range, ...]:
    """Consecutive 0-based position blocks with sizes given by lam."""
    starts = [0]
    for part in lam:
        if part < 0:
            raise DomainError("composition parts must be nonnegative")
        starts.append(starts[-1] + part)
    return tuple(range(starts[k], starts[k + 1]) for k in range(len(lam)))


@cache
def young_subgroup(lam: IntVector) -> tuple[Permutation, ...]:
    """All permutations preserving each consecutive block of sizes lam."""
    blocks = block_ranges(lam)
    r = sum(lam)
    members: list[Permutation] = []
    choices = [list(_iter_permutations(blk)) for blk in blocks]
    for combo in _product(*choices):
        w = list(range(r))
        for blk, arrangement in zip(blocks, combo):
            for pos, val in zip(blk, arrangement):
                w[pos] = val
        members.append(tuple(w))
    return tuple(sorted(members, key=lambda w: (length(w), w)))
