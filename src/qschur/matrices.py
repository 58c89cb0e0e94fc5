"""Square matrices with integer entries, stored as tuples of row tuples.

These index the standard basis of the q-Schur algebra: a nonnegative
matrix whose entries sum to r names one basis element of the degree-r
algebra.  Matrices with zero diagonal name the off-diagonal patterns
that survive in every degree; helpers for those (the dominance-style
partial order and the weighted norm used for triangularity statements)
live here as well.
"""

from __future__ import annotations

import operator
from functools import cache

from .errors import DimensionMismatch, DomainError
from .vectors import IntVector, compositions

__all__ = [
    "Matrix",
    "zero_matrix",
    "diag_matrix",
    "entry_matrix",
    "ro",
    "co",
    "entry_sum",
    "is_diagonal",
    "is_nonnegative",
    "has_zero_diagonal",
    "add_to_entry",
    "rev",
    "transpose",
    "split_triangular",
    "theta_matrices",
    "theta_pm",
    "precedes",
    "matrix_norm",
]

Matrix = tuple[tuple[int, ...], ...]


def zero_matrix(n: int) -> Matrix:
    return tuple((0,) * n for _ in range(n))


def diag_matrix(d: IntVector) -> Matrix:
    n = len(d)
    return tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(n))


def entry_matrix(n: int, i: int, j: int, value: int = 1) -> Matrix:
    """Matrix with a single entry at 1-based position (i, j)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError("entry position out of range")
    return tuple(
        tuple(value if (r, c) == (i - 1, j - 1) else 0 for c in range(n)) for r in range(n)
    )


def ro(a: Matrix) -> IntVector:
    """Row sums."""
    return tuple(map(sum, a))


def co(a: Matrix) -> IntVector:
    """Column sums."""
    return tuple(map(sum, zip(*a)))


def entry_sum(a: Matrix) -> int:
    return sum(map(sum, a))


def is_diagonal(a: Matrix) -> bool:
    return all(not a[i][j] for i in range(len(a)) for j in range(len(a)) if i != j)


def is_nonnegative(a: Matrix) -> bool:
    return min(map(min, a), default=0) >= 0


def has_zero_diagonal(a: Matrix) -> bool:
    return not any(map(operator.getitem, a, range(len(a))))


def add_to_entry(a: Matrix, i: int, j: int, delta: int) -> Matrix:
    """Copy of a with delta added at 1-based position (i, j)."""
    rows = [list(row) for row in a]
    rows[i - 1][j - 1] += delta
    return tuple(tuple(row) for row in rows)


def rev(a: Matrix) -> Matrix:
    """Reverse both the row and the column order (a 180-degree turn)."""
    return tuple(row[::-1] for row in a[::-1])


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def split_triangular(a: Matrix) -> tuple[Matrix, Matrix]:
    """Split into (strictly upper, strictly lower) parts."""
    n = len(a)
    up = tuple(tuple(a[i][j] if j > i else 0 for j in range(n)) for i in range(n))
    lo = tuple(tuple(a[i][j] if j < i else 0 for j in range(n)) for i in range(n))
    return up, lo


@cache
def theta_matrices(n: int, r: int) -> tuple[Matrix, ...]:
    """All n-by-n matrices with nonnegative entries summing to r."""
    out: list[Matrix] = []
    for flat in compositions(n * n, r):
        out.append(tuple(flat[i * n : (i + 1) * n] for i in range(n)))
    return tuple(out)


@cache
def theta_pm(n: int, max_total: int) -> tuple[Matrix, ...]:
    """All zero-diagonal nonnegative n-by-n matrices with entry sum
    at most max_total."""
    out: list[Matrix] = []
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for total in range(max_total + 1):
        for flat in compositions(len(slots), total):
            rows = [[0] * n for _ in range(n)]
            for (i, j), x in zip(slots, flat):
                rows[i][j] = x
            out.append(tuple(tuple(row) for row in rows))
    return tuple(out)


def _corner_sums(a: Matrix) -> tuple[int, ...]:
    # For every ordered pair i < j: the upper corner sum (rows <= i,
    # columns >= j) followed by the mirrored lower corner sum.
    n = len(a)
    out: list[int] = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            upper = sum(a[s][t] for s in range(i + 1) for t in range(j, n))
            lower = sum(a[t][s] for s in range(i + 1) for t in range(j, n))
            out.append(upper)
            out.append(lower)
    return tuple(out)


def precedes(b: Matrix, a: Matrix) -> bool:
    """Strict comparison in the corner-sum partial order.

    Both matrices must be zero on the diagonal and of equal size; b
    strictly precedes a when every corner sum of b is at most the
    matching corner sum of a and at least one is smaller.
    """
    if len(a) != len(b):
        raise DimensionMismatch("matrix sizes differ")
    if not (has_zero_diagonal(a) and has_zero_diagonal(b)):
        raise DomainError("order is defined for zero-diagonal matrices")
    sb, sa = _corner_sums(b), _corner_sums(a)
    return all(x <= y for x, y in zip(sb, sa)) and sb != sa


def matrix_norm(a: Matrix) -> int:
    """Weighted entry sum that strictly decreases along ``precedes``.

    Each entry at distance k from the diagonal is weighted by the
    triangular number k(k+1)/2.
    """
    n = len(a)
    total = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                k = abs(i - j)
                total += (k * (k + 1) // 2) * a[i][j]
    return total
