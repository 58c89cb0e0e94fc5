"""The symmetric-group reference that the tests check the library against.

The coset oracle in `qschur.hecke` works on the weight words of tensor
space and needs none of this; the tests rebuild its products on S_r,
with elements of the Hecke algebra kept in the T-basis as dicts over
permutations and each T_w replayed by a reduced word of w.
"""

from __future__ import annotations

from qschur.errors import DimensionMismatch, DomainError
from qschur.hecke import HeckeElt, hecke_add_into, right_mult_gen
from qschur.laurent import ONE
from qschur.matrices import Matrix, co, ro
from qschur.permutations import Permutation, block_ranges
from qschur.vectors import IntVector


def identity(r: int) -> Permutation:
    return tuple(range(r))


def compose(w: Permutation, u: Permutation) -> Permutation:
    """The product w*u, meaning u acts first: (w*u)(p) = w(u(p))."""
    return tuple(w[u[p]] for p in range(len(w)))


def mult_gen_right(w: Permutation, i: int) -> Permutation:
    """w * s_i: swaps the values at positions i and i+1."""
    out = list(w)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def adjacent_transposition(r: int, i: int) -> Permutation:
    """The generator swapping 0-based positions i and i+1."""
    if not 0 <= i < r - 1:
        raise DomainError(f"generator index {i} out of range for degree {r}")
    w = list(range(r))
    w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word (s_{i1} ... s_{ik} = w) as 0-based generator indices.

    Produced by repeatedly cancelling the leftmost descent on the right.
    """
    cur = list(w)
    rev: list[int] = []
    while True:
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                rev.append(i)
                break
        else:
            return tuple(reversed(rev))


def hecke_unit(r: int) -> HeckeElt:
    return {identity(r): ONE}


def right_mult_perm(h: HeckeElt, u: Permutation) -> HeckeElt:
    """h * T_u, by the reduced word of u."""
    for i in reduced_word(u):
        h = right_mult_gen(h, i)
    return h


def hecke_multiply(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """Product in the T-basis."""
    out: HeckeElt = {}
    for u, c in b.items():
        hecke_add_into(out, {w: c * x for w, x in right_mult_perm(a, u).items()})
    return out


def coset_to_matrix(lam: IntVector, d: Permutation, mu: IntVector) -> Matrix:
    """Entry (k, l) counts the block-k positions hit by d from block l."""
    n = len(lam)
    if len(mu) != n:
        raise DimensionMismatch("compositions have different lengths")
    lam_blocks = block_ranges(lam)
    mu_blocks = block_ranges(mu)
    block_of = {}
    for k, blk in enumerate(lam_blocks):
        for p in blk:
            block_of[p] = k
    rows = [[0] * n for _ in range(n)]
    for l, blk in enumerate(mu_blocks):
        for p in blk:
            rows[block_of[d[p]]][l] += 1
    return tuple(tuple(row) for row in rows)


def matrix_to_coset(a: Matrix) -> tuple[IntVector, Permutation, IntVector]:
    """Inverse of `coset_to_matrix` landing on the minimal representative.

    Positions inside each matrix cell are matched in increasing order,
    which yields the distinguished double-coset element.
    """
    n = len(a)
    lam, mu = ro(a), co(a)
    lam_blocks = [list(blk) for blk in block_ranges(lam)]
    mu_blocks = [list(blk) for blk in block_ranges(mu)]
    d = [0] * sum(lam)
    fill = [0] * n  # next unused offset within each lam block
    for l in range(n):
        src = mu_blocks[l]
        used = 0
        for k in range(n):
            cnt = a[k][l]
            if cnt < 0:
                raise DomainError("matrix entries must be nonnegative")
            for t in range(cnt):
                d[src[used + t]] = lam_blocks[k][fill[k] + t]
            fill[k] += cnt
            used += cnt
    return lam, tuple(d), mu


def add_diag(a: Matrix, d: IntVector) -> Matrix:
    if len(a) != len(d):
        raise DimensionMismatch("matrix and vector sizes differ")
    return tuple(
        tuple(x + (d[i] if i == j else 0) for j, x in enumerate(row))
        for i, row in enumerate(a)
    )
