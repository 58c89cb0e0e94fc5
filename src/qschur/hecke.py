"""The right action of the Iwahori-Hecke algebra of the symmetric group
on the weight spaces of tensor space, and the coset bookkeeping that
realizes endomorphism-algebra products.

The defining relations use q = v^2:

    T_i^2 = (q - 1) T_i + q,    plus the braid relations.

The degree-r endomorphism algebra acts on the direct sum of the
permutation modules x_lam H, where x_lam sums T_w over the Young
subgroup W_lam.  x_lam H has the basis x_lam T_d, d minimal in its right
coset W_lam d, and x_lam T_d is stored as its weight word: the word
whose letter at position p is the lam-block that holds d(p).  So x_lam H
is the weight-lam space of tensor space, of dimension r!/prod(lam_i!),
and an element is a dict mapping words to Laurent coefficients.  A
permutation is the weight word of lam = (1^r), so `x_lambda` keeps x_lam
itself, in the standard basis {T_w}, in the same kind of dict.  T_j acts
on a word through its letters at j and j+1: an ascent moves the
coefficient to the swapped word, equal letters multiply it by q, and a
descent gives (q - 1) times the word plus q times the swapped word.

A basis of the endomorphism algebra is indexed by triples (lam, d, mu)
with d minimal in its double coset, equivalently by nonnegative integer
matrices with row sums lam and column sums mu.  The right cosets inside
the double coset of a matrix a are the words whose letters on mu-block l
are the multiset with a[k][l] letters k.

`oracle_product` multiplies two normalized basis elements through an
honest composition of module endomorphisms.  It is deliberately
independent of the structured product formulas elsewhere in the
package, so the two can be checked against each other.  Its cost grows
with the weight spaces, r!/prod(lam_i!), not with r!.  The words of one
weight form a tree rooted at the sorted word: the parent of a word
swaps its leftmost descent (d s_j is again minimal when s_j is the last
letter of a reduced word of d), so the walk reaches each product with
T_d from its parent's in one generator step.  The result is read back
by grouping its words by their matrix relative to the column blocks;
each group must be a complete orbit carrying one coefficient, and any
mismatch raises ConsistencyError rather than returning silently wrong
data.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, product
from math import factorial, prod
from types import MappingProxyType

from .errors import ConsistencyError, DimensionMismatch, DomainError, ResourceLimit
from .laurent import ONE, LaurentPoly, v_power
from .matrices import Matrix, co, entry_sum, is_nonnegative, ro
from .permutations import (
    Permutation,
    all_permutations,
    block_ranges,
    inverse,
    mult_gen_right,
    young_subgroup,
)
from .vectors import IntVector

__all__ = [
    "Word",
    "HeckeElt",
    "hecke_add_into",
    "right_mult_gen",
    "x_lambda",
    "distinguished_reps",
    "norm_exponent",
    "oracle_product",
    "DEFAULT_ORACLE_CAP",
]

Word = tuple[int, ...]
HeckeElt = dict[Word, LaurentPoly]

DEFAULT_ORACLE_CAP = 6


def hecke_add_into(acc: HeckeElt, h: HeckeElt) -> None:
    """acc += h, dropping cancelled terms."""
    for w, y in h.items():
        s = acc.get(w)
        s = y if s is None else s + y
        if s.is_zero():
            acc.pop(w, None)
        else:
            acc[w] = s


def right_mult_gen(h: HeckeElt, i: int) -> HeckeElt:
    """h * T_i in one pass over the weight words."""
    out: HeckeElt = {}

    def put(w: Word, c: LaurentPoly) -> None:
        s = out.get(w)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s

    for w, c in h.items():
        if w[i] < w[i + 1]:
            put(mult_gen_right(w, i), c)
        elif w[i] == w[i + 1]:
            put(w, c.shift(2))
        else:
            qc = c.shift(2)
            put(w, qc - c)
            put(mult_gen_right(w, i), qc)
    return out


@cache
def x_lambda(lam: IntVector) -> MappingProxyType[Permutation, LaurentPoly]:
    """Sum of T_w over the Young subgroup of the composition lam,
    read-only because every caller shares the cached result."""
    return MappingProxyType({w: ONE for w in young_subgroup(lam)})


def distinguished_reps(lam: IntVector, mu: IntVector) -> tuple[Permutation, ...]:
    """Minimal-length representatives of the double cosets, sorted by
    length then lexicographically: the w that ascend on each mu-block
    of positions and whose inverses ascend on each lam-block."""
    r = sum(lam)
    if sum(mu) != r:
        raise DimensionMismatch("compositions have different sizes")
    lam_blocks, mu_blocks = block_ranges(lam), block_ranges(mu)

    def ascends(w: Permutation, blocks: tuple[range, ...]) -> bool:
        return all(w[p] < w[p + 1] for blk in blocks for p in blk[:-1])

    return tuple(
        w
        for w in all_permutations(r)
        if ascends(w, mu_blocks) and ascends(inverse(w), lam_blocks)
    )


def norm_exponent(a: Matrix) -> int:
    """Exponent of the v-power relating the coset basis to the
    normalized basis: pairs of entries with (i, j) weakly below and
    strictly left of (k, l) in the sense i >= k, j < l."""
    n = len(a)
    cells = [(i, j, a[i][j]) for i in range(n) for j in range(n) if a[i][j]]
    total = 0
    for i, j, x in cells:
        for k, l, y in cells:
            if i >= k and j < l:
                total += x * y
    return total


def _arrangements(counts: tuple[int, ...]) -> list[Word]:
    """Every distinct word with counts[k] letters k."""
    if not any(counts):
        return [()]
    out: list[Word] = []
    for k, c in enumerate(counts):
        if c:
            rest = counts[:k] + (c - 1,) + counts[k + 1 :]
            out += [(k, *w) for w in _arrangements(rest)]
    return out


def _double_coset_words(a: Matrix) -> list[Word]:
    """The right cosets in the double coset of a as weight-ro(a) words:
    on column block l, every arrangement of a[k][l] letters k."""
    n = len(a)
    columns = [_arrangements(tuple(row[l] for row in a)) for l in range(n)]
    return [tuple(chain.from_iterable(parts)) for parts in product(*columns)]


def _double_coset_coeffs(z: HeckeElt, mu: IntVector) -> dict[Matrix, LaurentPoly]:
    """Express z over the double-coset sums of x_lam H and H x_mu, one
    coefficient per matrix: a word's matrix counts its letters k on
    mu-block l.

    The expansion is verified by reconstruction: each class of words
    must be a complete orbit, with prod_l mu_l! / prod_k m[k][l]!
    members for its matrix m, and carry one coefficient.
    """
    n = len(mu)
    blocks = block_ranges(mu)
    groups: dict[Matrix, list[LaurentPoly]] = {}
    for u, c in z.items():
        rows = [[0] * n for _ in range(n)]
        for l, blk in enumerate(blocks):
            for p in blk:
                rows[u[p]][l] += 1
        groups.setdefault(tuple(tuple(row) for row in rows), []).append(c)
    for m, cs in groups.items():
        size = prod(
            factorial(mu[l]) // prod(factorial(row[l]) for row in m) for l in range(n)
        )
        if len(cs) != size or any(c != cs[0] for c in cs[1:]):
            raise ConsistencyError("element is not a combination of the expected coset sums")
    return {m: cs[0] for m, cs in groups.items()}


def oracle_product(a: Matrix, b: Matrix, cap: int = DEFAULT_ORACLE_CAP) -> dict[Matrix, LaurentPoly]:
    """Structure constants of [a][b] in the normalized basis, computed
    by composing the two module endomorphisms on weight words.

    Returns a dict mapping basis matrices to coefficients; empty when
    the middle compositions do not match.
    """
    n = len(a)
    if len(b) != n:
        raise DimensionMismatch("matrix sizes differ")
    r = entry_sum(a)
    if entry_sum(b) != r:
        raise DimensionMismatch("matrices have different degrees")
    if not (is_nonnegative(a) and is_nonnegative(b)):
        raise DomainError("matrix entries must be nonnegative")
    if co(a) != ro(b):
        return {}
    if r > cap:
        raise ResourceLimit(f"degree {r} exceeds the oracle cap {cap}")

    # Image of the generator x_{co(b)} under the right endomorphism: the
    # sum of x_{ro(b)} T_d over the right cosets in b's double coset.
    support = _double_coset_words(b)

    # Apply the left endomorphism: x_{ro(b)} h |-> (a's double coset sum) h.
    # With j the leftmost descent of a word, the parent word swaps j and
    # j+1, and T_d = T_{d s_j} T_j, so each product is one generator step
    # from its parent's.  The walk is depth first over the ancestors of
    # the support only, and a product is computed when its node is
    # popped, so only about one root path of products is held at a time.
    root = tuple(sorted(support[0]))
    children: dict[Word, list[tuple[Word, int]]] = {}
    seen = {root}
    for u in support:
        while u not in seen:
            seen.add(u)
            j = next(j for j in range(r - 1) if u[j] > u[j + 1])
            parent = mult_gen_right(u, j)
            children.setdefault(parent, []).append((u, j))
            u = parent
    in_support = set(support)
    z: HeckeElt = {}
    image_of_x = {w: ONE for w in _double_coset_words(a)}
    stack: list[tuple[Word, HeckeElt, int | None]] = [(root, image_of_x, None)]
    while stack:
        u, h, j = stack.pop()
        if j is not None:
            h = right_mult_gen(h, j)
        if u in in_support:
            hecke_add_into(z, h)
        stack.extend((child, h, i) for child, i in children.get(u, ()))

    shift = -norm_exponent(a) - norm_exponent(b)
    out: dict[Matrix, LaurentPoly] = {}
    for m, g in _double_coset_coeffs(z, co(b)).items():
        coeff = g * v_power(shift + norm_exponent(m))
        if not coeff.is_zero():
            out[m] = coeff
    return out
