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

What depends on one shape alone comes from bounded, read-only tables,
each an lru_cache keyed by one matrix or one count vector, never by a
pair: the arrangements of a count vector, the double-coset words of a
matrix (a's image, b's support, and the orbit that each group of the
result is checked against), the walk for a right factor b, and
`norm_exponent`.  A pair still pays for its validation, one generator
step per node of the walk, the sum over the support, the grouping and
the check of every group.  No result is cached.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import chain, product
from operator import gt
from types import MappingProxyType

from .errors import ConsistencyError, DimensionMismatch, DomainError, ResourceLimit
from .laurent import ONE, LaurentPoly
from .matrices import Matrix, co, entry_sum, is_nonnegative, ro
from .permutations import (
    Permutation,
    all_permutations,
    block_ranges,
    inverse,
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

# The size of each table kept per shape (a matrix or a count vector).
_MATRICES = 1 << 10


def hecke_add_into(acc: HeckeElt, h: HeckeElt) -> None:
    """acc += h, dropping cancelled terms."""
    for w, y in h.items():
        s = acc.get(w)
        if s is None:
            acc[w] = y
        else:
            s = s + y
            if s:
                acc[w] = s
            else:
                del acc[w]


def right_mult_gen(h: HeckeElt, i: int) -> HeckeElt:
    """h * T_i in one pass over the weight words.

    A word w ascending at i and its swap u = w s_i pair up: x w T_i = x u
    and x u T_i = (q - 1) x u + q x w, so each word of the result is
    written once, by the descent of its pair when h holds it.
    """
    out: HeckeElt = {}
    for w, c in h.items():
        k, l = w[i], w[i + 1]
        if k == l:
            out[w] = c.shift(2)
            continue
        u = w[:i] + (l, k) + w[i + 2 :]
        if k > l:
            qc = c.shift(2)
            out[u] = qc
            s = qc - c
            a = h.get(u)
            if a is not None:
                s = s + a
            if s:
                out[w] = s
        elif u not in h:
            out[u] = c
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


@lru_cache(maxsize=_MATRICES)
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


@lru_cache(maxsize=_MATRICES)
def _arrangements(counts: tuple[int, ...]) -> tuple[Word, ...]:
    """Every distinct word with counts[k] letters k."""
    if not any(counts):
        return ((),)
    out: list[Word] = []
    for k, c in enumerate(counts):
        if c:
            rest = counts[:k] + (c - 1,) + counts[k + 1 :]
            out += [(k, *w) for w in _arrangements(rest)]
    return tuple(out)


@lru_cache(maxsize=_MATRICES)
def _double_coset_words(a: Matrix) -> tuple[Word, ...]:
    """The right cosets in the double coset of a as weight-ro(a) words:
    on column block l, every arrangement of a[k][l] letters k."""
    n = len(a)
    columns = [_arrangements(tuple(row[l] for row in a)) for l in range(n)]
    return tuple(tuple(chain.from_iterable(parts)) for parts in product(*columns))


@lru_cache(maxsize=_MATRICES)
def _walk(b: Matrix) -> tuple[bool, int, tuple[tuple[int, int, bool], ...]]:
    """The tree walk for a right factor b, over the ancestors of its
    support `_double_coset_words(b)`: whether the root (the sorted word)
    is in the support, the deepest level, and every other node in depth
    first order as (level, j, whether it is in the support), where the
    node is its parent times T_j and its parent is the last node before
    it one level up."""
    support = _double_coset_words(b)
    root = tuple(sorted(support[0]))
    children: dict[Word, list[tuple[Word, int]]] = {}
    seen = {root}
    for u in support:
        while u not in seen:
            seen.add(u)
            # the parent swaps the leftmost descent j
            j = list(map(gt, u, u[1:])).index(True)
            parent = u[:j] + (u[j + 1], u[j]) + u[j + 2 :]
            children.setdefault(parent, []).append((u, j))
            u = parent
    in_support = frozenset(support)
    steps = []
    stack = [(root, 0, 0)]
    while stack:
        u, level, j = stack.pop()
        if level:
            steps.append((level, j, u in in_support))
        for child, i in children.get(u, ()):
            stack.append((child, level + 1, i))
    return root in in_support, max((s[0] for s in steps), default=0), tuple(steps)


def _double_coset_coeffs(z: HeckeElt, mu: IntVector) -> dict[Matrix, LaurentPoly]:
    """Express z over the double-coset sums of x_lam H and H x_mu, one
    coefficient per matrix: a word's matrix counts its letters k on
    mu-block l.

    The expansion is verified by reconstruction: the words of each
    matrix m in z must be its whole orbit `_double_coset_words(m)`, with
    prod_l mu_l! / prod_k m[k][l]! members, and carry one coefficient.
    """
    n = len(mu)
    columns = [l for l, part in enumerate(mu) for _ in range(part)]
    rest = dict(z)
    out: dict[Matrix, LaurentPoly] = {}
    while rest:
        u, c = rest.popitem()
        rows = [[0] * n for _ in range(n)]
        for k, l in zip(u, columns):
            rows[k][l] += 1
        m = tuple(map(tuple, rows))
        for w in _double_coset_words(m):
            if w != u:
                d = rest.pop(w, None)
                if d is None or d != c:
                    raise ConsistencyError(
                        "element is not a combination of the expected coset sums"
                    )
        out[m] = c
    return out


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

    # The right endomorphism sends the generator x_{co(b)} to the sum of
    # x_{ro(b)} T_d over b's support words, and the left one sends
    # x_{ro(b)} h to (a's double coset sum) h.  The walk reaches each
    # product with T_d from its parent's in one generator step, and
    # holds only the products on the path from the root to its node.
    keep_root, depth, steps = _walk(b)
    image_of_x = dict.fromkeys(_double_coset_words(a), ONE)
    z: HeckeElt = dict(image_of_x) if keep_root else {}
    path = [image_of_x] * (depth + 1)
    for level, j, keep in steps:
        h = path[level] = right_mult_gen(path[level - 1], j)
        if keep:
            hecke_add_into(z, h)

    shift = -norm_exponent(a) - norm_exponent(b)
    return {
        m: g.shift(shift + norm_exponent(m))
        for m, g in _double_coset_coeffs(z, co(b)).items()
    }
