"""The Iwahori-Hecke algebra of the symmetric group, and the coset
bookkeeping that realizes endomorphism-algebra products.

Elements are dicts mapping permutations to Laurent coefficients in the
standard basis {T_w}.  The defining relations use q = v^2:

    T_i^2 = (q - 1) T_i + q,    plus the braid relations.

The degree-r endomorphism algebra acts on the direct sum of the
permutation modules x_lam H, where x_lam sums T_w over a Young
subgroup.  A basis of the endomorphism algebra is indexed by triples
(lam, d, mu) with d minimal in its double coset, equivalently by
nonnegative integer matrices with row sums lam and column sums mu;
`coset_to_matrix` / `matrix_to_coset` convert between the two.

Each double coset W_lam w W_mu is built as the orbit of its minimal
representative under the simple reflections of the two Young
subgroups: s_i on the left swaps the values i and i+1, s_j on the
right swaps the positions j and j+1.

`oracle_product` multiplies two normalized basis elements through an
honest composition of module endomorphisms.  It is deliberately
independent of the structured product formulas elsewhere in the
package, so the two can be checked against each other.  The minimal
right-coset representatives d it multiplies by are prefix-closed
(d s_j is again minimal when s_j is the last letter of a reduced word
of d), so it walks them as a tree and reaches each product with T_d
from its parent's in one generator step.  Internal rewriting steps
re-expand their output and compare against the input; any mismatch
raises ConsistencyError rather than returning silently wrong data.
"""

from __future__ import annotations

from functools import cache

from .errors import ConsistencyError, DimensionMismatch, DomainError, ResourceLimit
from .laurent import ONE, LaurentPoly, v_power
from .matrices import Matrix, co, entry_sum, ro
from .permutations import (
    Permutation,
    all_permutations,
    block_ranges,
    compose,
    identity,
    mult_gen_right,
    reduced_word,
    young_subgroup,
)
from .vectors import IntVector

__all__ = [
    "HeckeElt",
    "hecke_unit",
    "hecke_add_into",
    "right_mult_gen",
    "right_mult_perm",
    "hecke_multiply",
    "x_lambda",
    "distinguished_reps",
    "double_coset_sum",
    "coset_to_matrix",
    "matrix_to_coset",
    "norm_exponent",
    "oracle_product",
    "DEFAULT_ORACLE_CAP",
]

HeckeElt = dict[Permutation, LaurentPoly]

DEFAULT_ORACLE_CAP = 6


def hecke_unit(r: int) -> HeckeElt:
    return {identity(r): ONE}


def hecke_add_into(acc: HeckeElt, h: HeckeElt, c: LaurentPoly | None = None) -> None:
    """acc += c * h, dropping cancelled terms."""
    if c is ONE:
        c = None
    for w, x in h.items():
        y = x if c is None else c * x
        s = acc.get(w)
        s = y if s is None else s + y
        if s.is_zero():
            acc.pop(w, None)
        else:
            acc[w] = s


def right_mult_gen(h: HeckeElt, i: int) -> HeckeElt:
    """h * T_i in one pass over the standard-basis terms."""
    out: HeckeElt = {}

    def put(w: Permutation, c: LaurentPoly) -> None:
        s = out.get(w)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s

    for w, c in h.items():
        if w[i] < w[i + 1]:
            put(mult_gen_right(w, i), c)
        else:
            qc = c.shift(2)
            put(w, qc - c)
            put(mult_gen_right(w, i), qc)
    return out


def right_mult_perm(h: HeckeElt, u: Permutation) -> HeckeElt:
    """h * T_u, by the reduced word of u."""
    for i in reduced_word(u):
        h = right_mult_gen(h, i)
    return h


def hecke_multiply(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """Product in the T-basis."""
    out: HeckeElt = {}
    for u, c in b.items():
        hecke_add_into(out, right_mult_perm(a, u), c)
    return out


@cache
def x_lambda(lam: IntVector) -> HeckeElt:
    """Sum of T_w over the Young subgroup of the composition lam."""
    return {w: ONE for w in young_subgroup(lam)}


@cache
def _right_coset_data(lam: IntVector) -> tuple[tuple[Permutation, ...], dict[Permutation, Permutation]]:
    # Minimal-length representatives of the right cosets (subgroup) w,
    # plus the map sending each permutation to its representative.
    r = sum(lam)
    group = young_subgroup(lam)
    rep_of: dict[Permutation, Permutation] = {}
    reps: list[Permutation] = []
    for w in all_permutations(r):
        if w in rep_of:
            continue
        reps.append(w)
        for x in group:
            rep_of[compose(x, w)] = w
    return tuple(reps), rep_of


@cache
def _perm_index(r: int) -> dict[Permutation, int]:
    # Position in `all_permutations(r)`, i.e. in (length, lex) order.
    return {w: k for k, w in enumerate(all_permutations(r))}


def _block_gens(lam: IntVector) -> tuple[int, ...]:
    # Simple reflections s_i (i, i+1 in one block) generating the Young subgroup.
    return tuple(i for blk in block_ranges(lam) for i in blk[:-1])


def _mult_gen_left(w: Permutation, i: int) -> Permutation:
    """s_i * w: swaps the values i and i+1."""
    out = list(w)
    a, b = w.index(i), w.index(i + 1)
    out[a], out[b] = i + 1, i
    return tuple(out)


@cache
def _double_coset_data(
    lam: IntVector, mu: IntVector
) -> tuple[
    tuple[Permutation, ...],
    dict[Permutation, Permutation],
    dict[Permutation, tuple[Permutation, ...]],
]:
    # Minimal-length double coset representatives, the map to the
    # representative, and the full membership list per representative
    # in (length, lex) order.  Scanning in that order makes the first
    # unvisited permutation minimal; its coset is its orbit under the
    # left and right simple reflections.
    r = sum(lam)
    if sum(mu) != r:
        raise DimensionMismatch("compositions have different sizes")
    left = _block_gens(lam)
    right = _block_gens(mu)
    index = _perm_index(r).__getitem__
    rep_of: dict[Permutation, Permutation] = {}
    orbits: dict[Permutation, tuple[Permutation, ...]] = {}
    reps: list[Permutation] = []
    for w in all_permutations(r):
        if w in rep_of:
            continue
        reps.append(w)
        rep_of[w] = w
        members = [w]
        for u in members:  # grows while scanned: breadth-first
            neighbours = [_mult_gen_left(u, i) for i in left]
            neighbours += [mult_gen_right(u, j) for j in right]
            for x in neighbours:
                if x not in rep_of:
                    rep_of[x] = w
                    members.append(x)
        orbits[w] = tuple(sorted(members, key=index))
    return tuple(reps), rep_of, orbits


def distinguished_reps(lam: IntVector, mu: IntVector) -> tuple[Permutation, ...]:
    """Minimal-length representatives of the double cosets, sorted by
    length then lexicographically."""
    return _double_coset_data(lam, mu)[0]


def double_coset_sum(lam: IntVector, d: Permutation, mu: IntVector) -> HeckeElt:
    """Sum of T_x over the double coset of d (d need not be minimal)."""
    _, rep_of, orbits = _double_coset_data(lam, mu)
    return {w: ONE for w in orbits[rep_of[d]]}


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


def _rewrite(
    h: HeckeElt, rep_of: dict[Permutation, Permutation], size
) -> dict[Permutation, LaurentPoly]:
    """Express h over coset sums, one coefficient per representative:
    rep_of maps a permutation to its coset's representative, and
    size(rep) is the size of that coset.

    The expansion is verified by reconstruction: coefficients must be
    constant across each coset and the support a union of cosets.
    """
    groups: dict[Permutation, list[LaurentPoly]] = {}
    for w, c in h.items():
        groups.setdefault(rep_of[w], []).append(c)
    for d, cs in groups.items():
        if len(cs) != size(d) or any(c != cs[0] for c in cs[1:]):
            raise ConsistencyError("element is not a combination of the expected coset sums")
    return {d: cs[0] for d, cs in groups.items()}


def _rewrite_right_cosets(h: HeckeElt, lam: IntVector) -> dict[Permutation, LaurentPoly]:
    """Express h in x_lam H as coefficients over x_lam T_d, d minimal."""
    size = len(young_subgroup(lam))
    return _rewrite(h, _right_coset_data(lam)[1], lambda d: size)


def _rewrite_double_cosets(
    h: HeckeElt, lam: IntVector, mu: IntVector
) -> dict[Permutation, LaurentPoly]:
    """Express h as a combination of double-coset sums."""
    _, rep_of, orbits = _double_coset_data(lam, mu)
    return _rewrite(h, rep_of, lambda e: len(orbits[e]))


def oracle_product(a: Matrix, b: Matrix, cap: int = DEFAULT_ORACLE_CAP) -> dict[Matrix, LaurentPoly]:
    """Structure constants of [a][b] in the normalized basis, computed
    by composing the two module endomorphisms inside the Hecke algebra.

    Returns a dict mapping basis matrices to coefficients; empty when
    the middle compositions do not match.
    """
    n = len(a)
    if len(b) != n:
        raise DimensionMismatch("matrix sizes differ")
    r = entry_sum(a)
    if entry_sum(b) != r:
        raise DimensionMismatch("matrices have different degrees")
    if co(a) != ro(b):
        return {}
    if r > cap:
        raise ResourceLimit(f"degree {r} exceeds the oracle cap {cap}")

    lam_a, d_a, mu_a = matrix_to_coset(a)
    lam_b, d_b, mu_b = matrix_to_coset(b)

    # Image of the generator x_{mu_b} under the right endomorphism.
    y = double_coset_sum(lam_b, d_b, mu_b)
    y_coeffs = _rewrite_right_cosets(y, lam_b)

    # Apply the left endomorphism: x_{lam_b} h |-> (double coset sum) h.
    # With j the leftmost descent of d (the last letter of its reduced
    # word), the parent d s_j is again minimal and T_d = T_{d s_j} T_j,
    # so each product is one generator step from its parent's.  The walk
    # is depth first over the ancestors of y_coeffs' support only, and a
    # product is computed when its node is popped, so only about one
    # root path of products is held at a time.
    root = identity(r)
    children: dict[Permutation, list[tuple[Permutation, int]]] = {}
    seen = {root}
    for d in y_coeffs:
        while d not in seen:
            seen.add(d)
            j = next(j for j in range(r - 1) if d[j] > d[j + 1])
            parent = mult_gen_right(d, j)
            children.setdefault(parent, []).append((d, j))
            d = parent
    image_of_x = double_coset_sum(lam_a, d_a, mu_a)
    z: HeckeElt = {}
    stack: list[tuple[Permutation, HeckeElt, int | None]] = [(root, image_of_x, None)]
    while stack:
        d, h, j = stack.pop()
        if j is not None:
            h = right_mult_gen(h, j)
        c = y_coeffs.get(d)
        if c is not None:
            hecke_add_into(z, h, c)
        stack.extend((child, h, i) for child, i in children.get(d, ()))

    shift = -norm_exponent(a) - norm_exponent(b)
    out: dict[Matrix, LaurentPoly] = {}
    for e, g in _rewrite_double_cosets(z, lam_a, mu_b).items():
        m = coset_to_matrix(lam_a, e, mu_b)
        coeff = g * v_power(shift + norm_exponent(m))
        if not coeff.is_zero():
            out[m] = coeff
    return out
