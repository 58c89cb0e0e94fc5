"""Exact rank and independence certificates for families of truncated
elements.

Independence over the Laurent field is certified by evaluating every
coefficient at a nonzero rational point: evaluation can only lower the
rank, so full row rank at a single point already proves independence.
Dependence is certified by an exact kernel vector whose coordinates
are Laurent polynomials of bounded degree, found by solving a rational
linear system in the unknown coefficients and verified by direct
substitution.  The degree bound is deepened until the two certificates
meet: the best evaluation rank from below, the kernel dimension from
above.  Deepening is complete once the bound reaches the total degree
spread of the rows, the degree any minor of the matrix can reach.
The same elimination ranks rows over a cyclotomic field, where the
specialized families live.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ConsistencyError
from .laurent import LaurentPoly, ZERO

__all__ = [
    "flatten_family",
    "rank_at_point",
    "evaluation_rank",
    "poly_kernel",
    "independence_verdict",
    "exact_rank",
]

DEFAULT_POINTS = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))

SparseRow = dict[int, LaurentPoly]
FractionRow = dict[int, Fraction]


def flatten_family(elements) -> tuple[list[SparseRow], int]:
    """Rows of coefficients over a common coordinate basis indexed by
    (degree, basis matrix) pairs encountered in the family."""
    index: dict[tuple[int, tuple], int] = {}
    rows: list[SparseRow] = []
    for el in elements:
        row: SparseRow = {}
        for comp in el.components:
            for a, c in comp.terms.items():
                key = (comp.r, a)
                col = index.setdefault(key, len(index))
                row[col] = c
        rows.append(row)
    return rows, len(index)


def _eliminate(
    rows: list[dict], want_kernel: bool = False
) -> tuple[int, list[list[Fraction]]]:
    """Gaussian elimination on sparse rows over an exact field (the
    rationals, or a cyclotomic field).  With want_kernel, which needs
    rational rows, every row that reduces to zero is reported as a
    combination of the original rows (a left kernel basis)."""
    m = len(rows)
    pivots: dict[int, tuple[dict, list[Fraction]]] = {}
    kernel: list[list[Fraction]] = []
    for i, row in enumerate(rows):
        cur = {c: val for c, val in row.items() if val}
        combo = [Fraction(0)] * m if want_kernel else []
        if want_kernel:
            combo[i] = Fraction(1)
        while cur:
            col = min(cur)
            if col not in pivots:
                pivots[col] = (cur, combo)
                break
            prow, pcombo = pivots[col]
            factor = cur[col] / prow[col]
            nxt = {c: val for c, val in cur.items() if c != col}
            for c, val in prow.items():
                if c == col:
                    continue
                s = nxt.get(c)
                s = -(factor * val) if s is None else s - factor * val
                if s:
                    nxt[c] = s
                else:
                    nxt.pop(c, None)
            if want_kernel:
                combo = [ck - factor * pk for ck, pk in zip(combo, pcombo)]
            cur = nxt
        if not cur and want_kernel:
            kernel.append(combo)
    return len(pivots), kernel


def exact_rank(rows: list[dict]) -> int:
    """Rank of sparse rows over an exact field, by direct elimination."""
    return _eliminate(rows)[0]


def _eval_rows(rows: list[SparseRow], x: Fraction) -> list[FractionRow]:
    return [
        {col: val for col, p in row.items() if (val := p.evaluate(x))}
        for row in rows
    ]


def rank_at_point(rows: list[SparseRow], x: Fraction) -> int:
    return exact_rank(_eval_rows(rows, x))


def _verify_kernel(rows: list[SparseRow], combo: list[LaurentPoly]) -> bool:
    cols: set[int] = set()
    for c, row in zip(combo, rows):
        if not c.is_zero():
            cols.update(row.keys())
    for col in cols:
        total = ZERO
        for c, row in zip(combo, rows):
            if not c.is_zero() and col in row:
                total = total + row[col] * c
        if not total.is_zero():
            return False
    return True


def _normalize_combo(combo: list[Fraction], depth: int) -> list[LaurentPoly]:
    """Turn a rational solution over unknowns (i, d) into a vector of
    primitive integer Laurent polynomials, one per original row."""
    den = lcm(*(c.denominator for c in combo))
    ints = [int(c * den) for c in combo]
    g = gcd(*ints)
    return [
        LaurentPoly({d: c // g for d, c in enumerate(ints[i : i + depth + 1])})
        for i in range(0, len(ints), depth + 1)
    ]


def poly_kernel(rows: list[SparseRow], depth: int) -> list[list[LaurentPoly]]:
    """Kernel vectors whose coordinates are polynomials in v of degree
    at most depth (a global v shift costs nothing, so nonnegative
    exponents lose no generality).  Each coordinate of each row
    contributes to one rational equation per resulting v exponent; the
    left kernel of the transposed coefficient system yields the
    certificates, which are verified by substitution before return.
    """
    m = len(rows)
    unknown_rows: list[FractionRow] = []
    eq_index: dict[tuple[int, int], int] = {}
    for i in range(m):
        for d in range(depth + 1):
            entries: FractionRow = {}
            for col, p in rows[i].items():
                for e, a in p.to_pairs():
                    eq = eq_index.setdefault((col, e + d), len(eq_index))
                    entries[eq] = entries.get(eq, Fraction(0)) + a
            unknown_rows.append(entries)
    _, kernel = _eliminate(unknown_rows, want_kernel=True)
    out = []
    for combo in kernel:
        polys = _normalize_combo(combo, depth)
        if not _verify_kernel(rows, polys):
            raise ConsistencyError("bounded degree kernel failed substitution")
        out.append(polys)
    return out


def _best_rank(rows: list[SparseRow]) -> tuple[int, Fraction | None]:
    """The best rank of the rows evaluated at the points 2, 3, 5, 7, and
    the first point where it is the row count (None if there is none)."""
    best = 0
    for x in DEFAULT_POINTS:
        best = max(best, rank_at_point(rows, x))
        if best == len(rows):
            return best, x
    return best, None


def evaluation_rank(rows: list[SparseRow]) -> int:
    """The best rank of the rows evaluated at the points 2, 3, 5, 7: a
    lower bound for their rank over the Laurent field, reached at the
    first point where it is the row count."""
    return _best_rank(rows)[0]


def _kernel_rank_bound(kernel: list[list[LaurentPoly]]) -> int:
    """Lower bound for the rank of the kernel vectors over the Laurent
    field, by evaluation.  Any lower bound here is an upper bound on
    the rank of the original rows."""
    return evaluation_rank(
        [{i: c for i, c in enumerate(combo) if not c.is_zero()} for combo in kernel]
    )


def _degree_spread(rows: list[SparseRow]) -> int:
    total = 0
    for row in rows:
        if row:
            total += max(p.max_exp() for p in row.values()) - min(
                p.min_exp() for p in row.values()
            )
    return total


def independence_verdict(rows: list[SparseRow]) -> dict:
    """Decide linear independence of the rows over the Laurent field.

    The result records the certificate: the evaluation point for an
    independent family, or a substitution-checked kernel basis (as
    exponent and coefficient pairs) for a dependent one.
    """
    if not rows:
        return {"independent": True, "rank": 0, "rows": 0, "certified_at": None}
    best, x = _best_rank(rows)
    if x is not None:
        return {"independent": True, "rank": best, "rows": len(rows), "certified_at": str(x)}
    limit = _degree_spread(rows)
    depth = 0
    while True:
        kernel = poly_kernel(rows, depth)
        if kernel and best == len(rows) - _kernel_rank_bound(kernel):
            return {
                "independent": False,
                "rank": best,
                "rows": len(rows),
                "certified_at": f"degree {depth}",
                "kernel": [[c.to_pairs() for c in combo] for combo in kernel],
            }
        if depth >= limit:
            break
        depth = min(limit, max(1, depth * 2))
    raise ConsistencyError(
        "rank deficit under evaluation but no bounded degree kernel "
        "closed the gap; more evaluation points are needed"
    )
