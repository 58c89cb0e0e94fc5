"""Exact rank and independence certificates for families of truncated
elements.

Independence over the Laurent field is certified by evaluating every
coefficient at a nonzero rational point: evaluation can only lower the
rank, so full row rank at a single point already proves independence.
Dependence is certified by an exact kernel vector whose coordinates
are Laurent polynomials of bounded degree, found by solving an integer
linear system in the unknown coefficients and verified by direct
substitution.  The degree bound is deepened until the two certificates
meet: the best evaluation rank from below, the kernel dimension from
above.  Deepening is complete once the bound reaches the total degree
spread of the rows, the degree any minor of the matrix can reach.
One fraction-free elimination ranks rows over Z and over Z[eps], where
the specialized families live, so neither ring needs an inverse.
"""

from __future__ import annotations

from math import gcd
from numbers import Rational

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

DEFAULT_POINTS = (2, 3, 5, 7)

SparseRow = dict[int, LaurentPoly]
IntRow = dict[int, int]


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


def _eliminate(rows: list[dict], want_kernel: bool = False) -> tuple[int, list[dict[int, int]]]:
    """Fraction-free elimination on sparse rows over Z or Z[eps]: a row
    meeting a pivot row at its leading column becomes p*row - f*pivot,
    with p and f their entries there, which keeps the row space without
    dividing.  With want_kernel (integer rows), row i carries a 1 in
    column end + i, past every column of the rows, so a row reduced to
    zero there holds its combination of the original rows: a left
    kernel vector."""
    end = max((c for row in rows for c in row), default=-1) + 1
    pivots: dict[int, dict] = {}
    kernel: list[dict[int, int]] = []
    for i, row in enumerate(rows):
        cur = {c: val for c, val in row.items() if val}
        if want_kernel:
            cur[end + i] = 1
        while cur:
            col = min(cur)
            if col >= end:
                kernel.append({c - end: val for c, val in cur.items()})
                break
            if col not in pivots:
                pivots[col] = cur
                break
            prow = pivots[col]
            p, f = prow[col], cur[col]
            # p*f - f*p clears the leading column with the others
            nxt = {c: p * val for c, val in cur.items()}
            for c, val in prow.items():
                s = nxt.get(c)
                s = -(f * val) if s is None else s - f * val
                if s:
                    nxt[c] = s
                else:
                    nxt.pop(c, None)
            cur = _primitive(nxt)
    return len(pivots), kernel


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries; a row over
    Z[eps] is returned as it is."""
    if row and type(next(iter(row.values()))) is int and (g := gcd(*row.values())) > 1:
        return {c: val // g for c, val in row.items()}
    return row


def exact_rank(rows: list[dict]) -> int:
    """Rank of sparse rows over Z or Z[eps], by direct elimination."""
    return _eliminate(rows)[0]


def _eval_rows(rows: list[SparseRow], x: Rational) -> list[IntRow]:
    """The rows evaluated at x = a/b, each scaled by a^(-lo) b^(hi), with
    lo and hi its least and greatest exponent, onto integers."""
    out = []
    for row in rows:
        lo = min((p.min_exp() for p in row.values()), default=0)
        scale = x.denominator ** (max((p.max_exp() for p in row.values()), default=0) - lo)
        shifted = ((col, p.shift(-lo).evaluate(x) * scale) for col, p in row.items())
        out.append({col: val.numerator for col, val in shifted if val})
    return out


def rank_at_point(rows: list[SparseRow], x: Rational) -> int:
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


def _normalize_combo(combo: dict[int, int], m: int, depth: int) -> list[LaurentPoly]:
    """Turn an integer solution over unknowns (i, d) into a vector of
    primitive integer Laurent polynomials, one per original row, signed
    so that its last nonzero unknown is positive."""
    g = gcd(*combo.values())
    g = g if combo[max(combo)] > 0 else -g
    return [
        LaurentPoly({d: combo.get(i * (depth + 1) + d, 0) // g for d in range(depth + 1)})
        for i in range(m)
    ]


def poly_kernel(rows: list[SparseRow], depth: int) -> list[list[LaurentPoly]]:
    """Kernel vectors whose coordinates are polynomials in v of degree
    at most depth (a global v shift costs nothing, so nonnegative
    exponents lose no generality).  Each coordinate of each row
    contributes to one integer equation per resulting v exponent; the
    left kernel of the transposed coefficient system yields the
    certificates, which are verified by substitution before return.
    """
    m = len(rows)
    unknown_rows: list[IntRow] = []
    eq_index: dict[tuple[int, int], int] = {}
    for i in range(m):
        for d in range(depth + 1):
            entries: IntRow = {}
            for col, p in rows[i].items():
                for e, a in p.to_pairs():
                    eq = eq_index.setdefault((col, e + d), len(eq_index))
                    entries[eq] = entries.get(eq, 0) + a
            unknown_rows.append(entries)
    _, kernel = _eliminate(unknown_rows, want_kernel=True)
    out = []
    for combo in kernel:
        polys = _normalize_combo(combo, m, depth)
        if not _verify_kernel(rows, polys):
            raise ConsistencyError("bounded degree kernel failed substitution")
        out.append(polys)
    return out


def _best_rank(rows: list[SparseRow]) -> tuple[int, int | None]:
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
