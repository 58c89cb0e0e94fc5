"""Root-of-unity specialization of truncated elements.

Coefficients move from the Laurent ring to the cyclotomic field of odd
order l by evaluating v at a primitive l-th root of unity.  Products
of specialized elements are computed through the integral structure
constants and then evaluated, so specialization is a ring homomorphism
by construction and the tests can verify it as one.  The module also
checks the degeneration that makes the torus generators l-torsion and
builds the basis family of products whose specialization the
independence witness ranks.
"""

from __future__ import annotations

from .errors import DomainError
from .cyclo import _check_odd, eval_at_root
from .vectors import IntVector, unit_vector, compositions
from .matrices import Matrix, theta_pm, entry_sum, zero_matrix
from .schur import SchurElement
from .symbolic import SymbolicElement, TruncatedElement
from . import linalg

__all__ = [
    "specialize",
    "check_torus_power_trivial",
    "bk_indices",
    "bk_products",
    "bk_independence",
]


def specialize(x: TruncatedElement, l: int) -> TruncatedElement:
    """Coefficientwise evaluation of a truncated element at the
    primitive root of unity of odd order l: the same element type,
    with `CycloScalar` coefficients."""
    # eval_at_root checks l too, but an element without terms never calls it
    _check_odd(l)
    return TruncatedElement(
        x.n,
        x.r_max,
        tuple(
            SchurElement(c.n, c.r, {a: eval_at_root(p, l) for a, p in c.terms.items()})
            for c in x.components
        ),
    )


def check_torus_power_trivial(i: int, l: int, n: int, r_max: int) -> dict:
    """The l-th power of an invertible torus generator specializes to
    the unit: its image is the diagonal sum with coefficients at v
    exponents l*mu_i, all of which evaluate to 1."""
    if not 1 <= i <= n:
        raise DomainError(f"torus index {i} out of range for n={n}")
    delta = tuple(l * e for e in unit_vector(n, i))
    power = SymbolicElement.gen(zero_matrix(n), delta, (0,) * n).realize_truncated(r_max)
    ok = specialize(power, l) == specialize(TruncatedElement.unit(n, r_max), l)
    return {"i": i, "l": l, "n": n, "r_max": r_max, "ok": ok}


def bk_indices(n: int, bound: int) -> list[tuple[Matrix, IntVector]]:
    """Index pairs (A, lam) with total weight at most the bound."""
    out = []
    for a in theta_pm(n, bound):
        for ls in range(bound - entry_sum(a) + 1):
            for lam in compositions(n, ls):
                out.append((a, lam))
    return out


def bk_products(n: int, bound: int, r_max: int) -> list[TruncatedElement]:
    """For each index pair (A, lam), the unspecialized product of the
    matrix element (A; 0, 0) and the torus element (0; -lam, lam).
    The right factor's matrices are diagonal, so the product never
    reaches the coset oracle."""
    zero, z = zero_matrix(n), (0,) * n
    return [
        SymbolicElement.gen(a, z, z)
        .realize_truncated(r_max)
        .multiply(
            SymbolicElement.gen(zero, tuple(-x for x in lam), lam).realize_truncated(r_max)
        )
        for a, lam in bk_indices(n, bound)
    ]


def bk_independence(products: list[TruncatedElement], l: int) -> dict:
    """Exact rank of the products specialized at the root of order l,
    over the cyclotomic field.

    Independence at a finite truncation is a witness for the basis
    statement at this scale, not a proof of it.
    """
    rows, cols = linalg.flatten_family([specialize(x, l) for x in products])
    rank = linalg.exact_rank(rows)
    return {
        "l": l,
        "rows": len(rows),
        "columns": cols,
        "rank": rank,
        "independent": rank == len(rows),
        "note": "truncation witness, not a proof",
    }
