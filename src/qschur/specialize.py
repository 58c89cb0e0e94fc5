"""Root-of-unity specialization of truncated elements.

Coefficients move from the Laurent ring to the cyclotomic field of odd
order l by evaluating v at a primitive l-th root of unity.  Products
of specialized elements are computed through the integral structure
constants and then evaluated, so specialization is a ring homomorphism
by construction and the tests can verify it as one.  The module also
checks the degeneration that makes the torus generators l-torsion and
builds the basis family of specialized products used by the
independence witness.
"""

from __future__ import annotations

from .errors import DomainError
from .cyclo import eval_at_root
from .vectors import IntVector, unit_vector, compositions
from .matrices import Matrix, theta_pm, entry_sum, zero_matrix
from .hecke import DEFAULT_ORACLE_CAP
from .schur import SchurElement
from .symbolic import SymbolicElement, TruncatedElement
from . import linalg

__all__ = [
    "specialize",
    "check_torus_power_trivial",
    "bk_indices",
    "bk_family",
    "bk_independence",
]


def _require_odd(l: int) -> None:
    if l < 1 or l % 2 == 0:
        raise DomainError(f"specialization order must be odd and positive, got {l}")


def specialize(x: TruncatedElement, l: int) -> TruncatedElement:
    """Coefficientwise evaluation of a truncated element at the
    primitive root of unity of odd order l: the same element type,
    with `CycloScalar` coefficients."""
    _require_odd(l)
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
    _require_odd(l)
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


def bk_member(
    a: Matrix, lam: IntVector, l: int, r_max: int, cap: int = DEFAULT_ORACLE_CAP
) -> TruncatedElement:
    """Specialized product of a matrix element with zero torus part and
    the torus element with opposite exponent and binomial vector lam."""
    n = len(a)
    left = SymbolicElement.gen(a, (0,) * n, (0,) * n).realize_truncated(r_max)
    neg = tuple(-x for x in lam)
    right = SymbolicElement.gen(zero_matrix(n), neg, lam).realize_truncated(r_max)
    return specialize(left.multiply(right, cap=cap), l)


def bk_family(
    n: int, bound: int, l: int, r_max: int, cap: int = DEFAULT_ORACLE_CAP
) -> list[TruncatedElement]:
    return [bk_member(a, lam, l, r_max, cap) for a, lam in bk_indices(n, bound)]


def bk_independence(
    n: int, bound: int, l: int, r_max: int, cap: int = DEFAULT_ORACLE_CAP
) -> dict:
    """Exact rank of the specialized family over the cyclotomic field.

    Independence at a finite truncation is a witness for the basis
    statement at this scale, not a proof of it.
    """
    family = bk_family(n, bound, l, r_max, cap)
    rows, cols = linalg.flatten_family(family)
    rank = linalg.exact_rank(rows)
    return {
        "n": n,
        "bound": bound,
        "l": l,
        "r_max": r_max,
        "rows": len(rows),
        "columns": cols,
        "rank": rank,
        "independent": rank == len(rows),
        "note": "truncation witness, not a proof",
    }
