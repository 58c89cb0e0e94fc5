"""Generator presentation of the truncated quantized envelope.

A generator word is a tuple of symbolic keys, one per letter: divided
raising and lowering powers are the transfer keys (m E_{h,h+1}; 0, 0)
and (m E_{h+1,h}; 0, 0), the invertible torus generators are
(0; +-e_i, 0) and the torus binomials of order t are (0; 0, t e_i).
Words are realized inside the direct sum of finite-rank algebras up to
a degree bound.  Folding is right to left, so every elementary product
goes through a fast structured path.  The module also checks the
defining relations of the presentation and builds the monomial family
indexed by (matrix, exponent vector, binomial vector) keys.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .laurent import V, VINV, v_power, balanced_binomial
from .vectors import unit_vector, boxes
from .matrices import entry_matrix, split_triangular, zero_matrix
from .specialize import bk_indices
from .symbolic import (
    GeneratorWord,
    SymbolicElement,
    SymbolicKey,
    TruncatedElement,
    _generator_rule,
    triangular_word,
)

__all__ = [
    "realize_word",
    "check_relations",
    "pbw_word",
    "pbw_monomial",
    "pbw_family",
]


def realize_word(word: GeneratorWord, n: int, r_max: int) -> TruncatedElement:
    """Image of a generator word in the truncated algebra sum.

    The fold runs right to left, so the left factor of every product
    is a single elementary generator and the multiplication dispatches
    to a structured formula rather than the coset oracle.  The empty
    word is the unit.  A key that is not one generator raises
    DomainError; one of another size than n raises DimensionMismatch.
    """
    acc = None
    for key in reversed(word):
        _generator_rule(key, n)
        gen = SymbolicElement.gen(*key).realize_truncated(r_max)
        acc = gen if acc is None else gen.multiply(acc)
    return TruncatedElement.unit(n, r_max) if acc is None else acc


def check_relations(n: int, r_max: int) -> dict:
    """Verify the defining relations of the presentation degree by
    degree up to r_max.  Returns a report with one entry per checked
    instance; the commutator relation divides by (v - v^{-1}) exactly
    rather than comparing cleared forms.  The relations that come in
    raising/lowering pairs are written once, for X = E and X = F."""
    if n < 2:
        raise DimensionMismatch("relations need n >= 2")
    z = (0,) * n
    E = lambda h, m=1: (entry_matrix(n, h, h + 1, m), z, z)
    F = lambda h, m=1: (entry_matrix(n, h + 1, h, m), z, z)
    K = lambda i, s=1: (zero_matrix(n), tuple(s * e for e in unit_vector(n, i)), z)
    rw = lambda word: realize_word(tuple(word), n, r_max)
    zero = TruncatedElement.zero(n, r_max)
    v_minus_vinv = V - VINV
    two_bracket = V + VINV

    checks: list[dict] = []

    def check(name: str, i: int, j: int, ok: bool) -> None:
        checks.append({"relation": name, "i": i, "j": j, "ok": ok})

    # torus generators commute and invert
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            check("torus-commute", i, j, rw([K(i), K(j)]) == rw([K(j), K(i)]))
    unit = TruncatedElement.unit(n, r_max)
    for i in range(1, n + 1):
        check("torus-inverse", i, i, rw([K(i), K(i, -1)]) == unit)

    # commutator of raising against lowering
    for i in range(1, n):
        for j in range(1, n):
            lhs = rw([E(i), F(j)]) - rw([F(j), E(i)])
            if i != j:
                ok = lhs == zero
            else:
                kplus = rw([K(i), K(i + 1, -1)])
                kminus = rw([K(i, -1), K(i + 1)])
                ok = lhs == (kplus - kminus).scale_divexact(v_minus_vinv)
            check("commutator", i, j, ok)

    for kind, X, s in (("raise", E, 1), ("lower", F, -1)):
        # torus conjugation rescales the generator, F by the inverse power
        for i in range(1, n + 1):
            for j in range(1, n):
                ce = (1 if i == j else 0) - (1 if i == j + 1 else 0)
                ok = rw([K(i), X(j)]) == rw([X(j), K(i)]).scale(v_power(s * ce))
                check(f"torus-{kind}", i, j, ok)

        # distant generators commute; adjacent ones satisfy quantum Serre
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) > 1:
                    check(f"distant-{kind}", i, j, rw([X(i), X(j)]) == rw([X(j), X(i)]))
                elif abs(i - j) == 1:
                    lhs = (
                        rw([X(i), X(i), X(j)])
                        - rw([X(i), X(j), X(i)]).scale(two_bracket)
                        + rw([X(j), X(i), X(i)])
                    )
                    check(f"serre-{kind}", i, j, lhs == zero)

        # divided powers multiply with balanced binomial coefficients
        for h in range(1, n):
            for a in range(1, 4):
                for b in range(1, 4):
                    coeff = balanced_binomial(a + b, a)
                    ok = rw([X(h, a), X(h, b)]) == rw([X(h, a + b)]).scale(coeff)
                    check(f"divided-{kind}", h, a * 10 + b, ok)

    failures = [c for c in checks if not c["ok"]]
    return {
        "n": n,
        "r_max": r_max,
        "instances": len(checks),
        "failures": failures,
        "ok": not failures,
    }


def pbw_word(key: SymbolicKey) -> GeneratorWord:
    """Generator word for the monomial at key (A; delta, lam): divided
    raising powers for the upper part of A, then for each coordinate i
    |delta_i| torus powers and one binomial of order lam_i, then divided
    lowering powers for the lower part of A."""
    a, delta, lam = key
    n = len(a)
    if len(delta) != n or len(lam) != n:
        raise DimensionMismatch("index vectors must match matrix size")
    upper, lower = split_triangular(a)
    zero, z = zero_matrix(n), (0,) * n
    middle: list[SymbolicKey] = []
    for i in range(1, n + 1):
        e = unit_vector(n, i)
        d, t = delta[i - 1], lam[i - 1]
        sign = 1 if d > 0 else -1
        middle += [(zero, tuple(sign * x for x in e), z)] * abs(d)
        if t > 0:
            middle.append((zero, z, tuple(t * x for x in e)))
    return triangular_word(upper) + tuple(middle) + triangular_word(lower)


def pbw_monomial(key: SymbolicKey, r_max: int) -> TruncatedElement:
    return realize_word(pbw_word(key), len(key[0]), r_max)


def pbw_family(n: int, bound: int) -> list[SymbolicKey]:
    """All keys with total matrix weight plus binomial weight at most
    the bound and exponent vector entries in {0, 1}."""
    return [(a, delta, lam) for a, lam in bk_indices(n, bound) for delta in boxes(0, 1, n)]
