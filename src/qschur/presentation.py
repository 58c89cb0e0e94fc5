"""Generator presentation of the truncated quantized envelope.

Words in divided-power raising and lowering generators, invertible
torus generators, and torus binomial generators are realized inside
the direct sum of finite-rank algebras up to a degree bound.  Folding
is right to left, so every elementary product goes through a fast
structured path.  The module also checks the defining relations of
the presentation and builds the monomial family indexed by
(matrix, exponent vector, binomial vector) triples.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import DimensionMismatch, DomainError
from .hecke import DEFAULT_ORACLE_CAP
from .laurent import LaurentPoly, V, VINV, v_power, balanced_binomial
from .vectors import IntVector, compositions, unit_vector, boxes
from .matrices import (
    Matrix,
    entry_matrix,
    entry_sum,
    split_triangular,
    theta_pm,
    zero_matrix,
)
from .symbolic import (
    SymbolicElement,
    TruncatedElement,
    triangular_word,
)

__all__ = [
    "DividedRaise",
    "DividedLower",
    "TorusPower",
    "TorusBinom",
    "GeneratorWord",
    "generator_element",
    "realize_word",
    "check_relations",
    "PBWIndex",
    "pbw_word",
    "pbw_monomial",
    "pbw_family",
]


class DividedRaise(NamedTuple):
    """Divided power of the raising generator on row pair (h, h+1)."""

    h: int
    m: int


class DividedLower(NamedTuple):
    """Divided power of the lowering generator on row pair (h, h+1)."""

    h: int
    m: int


class TorusPower(NamedTuple):
    """Invertible torus generator for coordinate i, raised to sign s."""

    i: int
    s: int


class TorusBinom(NamedTuple):
    """Torus binomial generator of order t for coordinate i."""

    i: int
    t: int


GeneratorSymbol = Union[DividedRaise, DividedLower, TorusPower, TorusBinom]
GeneratorWord = tuple[GeneratorSymbol, ...]


def _symbol_key(sym: GeneratorSymbol, n: int):
    """Symbolic basis key (matrix, exponents, binomials) for one symbol."""
    if isinstance(sym, DividedRaise):
        if not (1 <= sym.h < n and sym.m >= 0):
            raise DomainError(f"raising symbol out of range: {sym}")
        a = entry_matrix(n, sym.h, sym.h + 1, sym.m)
        return a, (0,) * n, (0,) * n
    if isinstance(sym, DividedLower):
        if not (1 <= sym.h < n and sym.m >= 0):
            raise DomainError(f"lowering symbol out of range: {sym}")
        a = entry_matrix(n, sym.h + 1, sym.h, sym.m)
        return a, (0,) * n, (0,) * n
    if isinstance(sym, TorusPower):
        if not (1 <= sym.i <= n and sym.s in (1, -1)):
            raise DomainError(f"torus power out of range: {sym}")
        delta = tuple(sym.s * e for e in unit_vector(n, sym.i))
        return zero_matrix(n), delta, (0,) * n
    if isinstance(sym, TorusBinom):
        if not (1 <= sym.i <= n and sym.t >= 0):
            raise DomainError(f"torus binomial out of range: {sym}")
        lam = tuple(sym.t * e for e in unit_vector(n, sym.i))
        return zero_matrix(n), (0,) * n, lam
    raise DomainError(f"unknown generator symbol: {sym!r}")


def generator_element(sym: GeneratorSymbol, n: int) -> SymbolicElement:
    a, delta, lam = _symbol_key(sym, n)
    return SymbolicElement.gen(a, delta, lam)


def realize_word(
    word: GeneratorWord, n: int, r_max: int, cap: int = DEFAULT_ORACLE_CAP
) -> TruncatedElement:
    """Image of a generator word in the truncated algebra sum.

    The fold runs right to left, so the left factor of every product
    is a single elementary generator and the multiplication dispatches
    to a structured formula rather than the coset oracle.
    """
    acc = TruncatedElement.unit(n, r_max)
    for sym in reversed(word):
        gen = generator_element(sym, n).realize_truncated(r_max)
        acc = gen.multiply(acc, cap=cap)
    return acc


def _scaled(el: TruncatedElement, c: LaurentPoly) -> TruncatedElement:
    return el.scale(c)


def _relation_instance(name: str, i: int, j: int, ok: bool) -> dict:
    return {"relation": name, "i": i, "j": j, "ok": ok}


def check_relations(n: int, r_max: int, cap: int = DEFAULT_ORACLE_CAP) -> dict:
    """Verify the defining relations of the presentation degree by
    degree up to r_max.  Returns a report with one entry per checked
    instance; the commutator relation divides by (v - v^{-1}) exactly
    rather than comparing cleared forms."""
    if n < 2:
        raise DimensionMismatch("relations need n >= 2")
    E = lambda h, m=1: DividedRaise(h, m)
    F = lambda h, m=1: DividedLower(h, m)
    K = lambda i, s=1: TorusPower(i, s)
    rw = lambda word: realize_word(tuple(word), n, r_max, cap)
    v_minus_vinv = V - VINV

    checks: list[dict] = []

    # torus generators commute and invert
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ok = rw([K(i), K(j)]) == rw([K(j), K(i)])
            checks.append(_relation_instance("torus-commute", i, j, ok))
    unit = TruncatedElement.unit(n, r_max)
    for i in range(1, n + 1):
        ok = rw([K(i), K(i, -1)]) == unit
        checks.append(_relation_instance("torus-inverse", i, i, ok))

    # torus conjugation rescales raising and lowering generators
    for i in range(1, n + 1):
        for j in range(1, n):
            ce = (1 if i == j else 0) - (1 if i == j + 1 else 0)
            ok = rw([K(i), E(j)]) == _scaled(rw([E(j), K(i)]), v_power(ce))
            checks.append(_relation_instance("torus-raise", i, j, ok))
            ok = rw([K(i), F(j)]) == _scaled(rw([F(j), K(i)]), v_power(-ce))
            checks.append(_relation_instance("torus-lower", i, j, ok))

    # distant raising (and lowering) generators commute
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) <= 1:
                continue
            ok = rw([E(i), E(j)]) == rw([E(j), E(i)])
            checks.append(_relation_instance("distant-raise", i, j, ok))
            ok = rw([F(i), F(j)]) == rw([F(j), F(i)])
            checks.append(_relation_instance("distant-lower", i, j, ok))

    # commutator of raising against lowering
    for i in range(1, n):
        for j in range(1, n):
            lhs = rw([E(i), F(j)]) - rw([F(j), E(i)])
            if i != j:
                ok = lhs == TruncatedElement.zero(n, r_max)
            else:
                kplus = rw([K(i), K(i + 1, -1)])
                kminus = rw([K(i, -1), K(i + 1)])
                ok = lhs == (kplus - kminus).scale_divexact(v_minus_vinv)
            checks.append(_relation_instance("commutator", i, j, ok))

    # quantum Serre relations for adjacent pairs
    two_bracket = V + VINV
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) != 1:
                continue
            lhs = (
                rw([E(i), E(i), E(j)])
                - _scaled(rw([E(i), E(j), E(i)]), two_bracket)
                + rw([E(j), E(i), E(i)])
            )
            ok = lhs == TruncatedElement.zero(n, r_max)
            checks.append(_relation_instance("serre-raise", i, j, ok))
            lhs = (
                rw([F(i), F(i), F(j)])
                - _scaled(rw([F(i), F(j), F(i)]), two_bracket)
                + rw([F(j), F(i), F(i)])
            )
            ok = lhs == TruncatedElement.zero(n, r_max)
            checks.append(_relation_instance("serre-lower", i, j, ok))

    # divided powers multiply with balanced binomial coefficients
    for h in range(1, n):
        for a in range(1, 4):
            for b in range(1, 4):
                coeff = balanced_binomial(a + b, a)
                ok = rw([E(h, a), E(h, b)]) == _scaled(rw([E(h, a + b)]), coeff)
                checks.append(_relation_instance("divided-raise", h, a * 10 + b, ok))
                ok = rw([F(h, a), F(h, b)]) == _scaled(rw([F(h, a + b)]), coeff)
                checks.append(_relation_instance("divided-lower", h, a * 10 + b, ok))

    failures = [c for c in checks if not c["ok"]]
    return {
        "n": n,
        "r_max": r_max,
        "instances": len(checks),
        "failures": failures,
        "ok": not failures,
    }


class PBWIndex(NamedTuple):
    """Index triple for a monomial in the triangular generator order."""

    matrix: Matrix
    delta: IntVector
    lam: IntVector


def pbw_word(idx: PBWIndex) -> GeneratorWord:
    """Generator word for the monomial at idx: divided raising powers
    for the upper part, torus powers and binomials in the middle,
    divided lowering powers for the lower part."""
    a = idx.matrix
    n = len(a)
    if len(idx.delta) != n or len(idx.lam) != n:
        raise DimensionMismatch("index vectors must match matrix size")
    upper, lower = split_triangular(a)
    word: list[GeneratorSymbol] = []
    for _kind, h, m in triangular_word(upper):
        word.append(DividedRaise(h, m))
    for i in range(1, n + 1):
        d = idx.delta[i - 1]
        s = 1 if d > 0 else -1
        for _ in range(abs(d)):
            word.append(TorusPower(i, s))
        if idx.lam[i - 1] > 0:
            word.append(TorusBinom(i, idx.lam[i - 1]))
    for _kind, h, m in triangular_word(lower):
        word.append(DividedLower(h, m))
    return tuple(word)


def pbw_monomial(
    idx: PBWIndex, r_max: int, cap: int = DEFAULT_ORACLE_CAP
) -> TruncatedElement:
    return realize_word(pbw_word(idx), len(idx.matrix), r_max, cap)


def pbw_family(n: int, bound: int) -> list[PBWIndex]:
    """All index triples with total matrix weight plus binomial weight
    at most the bound and exponent vector entries in {0, 1}."""
    out: list[PBWIndex] = []
    for a in theta_pm(n, bound):
        lam_budget = bound - entry_sum(a)
        for ls in range(lam_budget + 1):
            for lam in compositions(n, ls):
                for delta in boxes(0, 1, n):
                    out.append(PBWIndex(a, delta, lam))
    return out
