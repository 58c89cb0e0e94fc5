"""Seeded inputs for the four benchmark workloads.

Everything here is plain Python: the generators return lists of
JSON-ready operations (ints, lists, strings) and never import qschur,
so making inputs costs the program under test nothing and the library
only ever receives what a user could hand it.

The seed moves only the input properties that do not change how much
work an operation does (exponent vectors, coefficient signs and
exponents, the column order of generic matrices, the config seed of the
suites whose cost does not depend on it).  The properties that set
the cost (margins and the multiset of matrix entries, degrees, transfer
amounts, binomial depths) follow a fixed schedule, so runs with
different seeds measure the same amount of work and their spread is
mostly machine noise.
"""

from __future__ import annotations

import json
import random
from itertools import product

WORKLOADS = ("formula-box", "degree-sweep", "oracle", "suite-sweep")

# The acceptance config's seed, see scripts/run_acceptance.py.
ACCEPTANCE_SEED = 20260816


# -- enumeration helpers, mirroring qschur.vectors / qschur.matrices -----------


def compositions(n: int, r: int) -> list[tuple[int, ...]]:
    """All ways to write r as n ordered naturals, lex ascending."""
    if n == 1:
        return [(r,)]
    return [(first,) + rest for first in range(r + 1) for rest in compositions(n - 1, r - first)]


def boxes(lo: int, hi: int, n: int) -> list[tuple[int, ...]]:
    return list(product(range(lo, hi + 1), repeat=n))


def theta_pm(n: int, max_total: int) -> list[list[list[int]]]:
    """Zero-diagonal natural matrices of entry sum <= max_total, in the
    order the formula suites enumerate them."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for total in range(max_total + 1):
        for flat in compositions(len(slots), total):
            rows = [[0] * n for _ in range(n)]
            for (i, j), x in zip(slots, flat):
                rows[i][j] = x
            out.append(rows)
    return out


# -- formula-box ---------------------------------------------------------------

# Rank-3 exponent slices of the formula cores (qschur.suites).
F1_GAMMA_3 = [(0, 0, 0), (1, -2, 1)]
F1_DELTA_3 = [(0, 0, 0), (-1, 2, -2), (2, 1, 0)]
F2_DELTA_3 = list(product((-2, 0, 2), repeat=3))

# Fixed windows (start, length) of the cost-setting matrix axis; the
# seed picks the gamma and delta windows, which only shift exponents.
F1_A_WINDOW = {2: (0, 6), 3: (5, 4)}
F2_A_WINDOW = {2: (0, 6), 3: (5, 10)}
F1_DELTA_LEN = {2: 4, 3: 1}
F2_DELTA_LEN = {2: 4, 3: 1}
# Leading instances of each sub-box that are checked a second time
# against the pure coset engine, as the suites' :oracle strata do.
ORACLE_HANDFUL = 3


def _formula1_axes(n: int):
    if n == 2:
        vecs = boxes(-2, 2, 2)
        return vecs, boxes(0, 2, 2), vecs, boxes(0, 2, 2)
    return F1_GAMMA_3, boxes(0, 2, 3), F1_DELTA_3, boxes(0, 2, 3)


def _formula2_axes(n: int):
    if n == 2:
        return boxes(-2, 2, 2), boxes(0, 2, 2)
    return F2_DELTA_3, boxes(0, 2, 3)


def formula1_box(n: int, rng: random.Random) -> list[list]:
    """A dense sub-box of the formula1 core in suite order."""
    gammas, mus, deltas, lams = _formula1_axes(n)
    g0 = rng.randrange(len(gammas))
    dlen = F1_DELTA_LEN[n]
    d0 = rng.randrange(len(deltas) - dlen + 1)
    a0, alen = F1_A_WINDOW[n]
    return [
        [list(gamma), list(mu), a, list(delta), list(lam)]
        for a in theta_pm(n, 2)[a0 : a0 + alen]
        for gamma in gammas[g0 : g0 + 1]
        for mu in mus
        for delta in deltas[d0 : d0 + dlen]
        for lam in lams
    ]


def formula2_box(n: int, rng: random.Random) -> list[list]:
    """A dense sub-box of the formula2 core in suite order."""
    deltas, lams = _formula2_axes(n)
    dlen = F2_DELTA_LEN[n]
    d0 = rng.randrange(len(deltas) - dlen + 1)
    a0, alen = F2_A_WINDOW[n]
    out = []
    for a in theta_pm(n, 2)[a0 : a0 + alen]:
        for delta in deltas[d0 : d0 + dlen]:
            for lam in lams:
                for h in range(1, n):
                    for m in (1, 2):
                        out.append(["E", m, h, a, list(delta), list(lam)])
                        out.append(["F", m, h, a, list(delta), list(lam)])
    return out


def formula_box_ops(seed: int) -> list[dict]:
    rng = random.Random(f"{seed}:formula-box")
    ops = []
    for suite, make in (("formula1", formula1_box), ("formula2", formula2_box)):
        for n in (2, 3):
            box = make(n, rng)
            ops.extend({"suite": suite, "n": n, "inst": inst, "engine": "fast"} for inst in box)
            ops.extend(
                {"suite": suite, "n": n, "inst": inst, "engine": "oracle"}
                for inst in box[:ORACLE_HANDFUL]
            )
    return ops


# -- shared element helpers ----------------------------------------------------


def _coeff(rng: random.Random, terms: int) -> list[list[int]]:
    """A Laurent coefficient with `terms` terms three exponents apart,
    so products with it always have the same number of terms."""
    e0 = rng.randint(-4, 0)
    return [[e0 + 3 * k, rng.choice((-2, -1, 1, 2))] for k in range(terms)]


def _transfer_matrix(kind: str, h: int, m: int, cols: list[int]) -> list[list[int]]:
    """The basis matrix m E_{h,h+1} (kind E) or m E_{h+1,h} (kind F)
    plus the diagonal that makes its column sums equal `cols`."""
    n = len(cols)
    src = h if kind == "E" else h - 1  # 0-based column of the moved entry
    dst = h - 1 if kind == "E" else h  # 0-based row of the moved entry
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = cols[i]
    rows[src][src] -= m
    rows[dst][src] += m
    return rows


def _element(n: int, r: int, terms: list[tuple[list, list]]) -> str:
    """JSON text of a fixed-degree element, as `qschur multiply` reads it."""
    return json.dumps({"n": n, "r": r, "terms": [{"matrix": a, "coeff": c} for a, c in terms]})


def _permute_columns(rng: random.Random, a: list[list[int]]) -> list[list[int]]:
    """Apply one seeded permutation to the columns of every row: the row
    sums (which decide the product's route) and the multiset of column
    profiles (which decides its cost) stay fixed."""
    perm = list(range(len(a)))
    rng.shuffle(perm)
    return [[row[p] for p in perm] for row in a]


def _tables(rows: tuple[int, ...], cols: tuple[int, ...]) -> list[list[list[int]]]:
    """Every natural matrix with the given row and column sums, in lex
    order of its rows."""
    if len(rows) == 1:
        return [[list(cols)]]
    out = []
    for first in compositions(len(cols), rows[0]):
        if all(x <= c for x, c in zip(first, cols)):
            rest = tuple(c - x for c, x in zip(cols, first))
            out.extend([list(first), *tail] for tail in _tables(rows[1:], rest))
    return out


# -- degree-sweep --------------------------------------------------------------

# (n, r, h, m_y, m_x): each row makes two requests, one per generator
# kind (E raises, F lowers).  A request multiplies x.(y.z) and (x.y).z
# where x, y transfer m_x, m_y units by the same generator and z is a
# generic element; the two associations must agree.
DEGREE_SCHEDULE = (
    (2, 40, 1, 5, 4),
    (2, 70, 1, 5, 4),
    (2, 100, 1, 5, 4),
    (2, 120, 1, 5, 4),
    (3, 40, 1, 4, 3),
    (3, 60, 2, 4, 3),
    (3, 80, 2, 4, 3),
    (3, 100, 1, 4, 3),
)
# (n, r, binomial depths): realize a seeded symbolic element with two
# keys of off-diagonal weight 1 at a large degree.
REALIZE_SCHEDULE = (((2, 120), (1, 2)), ((3, 40), (2, 1, 1)))
Z_TERMS = 2


def _profile(n: int, r: int, shift: int) -> list[list[int]]:
    """A near-uniform matrix of entry sum r; `shift` rotates where the
    remainder lands so that the z terms can have distinct row sums."""
    base, rem = divmod(r, n * n)
    flat = [base + (1 if (k + shift) % (n * n) < rem else 0) for k in range(n * n)]
    return [flat[i * n : (i + 1) * n] for i in range(n)]


def degree_request(rng: random.Random, n, r, kind, h, m_y, m_x) -> dict:
    z_terms, y_terms, x_terms = [], [], []
    seen = set()
    for k in range(Z_TERMS):
        b = _permute_columns(rng, _profile(n, r, 3 * k))
        z_terms.append((b, _coeff(rng, 2)))
        lam = [sum(row) for row in b]
        if tuple(lam) in seen:
            continue
        seen.add(tuple(lam))
        y = _transfer_matrix(kind, h, m_y, lam)
        y_terms.append((y, _coeff(rng, 1)))
        mid = [sum(row) for row in y]
        x_terms.append((_transfer_matrix(kind, h, m_x, mid), _coeff(rng, 1)))
    return {
        "kind": "assoc",
        "n": n,
        "r": r,
        "x": _element(n, r, x_terms),
        "y": _element(n, r, y_terms),
        "z": _element(n, r, z_terms),
    }


def realize_request(rng: random.Random, n: int, r: int, lam: tuple[int, ...]) -> dict:
    weight_one = [a for a in theta_pm(n, 1) if any(map(any, a))]
    terms = [
        {
            "matrix": a,
            "delta": [rng.randint(-2, 2) for _ in range(n)],
            "lambda": list(lam),
            "coeff": _coeff(rng, 2),
        }
        for a in rng.sample(weight_one, 2)
    ]
    return {"kind": "realize", "n": n, "r": r, "element": json.dumps({"n": n, "terms": terms})}


def degree_sweep_ops(seed: int) -> list[dict]:
    rng = random.Random(f"{seed}:degree-sweep")
    ops = [
        degree_request(rng, n, r, kind, h, m_y, m_x)
        for n, r, h, m_y, m_x in DEGREE_SCHEDULE
        for kind in ("E", "F")
    ]
    ops.extend(realize_request(rng, n, r, lam) for (n, r), lam in REALIZE_SCHEDULE)
    return ops


# -- oracle --------------------------------------------------------------------

# (n, r, row sums of the right factor, its column sums, kind, h, m).
# The margins fix the coset tables the oracle enumerates, and the right
# factors are a fixed spread of the matrices with those margins, so every
# seed asks for the same oracle work; the seed sets the coefficients.
ORACLE_SCHEDULE = (
    (2, 5, (3, 2), (2, 3), "E", 1, 1),
    (2, 5, (2, 3), (3, 2), "F", 1, 1),
    (2, 6, (3, 3), (4, 2), "E", 1, 2),
    (2, 6, (4, 2), (3, 3), "F", 1, 1),
    (2, 7, (4, 3), (3, 4), "E", 1, 1),
    (2, 7, (4, 3), (4, 3), "F", 1, 1),
    (3, 5, (2, 2, 1), (1, 2, 2), "E", 2, 1),
    (3, 6, (2, 2, 2), (3, 2, 1), "F", 1, 1),
    (3, 6, (3, 2, 1), (2, 2, 2), "E", 1, 1),
    (3, 7, (3, 2, 2), (2, 3, 2), "F", 2, 1),
    (3, 7, (2, 2, 3), (3, 2, 2), "E", 2, 1),
)
PAIRS_PER_PROFILE = 5


def oracle_ops(seed: int) -> list[dict]:
    rng = random.Random(f"{seed}:oracle")
    ops = []
    for n, r, rows, cols, kind, h, m in ORACLE_SCHEDULE:
        left = _transfer_matrix(kind, h, m, list(rows))
        tables = _tables(rows, cols)
        step = max(1, len(tables) // PAIRS_PER_PROFILE)
        for k in range(PAIRS_PER_PROFILE):
            pair = (tables[k * step % len(tables)], tables[(k * step + len(tables) // 2) % len(tables)])
            right = [(b, _coeff(rng, 2)) for b in pair]
            ops.append(
                {
                    "n": n,
                    "r": r,
                    "left": _element(n, r, [(left, _coeff(rng, 1))]),
                    "right": _element(n, r, right),
                }
            )
    return ops


# -- suite-sweep ---------------------------------------------------------------

# The rows of scripts/run_acceptance.py that finish in seconds, with the
# instance count each report must show.  formula1 n=2, formula1 n=3 and
# formula2 n=3 take minutes and are left to formula-box.
SUITE_ROWS = (
    ("binomials", {"n": 2}, 9285),
    ("transfer-formulas", {"n": 2}, 224),
    ("transfer-formulas", {"n": 3}, 3432),
    ("formula2", {"n": 2}, 5612),
    ("relations", {"n": 2, "r_max": 5}, 26),
    ("relations", {"n": 3, "r_max": 5}, 62),
    ("triangular", {"n": 2}, 9),
    ("triangular", {"n": 3}, 83),
    ("pbw-independence", {"n": 2, "bound": 2}, 60),
    ("specialization", {"n": 2, "l": 1}, 25),
    ("specialization", {"n": 2, "l": 3}, 25),
    ("specialization", {"n": 3, "l": 1}, 66),
    ("specialization", {"n": 3, "l": 3}, 66),
    ("closure", {"n": 2}, 50),
    ("closure", {"n": 3}, 50),
)
# Suites whose cost does not depend on the config seed take the
# benchmark's seed; closure keeps the acceptance seed because its cost
# does (n=3 took 7.6 s at the acceptance seed and 15.2 s at seed 1).
SEED_FIXED_SUITES = ("closure",)


def suite_sweep_ops(seed: int, threads: int) -> list[dict]:
    ops = []
    for name, overrides, expected in SUITE_ROWS:
        cfg_seed = ACCEPTANCE_SEED if name in SEED_FIXED_SUITES else seed
        config = {"seed": cfg_seed, "threads": threads, **overrides}
        ops.append({"suite": name, "config": config, "expected_instances": expected})
    return ops


def make_ops(workload: str, seed: int, threads: int) -> list[dict]:
    if workload == "formula-box":
        return formula_box_ops(seed)
    if workload == "degree-sweep":
        return degree_sweep_ops(seed)
    if workload == "oracle":
        return oracle_ops(seed)
    if workload == "suite-sweep":
        return suite_sweep_ops(seed, threads)
    raise ValueError(f"unknown workload {workload!r}")
