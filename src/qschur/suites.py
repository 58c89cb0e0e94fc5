"""Verification suites behind the CLI.

Every suite takes a RunConfig and returns a JSON-ready report that is
byte identical for identical configs: instance enumeration is
deterministic, randomized strata draw from a generator seeded by the
config, and nothing host- or time-dependent enters the report.  Wall
time is the CLI's business and goes to stderr only.

Large comparison strata can fan out across processes; the instance
space is split into index ranges and each worker re-enumerates its
slice, so the merged report does not depend on the worker count.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import islice, product

from .config import RunConfig
from .errors import QschurError
from .laurent import (
    LaurentPoly,
    ONE,
    balanced_binomial,
    unbalanced_binomial,
    unbalanced_trinomial,
    v_power,
    vector_binomial,
    vector_trinomial,
)
from .vectors import IntVector, boxes, dot, vadd, vsub
from .matrices import (
    Matrix,
    add_to_entry,
    diag_matrix,
    entry_sum,
    ro,
    theta_matrices,
    theta_pm,
    zero_matrix,
)
from .hecke import oracle_product
from .schur import multiply_lowering, multiply_raising
from .symbolic import (
    SymbolicElement,
    TruncatedElement,
    delta_reduce,
    lowering_mult,
    raising_mult,
    torus_mult,
    triangular_product,
)
from . import linalg
from .presentation import check_relations, pbw_family, pbw_monomial
from .specialize import (
    bk_independence,
    bk_indices,
    check_torus_power_trivial,
    specialize,
)

__all__ = ["SUITES", "run_suite", "SUITE_NAMES"]

MAX_REPORTED_FAILURES = 25
_PARALLEL_THRESHOLD = 512

# fixed axis slices for the rank-3 exhaustive cores; the full boxes are
# out of desk-scale reach there, see the shipped notes for the counts
F1_GAMMA_3 = ((0, 0, 0), (1, -2, 1))
F1_DELTA_3 = ((0, 0, 0), (-1, 2, -2), (2, 1, 0))
F2_DELTA_3 = tuple(product((-2, 0, 2), repeat=3))


def _rng(cfg: RunConfig, stratum: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{stratum}")


def _sub_vectors(lam: IntVector):
    """All vectors mu with 0 <= mu <= lam entrywise, lex ascending."""
    yield from product(*(range(x + 1) for x in lam))


def _rand_vec(rng: random.Random, n: int, lo: int, hi: int) -> IntVector:
    return tuple(rng.randint(lo, hi) for _ in range(n))


def _rand_theta_pm(rng: random.Random, n: int, smax: int) -> Matrix:
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    a = zero_matrix(n)
    for _ in range(rng.randint(0, smax)):
        i, j = rng.choice(cells)
        a = add_to_entry(a, i, j, 1)
    return a


# -- binomials ---------------------------------------------------------------


def _binomial_scalar1_instances(cfg: RunConfig):
    for m in range(-6, 7):
        for nn in range(-6, 7):
            for a in range(5):
                yield (m, nn, a)


def _binomial_scalar1_check(cfg: RunConfig, inst, corrupt: bool = False):
    m, nn, a = inst
    lhs = unbalanced_binomial(nn, a)
    if corrupt:
        lhs = lhs + ONE
    rhs = sum(
        (
            v_power(2 * (m - j) * (a - j))
            * unbalanced_binomial(m, j)
            * unbalanced_binomial(nn - m, a - j)
            for j in range(a + 1)
        ),
        LaurentPoly.from_int(0),
    )
    if lhs != rhs:
        return {"instance": list(inst), "detail": "one sided splitting identity"}
    return None


def _binomial_scalar2_instances(cfg: RunConfig):
    for m in range(-6, 7):
        for a in range(5):
            for b in range(5):
                yield (m, a, b)


def _binomial_scalar2_check(cfg: RunConfig, inst, corrupt: bool = False):
    m, a, b = inst
    lhs = unbalanced_binomial(m, a) * unbalanced_binomial(m, b)
    if corrupt:
        lhs = lhs + ONE
    rhs = sum(
        (
            v_power(2 * (b - c) * (a - c))
            * unbalanced_binomial(m, a + b - c)
            * unbalanced_trinomial(c, a - c, b - c)
            for c in range(min(a, b) + 1)
        ),
        LaurentPoly.from_int(0),
    )
    if lhs != rhs:
        return {"instance": list(inst), "detail": "one sided product identity"}
    return None


def _binomial_bridge_instances(cfg: RunConfig):
    for big_n in range(-6, 7):
        for t in range(5):
            yield (big_n, t)


def _binomial_bridge_check(cfg: RunConfig, inst, corrupt: bool = False):
    big_n, t = inst
    lhs = unbalanced_binomial(big_n, t)
    if corrupt:
        lhs = lhs + ONE
    if lhs != v_power(t * (big_n - t)) * balanced_binomial(big_n, t):
        return {"instance": list(inst), "detail": "one sided vs balanced bridge"}
    return None


def _binomial_vector1_instances(cfg: RunConfig):
    for alpha in boxes(-2, 2, 2):
        for beta in boxes(-2, 2, 2):
            for lam in boxes(0, 2, 2):
                yield ("core", alpha, beta, lam)
    rng = _rng(cfg, "binomials:vector1")
    for _ in range(cfg.random_instances):
        n = rng.choice((2, 3))
        yield (
            "random",
            _rand_vec(rng, n, -4, 4),
            _rand_vec(rng, n, -4, 4),
            _rand_vec(rng, n, 0, 4),
        )


def _binomial_vector1_check(cfg: RunConfig, inst, corrupt: bool = False):
    _, alpha, beta, lam = inst
    lhs = vector_binomial(vadd(alpha, beta), lam)
    if corrupt:
        lhs = lhs + ONE
    rhs = LaurentPoly.from_int(0)
    for mu in _sub_vectors(lam):
        rhs = rhs + (
            v_power(dot(alpha, vsub(lam, mu)) - dot(mu, beta))
            * vector_binomial(alpha, mu)
            * vector_binomial(beta, vsub(lam, mu))
        )
    if lhs != rhs:
        return {"instance": [list(x) for x in inst[1:]], "detail": "vector splitting"}
    return None


def _binomial_vector2_instances(cfg: RunConfig):
    for alpha in boxes(-2, 2, 2):
        for lam in boxes(0, 2, 2):
            for mu in boxes(0, 2, 2):
                yield ("core", alpha, lam, mu)
    rng = _rng(cfg, "binomials:vector2")
    for _ in range(cfg.random_instances):
        n = rng.choice((2, 3))
        yield (
            "random",
            _rand_vec(rng, n, -4, 4),
            _rand_vec(rng, n, 0, 4),
            _rand_vec(rng, n, 0, 4),
        )


def _binomial_vector2_check(cfg: RunConfig, inst, corrupt: bool = False):
    _, alpha, lam, mu = inst
    lhs = vector_binomial(alpha, lam) * vector_binomial(alpha, mu)
    if corrupt:
        lhs = lhs + ONE
    cap = tuple(min(a, b) for a, b in zip(lam, mu))
    rhs = LaurentPoly.from_int(0)
    for gamma in _sub_vectors(cap):
        total = vsub(vadd(lam, mu), gamma)
        rhs = rhs + (
            v_power(dot(lam, mu) - dot(alpha, gamma))
            * vector_trinomial(total, gamma, vsub(lam, gamma), vsub(mu, gamma))
            * vector_binomial(alpha, total)
        )
    if lhs != rhs:
        return {"instance": [list(x) for x in inst[1:]], "detail": "vector product"}
    return None


# -- structured one-row transfers against the coset oracle -------------------


def _transfer_instances(cfg: RunConfig):
    r_max = cfg.resolve_r_max(4)
    for r in range(r_max + 1):
        for a in theta_matrices(cfg.n, r):
            row = ro(a)
            for h in range(1, cfg.n):
                for m in range(1, row[h] + 1):
                    yield ("E", h, m, a, r)
                for m in range(1, row[h - 1] + 1):
                    yield ("F", h, m, a, r)


def _transfer_check(cfg: RunConfig, inst, corrupt: bool = False):
    kind, h, m, a, r = inst
    n = len(a)
    row = ro(a)
    if kind == "E":
        got = multiply_raising(h, m, a)
        left = add_to_entry(
            diag_matrix(tuple(x - (m if i == h else 0) for i, x in enumerate(row))),
            h, h + 1, m,
        )
    else:
        got = multiply_lowering(h, m, a)
        left = add_to_entry(
            diag_matrix(tuple(x - (m if i == h - 1 else 0) for i, x in enumerate(row))),
            h + 1, h, m,
        )
    want = oracle_product(left, a, cfg.oracle_cap)
    terms = dict(got.terms)
    if corrupt:
        first = min(terms) if terms else diag_matrix((r,) + (0,) * (n - 1))
        terms[first] = terms.get(first, LaurentPoly.from_int(0)) + ONE
        terms = {k: v for k, v in terms.items() if not v.is_zero()}
    if terms != want:
        return {
            "instance": {
                "kind": kind, "h": h, "m": m,
                "matrix": [list(rw) for rw in a], "r": r,
            },
            "detail": "structured transfer disagrees with coset oracle",
        }
    return None


# -- torus formula (left multiplication by a pure torus element) -------------


def _formula1_core_instances(cfg: RunConfig):
    n = cfg.n
    if n == 2:
        gammas = tuple(boxes(-2, 2, 2))
        deltas = gammas
        mus = tuple(boxes(0, 2, 2))
        lams = mus
    elif n == 3:
        gammas = F1_GAMMA_3
        deltas = F1_DELTA_3
        mus = tuple(boxes(0, 2, 3))
        lams = mus
    else:
        gammas = ((0,) * n, (1,) + (-1,) * (n - 1))
        deltas = gammas
        mus = tuple(boxes(0, 1, n))
        lams = mus
    for a in theta_pm(n, 2):
        for gamma in gammas:
            for mu in mus:
                for delta in deltas:
                    for lam in lams:
                        yield (gamma, mu, a, delta, lam)


def _formula1_random_instances(cfg: RunConfig):
    rng = _rng(cfg, "formula1:random")
    n = cfg.n
    for _ in range(cfg.random_instances):
        yield (
            _rand_vec(rng, n, -3, 3),
            _rand_vec(rng, n, 0, 3),
            _rand_theta_pm(rng, n, 3),
            _rand_vec(rng, n, -3, 3),
            _rand_vec(rng, n, 0, 3),
        )


def _formula1_oracle_instances(cfg: RunConfig):
    yield from islice(_formula1_core_instances(cfg), 12)


def _check_formula1(cfg: RunConfig, inst, corrupt: bool = False, engine: str = "fast"):
    gamma, mu, a, delta, lam = inst
    n = len(gamma)
    r_max = cfg.resolve_r_max(4)
    x = SymbolicElement.gen(a, delta, lam)
    got = torus_mult(gamma, mu, x).realize_truncated(r_max)
    if corrupt:
        got = got + TruncatedElement.unit(n, r_max)
    left = SymbolicElement.gen(zero_matrix(n), gamma, mu).realize_truncated(r_max)
    right = x.realize_truncated(r_max)
    want = left.multiply(right, cap=cfg.oracle_cap, engine=engine)
    if got != want:
        return {
            "instance": {
                "gamma": list(gamma), "mu": list(mu),
                "matrix": [list(rw) for rw in a],
                "delta": list(delta), "lambda": list(lam),
            },
            "detail": f"torus formula vs truncated product ({engine})",
        }
    return None


def _check_formula1_oracle(cfg: RunConfig, inst, corrupt: bool = False):
    return _check_formula1(cfg, inst, corrupt, engine="oracle")


# -- transfer formulas (left multiplication by one-row transfer elements) ----


def _formula2_core_instances(cfg: RunConfig):
    n = cfg.n
    if n == 2:
        deltas = tuple(boxes(-2, 2, 2))
        lams = tuple(boxes(0, 2, 2))
    elif n == 3:
        deltas = F2_DELTA_3
        lams = tuple(boxes(0, 2, 3))
    else:
        deltas = ((0,) * n, (1,) + (-1,) * (n - 1))
        lams = tuple(boxes(0, 1, n))
    for a in theta_pm(n, 2):
        for delta in deltas:
            for lam in lams:
                for h in range(1, n):
                    for m in (1, 2):
                        yield ("E", m, h, a, delta, lam)
                        yield ("F", m, h, a, delta, lam)


def _formula2_random_instances(cfg: RunConfig):
    rng = _rng(cfg, "formula2:random")
    n = cfg.n
    for _ in range(cfg.random_instances):
        yield (
            rng.choice(("E", "F")),
            rng.randint(1, 3),
            rng.randint(1, n - 1),
            _rand_theta_pm(rng, n, 3),
            _rand_vec(rng, n, -3, 3),
            _rand_vec(rng, n, 0, 3),
        )


def _formula2_oracle_instances(cfg: RunConfig):
    yield from islice(_formula2_core_instances(cfg), 12)


def _check_formula2(cfg: RunConfig, inst, corrupt: bool = False, engine: str = "fast"):
    kind, m, h, a, delta, lam = inst
    n = len(a)
    r_max = cfg.resolve_r_max(4)
    x = SymbolicElement.gen(a, delta, lam)
    if kind == "E":
        sym = raising_mult(m, h, x)
        gen_matrix = add_to_entry(zero_matrix(n), h, h + 1, m)
    else:
        sym = lowering_mult(m, h, x)
        gen_matrix = add_to_entry(zero_matrix(n), h + 1, h, m)
    got = sym.realize_truncated(r_max)
    if corrupt:
        got = got + TruncatedElement.unit(n, r_max)
    zero_vec = (0,) * n
    left = SymbolicElement.gen(gen_matrix, zero_vec, zero_vec).realize_truncated(r_max)
    right = x.realize_truncated(r_max)
    want = left.multiply(right, cap=cfg.oracle_cap, engine=engine)
    if got != want:
        return {
            "instance": {
                "kind": kind, "m": m, "h": h,
                "matrix": [list(rw) for rw in a],
                "delta": list(delta), "lambda": list(lam),
            },
            "detail": f"transfer formula vs truncated product ({engine})",
        }
    return None


def _check_formula2_oracle(cfg: RunConfig, inst, corrupt: bool = False):
    return _check_formula2(cfg, inst, corrupt, engine="oracle")


# -- stratum registry and the parallel runner --------------------------------

_STRATA = {
    "binomials:scalar1": (_binomial_scalar1_instances, _binomial_scalar1_check),
    "binomials:scalar2": (_binomial_scalar2_instances, _binomial_scalar2_check),
    "binomials:bridge": (_binomial_bridge_instances, _binomial_bridge_check),
    "binomials:vector1": (_binomial_vector1_instances, _binomial_vector1_check),
    "binomials:vector2": (_binomial_vector2_instances, _binomial_vector2_check),
    "transfer:main": (_transfer_instances, _transfer_check),
    "formula1:core": (_formula1_core_instances, _check_formula1),
    "formula1:random": (_formula1_random_instances, _check_formula1),
    "formula1:oracle": (_formula1_oracle_instances, _check_formula1_oracle),
    "formula2:core": (_formula2_core_instances, _check_formula2),
    "formula2:random": (_formula2_random_instances, _check_formula2),
    "formula2:oracle": (_formula2_oracle_instances, _check_formula2_oracle),
}


def _stratum_worker(args) -> tuple[int, list[dict]]:
    key, cfg_kwargs, lo, hi, inject = args
    cfg = RunConfig(**cfg_kwargs)
    gen, check = _STRATA[key]
    count = 0
    failures = []
    for idx, inst in enumerate(islice(gen(cfg), lo, hi), start=lo):
        corrupt = inject and idx == 0
        fail = check(cfg, inst, corrupt)
        count += 1
        if fail is not None:
            fail["stratum"] = key
            fail["index"] = idx
            failures.append(fail)
    return count, failures


def _run_stratum(
    cfg: RunConfig, key: str, inject: bool = False
) -> tuple[int, list[dict]]:
    gen, _ = _STRATA[key]
    total = sum(1 for _ in gen(cfg))
    if cfg.threads > 1 and total >= _PARALLEL_THRESHOLD:
        chunk = -(-total // (cfg.threads * 4))
        jobs = [
            (key, cfg.to_json_obj(), lo, min(lo + chunk, total), inject)
            for lo in range(0, total, chunk)
        ]
        counts = 0
        failures: list[dict] = []
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            for count, fails in pool.map(_stratum_worker, jobs):
                counts += count
                failures.extend(fails)
        return counts, failures
    return _stratum_worker((key, cfg.to_json_obj(), 0, total, inject))


def _report(
    cfg: RunConfig,
    suite: str,
    r_max: int | None,
    instances: int,
    failures: list[dict],
    notes: list[str],
    extra: dict | None = None,
) -> dict:
    config = cfg.to_json_obj()
    if r_max is not None:
        config["r_max"] = r_max
    shown = failures[:MAX_REPORTED_FAILURES]
    report = {
        "suite": suite,
        "config": config,
        "instances": instances,
        "failures": shown,
        "failure_count": len(failures),
        "passed": not failures,
        "notes": list(notes),
    }
    if len(failures) > len(shown):
        report["notes"].append(
            f"failure list truncated to first {MAX_REPORTED_FAILURES}"
        )
    if extra:
        report.update(extra)
    return report


# -- suites ------------------------------------------------------------------


def run_binomials(cfg: RunConfig) -> dict:
    cfg.validate()
    instances = 0
    failures: list[dict] = []
    for i, key in enumerate(
        (
            "binomials:scalar1",
            "binomials:scalar2",
            "binomials:bridge",
            "binomials:vector1",
            "binomials:vector2",
        )
    ):
        count, fails = _run_stratum(cfg, key, inject=cfg.inject_failure and i == 0)
        instances += count
        failures.extend(fails)
    notes = [
        "scalar strata exhaustive over the stated integer boxes",
        "vector strata: exhaustive rank-2 core with entries up to 2 "
        "plus seeded random instances at entries up to 4",
    ]
    if cfg.inject_failure:
        notes.append("failure injection active")
    return _report(cfg, "binomials", None, instances, failures, notes)


def run_transfer_formulas(cfg: RunConfig) -> dict:
    cfg.validate()
    r_max = cfg.resolve_r_max(4)
    instances, failures = _run_stratum(cfg, "transfer:main", inject=cfg.inject_failure)
    notes = [
        "every degree up to r_max, every basis matrix, every valid transfer",
        "oracle side computed from double coset sums in the endomorphism ring",
    ]
    if cfg.inject_failure:
        notes.append("failure injection active")
    return _report(cfg, "transfer-formulas", r_max, instances, failures, notes)


def _run_formula_suite(cfg: RunConfig, name: str) -> dict:
    cfg.validate()
    r_max = cfg.resolve_r_max(4)
    instances = 0
    failures: list[dict] = []
    for i, stratum in enumerate(("core", "random", "oracle")):
        count, fails = _run_stratum(
            cfg, f"{name}:{stratum}", inject=cfg.inject_failure and i == 0
        )
        instances += count
        failures.extend(fails)
    notes = [
        "symbolic formula output realized and compared with the "
        "componentwise truncated product",
        "oracle stratum repeats leading core instances against the "
        "pure coset engine",
    ]
    if cfg.n == 3:
        notes.append(
            "rank-3 core uses fixed exponent-vector slices; the full box "
            "is enumerated at rank 2 and sampled by the random stratum"
        )
    if cfg.inject_failure:
        notes.append("failure injection active")
    return _report(cfg, name, r_max, instances, failures, notes)


def run_formula1(cfg: RunConfig) -> dict:
    return _run_formula_suite(cfg, "formula1")


def run_formula2(cfg: RunConfig) -> dict:
    return _run_formula_suite(cfg, "formula2")


def run_relations(cfg: RunConfig) -> dict:
    cfg.validate()
    r_max = cfg.resolve_r_max(5)
    rep = check_relations(cfg.n, r_max, cfg.oracle_cap)
    failures = list(rep["failures"])
    if cfg.inject_failure:
        failures.append(
            {"relation": "injected", "i": 0, "j": 0, "ok": False}
        )
    notes = ["every relation checked in every degree up to r_max"]
    if cfg.inject_failure:
        notes.append("failure injection active")
    return _report(cfg, "relations", r_max, rep["instances"], failures, notes)


def run_triangular(cfg: RunConfig) -> dict:
    cfg.validate()
    r_max = cfg.resolve_r_max(4)
    sigma_bound = 3
    instances = 0
    failures: list[dict] = []
    for a in theta_pm(cfg.n, sigma_bound):
        if entry_sum(a) == 0:
            continue
        instances += 1
        _, rep = triangular_product(a, r_max)
        ok = (
            rep["leading_is_one"]
            and rep["lower_terms_precede"]
            and rep["norms_decrease"]
        )
        if cfg.inject_failure and instances == 1:
            ok = False
        if not ok:
            failures.append(
                {"matrix": [list(rw) for rw in a], "report": {
                    k: v for k, v in rep.items() if isinstance(v, bool)
                }}
            )
    notes = [
        f"all nonzero index matrices with total weight at most {sigma_bound}",
        "checked: unit leading coefficient, strictly smaller order and "
        "norm for every other term",
    ]
    if cfg.inject_failure:
        notes.append("failure injection active")
    return _report(cfg, "triangular", r_max, instances, failures, notes)


def run_pbw_independence(cfg: RunConfig) -> dict:
    cfg.validate()
    r_max = cfg.resolve_r_max(6)
    family = pbw_family(cfg.n, cfg.bound)
    elements = [pbw_monomial(idx, r_max, cfg.oracle_cap) for idx in family]
    if cfg.inject_failure and elements:
        elements.append(elements[0])
        family = family + [family[0]]
    rows, _ = linalg.flatten_family(elements)
    verdict = linalg.independence_verdict(rows)
    stable = None
    if not cfg.inject_failure:
        deeper = [pbw_monomial(idx, r_max + 1, cfg.oracle_cap) for idx in family]
        rows2, _ = linalg.flatten_family(deeper)
        verdict2 = linalg.independence_verdict(rows2)
        stable = verdict["independent"] == verdict2["independent"]
    failures = []
    if not verdict["independent"]:
        failures.append(
            {
                "detail": "family dependent at this truncation",
                "rank": verdict["rank"],
                "rows": verdict["rows"],
            }
        )
    notes = [
        "truncation witness, not a proof: independence at finite depth "
        "is necessary but not sufficient for the basis statement",
        "exponent vectors range over {0,1}; matrix plus binomial weight "
        f"bounded by {cfg.bound}",
    ]
    if cfg.inject_failure:
        notes.append("failure injection active (duplicated first member)")
    extra = {
        "verdict": {k: v for k, v in verdict.items() if k != "kernel"},
        "family_size": len(family),
    }
    if "kernel" in verdict:
        extra["verdict"]["kernel_generators"] = len(verdict["kernel"])
        extra["verdict"]["kernel_sample"] = verdict["kernel"][:2]
    if stable is not None:
        extra["stable_at_next_depth"] = stable
    return _report(
        cfg, "pbw-independence", r_max, len(family), failures, notes, extra
    )


def run_specialization(cfg: RunConfig) -> dict:
    cfg.validate()
    r_max = cfg.resolve_r_max(5)
    torus_r = min(r_max, 4)
    failures: list[dict] = []
    instances = 0
    for i in range(1, cfg.n + 1):
        instances += 1
        rep = check_torus_power_trivial(i, cfg.l, cfg.n, torus_r)
        if cfg.inject_failure and i == 1:
            rep = dict(rep, ok=False)
        if not rep["ok"]:
            failures.append({"detail": "torus power not trivial", **rep})

    rng = _rng(cfg, "specialization:homomorphism")
    pairs = max(4, cfg.random_instances // 25)
    for _ in range(pairs):
        instances += 1
        n = cfg.n
        x = SymbolicElement.gen(
            _rand_theta_pm(rng, n, 2), _rand_vec(rng, n, -2, 2), _rand_vec(rng, n, 0, 2)
        ).realize_truncated(min(r_max, 4))
        y = SymbolicElement.gen(
            _rand_theta_pm(rng, n, 2), _rand_vec(rng, n, -2, 2), _rand_vec(rng, n, 0, 2)
        ).realize_truncated(min(r_max, 4))
        lhs = specialize(x.multiply(y, cap=cfg.oracle_cap), cfg.l)
        rhs = specialize(x, cfg.l).multiply(specialize(y, cfg.l), cfg.oracle_cap)
        if lhs != rhs:
            failures.append({"detail": "specialization is not multiplicative"})

    verdict = bk_independence(cfg.n, cfg.bound, cfg.l, r_max, cfg.oracle_cap)
    instances += verdict["rows"]
    if cfg.inject_failure:
        verdict = dict(verdict, independent=False)
    if not verdict["independent"]:
        failures.append({"detail": "specialized family dependent", **verdict})

    # rank drop record: the same family before and after specialization
    laurent_rows, _ = linalg.flatten_family(
        [
            SymbolicElement.gen(a, (0,) * cfg.n, (0,) * cfg.n)
            .realize_truncated(r_max)
            .multiply(
                SymbolicElement.gen(
                    zero_matrix(cfg.n), tuple(-x for x in lam), lam
                ).realize_truncated(r_max),
                cap=cfg.oracle_cap,
            )
            for a, lam in bk_indices(cfg.n, cfg.bound)
        ]
    )
    laurent_rank = max(
        linalg.rank_at_point(laurent_rows, Fraction(x)) for x in (2, 3, 5, 7)
    )
    notes = [
        "torus power triviality, multiplicativity on random pairs, and "
        "the specialized family rank are all exact",
        "rank drop record compares the family rank before and after "
        "specialization rather than asserting equality",
    ]
    if cfg.inject_failure:
        notes.append("failure injection active")
    extra = {
        "verdict": verdict,
        "rank_before_specialization": laurent_rank,
        "rank_after_specialization": verdict["rank"],
    }
    return _report(
        cfg, "specialization", r_max, instances, failures, notes, extra
    )


def run_closure(cfg: RunConfig) -> dict:
    cfg.validate()
    r_max = cfg.resolve_r_max(4)
    rng = _rng(cfg, "closure:words")
    count = max(10, cfg.random_instances // 4)
    failures: list[dict] = []
    n = cfg.n
    for idx in range(count):
        x = SymbolicElement.gen(
            _rand_theta_pm(rng, n, 2), _rand_vec(rng, n, -2, 2), _rand_vec(rng, n, 0, 2)
        )
        word = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("E", "F", "T"))
            if kind == "T":
                word.append(("T", _rand_vec(rng, n, -2, 2), _rand_vec(rng, n, 0, 2)))
            else:
                word.append((kind, rng.randint(1, 2), rng.randint(1, n - 1)))
        y = x
        for sym in word:
            if sym[0] == "T":
                y = torus_mult(sym[1], sym[2], y)
            elif sym[0] == "E":
                y = raising_mult(sym[1], sym[2], y)
            else:
                y = lowering_mult(sym[1], sym[2], y)
        reduced = delta_reduce(y)
        bad_exponent = any(
            not all(0 <= d <= 1 for d in key[1]) for key in reduced.terms
        )
        realization_changed = y.realize_truncated(r_max) != reduced.realize_truncated(r_max)
        if cfg.inject_failure and idx == 0:
            realization_changed = True
        if bad_exponent or realization_changed:
            failures.append(
                {
                    "index": idx,
                    "word": [
                        [w[0], list(w[1]), list(w[2])] if w[0] == "T" else list(w)
                        for w in word
                    ],
                    "detail": "reduction left stray exponents"
                    if bad_exponent
                    else "reduction changed the realization",
                }
            )
    notes = [
        "random generator words folded through the symbolic formulas; "
        "every observed coefficient stayed in the integral Laurent ring",
        "after exponent reduction every torus exponent lies in {0,1} "
        "and the truncated realization is unchanged",
    ]
    if cfg.inject_failure:
        notes.append("failure injection active")
    return _report(cfg, "closure", r_max, count, failures, notes)


SUITES = {
    "binomials": run_binomials,
    "transfer-formulas": run_transfer_formulas,
    "formula1": run_formula1,
    "formula2": run_formula2,
    "relations": run_relations,
    "triangular": run_triangular,
    "pbw-independence": run_pbw_independence,
    "specialization": run_specialization,
    "closure": run_closure,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, cfg: RunConfig) -> dict:
    if name not in SUITES:
        raise QschurError(f"unknown suite: {name}")
    return SUITES[name](cfg)
