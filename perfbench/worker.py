"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py            # run the round read from stdin
    python3 perfbench/worker.py --setup-only

The round imports qschur first, so every `lru_cache`/`cache` table
starts cold, exactly as in a `qschur` CLI invocation; the monotonic
time at which the import returned goes back to the parent, which knows
when it spawned this process.  The request on stdin names the
workload, its operations, whether to trace and whether to corrupt the
first result (the gate's self-test).  The reply on stdout is one JSON
object: per-operation latencies (as measured, and rescaled to the speed
of a reference loop timed between operations) and verdicts, a SHA-256
digest over the emitted results, resource usage, `cache_info()` counts
and, when tracing, the per-layer metrics.

Tracing records a span around every call this file makes into a public
qschur function (name, start, end, parent, operation id), keeps the
spans in memory and writes them out after the round.  Nothing inside
the library is instrumented.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qschur  # noqa: E402  (the import is what setup_s measures)

IMPORTED_AT = time.monotonic()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from functools import lru_cache  # noqa: E402
from time import perf_counter  # noqa: E402

from qschur import hecke, laurent, schur  # noqa: E402
from qschur.cli import parse_element  # noqa: E402
from qschur.config import RunConfig  # noqa: E402
from qschur.matrices import co, is_diagonal, ro, zero_matrix  # noqa: E402
from qschur.schur import (  # noqa: E402
    SchurElement,
    force_oracle_product,
    general_product,
    lowering_shape,
    raising_shape,
)
from qschur.suites import run_suite  # noqa: E402
from qschur.symbolic import (  # noqa: E402
    SymbolicElement,
    TruncatedElement,
    lowering_mult,
    raising_mult,
    torus_mult,
)

# Truncation degree the formula suites compare at (their default r_max).
FORMULA_R_MAX = 4
# The oracle workload's explicit cap: the default of 6 raises
# ResourceLimit at degree 7.
ORACLE_CAP = 7

# The machine is shared, and its speed drifts by up to 40% over tens of
# seconds with the load of its other tenants.  So a round that runs its
# operations in this one process times a fixed pure-Python reference
# loop between them (after at least CALIB_EVERY_S of operations, for
# CALIB_SHARE of their time) and also reports every latency rescaled to
# the loop's reference speed:
#     ref_lat = lat * CALIB_REF_S / (mean pass time around the operation)
# The drift cancels in the ratio; a faster library still lowers it.  A
# round whose operations run on a pool of several processes is not
# rescaled (ref_lat = lat): with every CPU busy its speed did not follow
# this loop's, nor that of the loop run on every CPU at once, and
# rescaling raised its spread instead of lowering it.
CALIB_REF_S = 0.037  # median pass time on a 2-CPU Intel Xeon VM
CALIB_EVERY_S = 0.4
CALIB_SHARE = 0.1

# Public cached functions whose cache_info() the benchmark snapshots.
CACHES = {
    "schur.multiply_raising": schur.multiply_raising,
    "schur.multiply_lowering": schur.multiply_lowering,
    "schur.diag_sum": schur.diag_sum,
    "laurent.unbalanced_binomial": laurent.unbalanced_binomial,
    "laurent.balanced_binomial": laurent.balanced_binomial,
    "laurent.balanced_trinomial": laurent.balanced_trinomial,
    "laurent.balanced_factorial": laurent.balanced_factorial,
    "laurent.unbalanced_factorial": laurent.unbalanced_factorial,
    "hecke.x_lambda": hecke.x_lambda,
}
# The oracle's coset tables are private; read them only if they exist.
COSET_TABLES = [
    f for f in (getattr(hecke, "_right_coset_data", None), getattr(hecke, "_double_coset_data", None))
    if f is not None and hasattr(f, "cache_info")
]


def cache_counts() -> dict:
    out = {}
    for name, fn in CACHES.items():
        info = fn.cache_info()
        out[name] = [info.hits, info.misses]
    out["hecke.coset_tables"] = [
        sum(f.cache_info().hits for f in COSET_TABLES),
        sum(f.cache_info().misses for f in COSET_TABLES),
    ]
    return out


class NullTracer:
    """Untraced rounds: call straight through."""

    op = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans around the benchmark's calls into qschur, kept in memory."""

    def __init__(self):
        self.spans = []  # (op, name, start, end, parent index)
        self._stack = []
        self.op = -1

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (self.op, name, start, end, parent)

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: summed self time (duration minus the time its
        child spans cover) and call count."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (_, name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
            calls[name] += 1
        return totals, calls


def calib_pass() -> float:
    """One pass of the reference loop, and its time: build, sort, index
    and free 40000 (small int, big int) pairs, some MB of short-lived
    objects like the library's coefficient tables.  Small loops that
    stay in cache sped up twice as much as the library in the machine's
    fast spells; this one tracks it.  The collector is off during the
    pass, so its time does not depend on how many objects the library
    holds.  The pass adds some MB to a round's peak RSS, the same for
    every version of the library."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    pairs = [((i * 7919) % 100003, i << 64) for i in range(40000)]
    pairs.sort()
    table = dict(pairs)
    del pairs, table
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Calibration:
    """Reference-loop timings between the operations of a round."""

    def __init__(self):
        self.wall = self.cpu = 0.0  # spent in the loop, not in operations
        self.points = []  # (operations done, median pass time)
        self.done = 0
        self.busy = 0.0
        self._measure(0.0)

    def _measure(self, budget: float) -> None:
        wall, cpu = perf_counter(), time.process_time()
        passes = [calib_pass() for _ in range(max(1, round(budget / CALIB_REF_S)))]
        self.points.append((self.done, statistics.median(passes)))
        self.wall += perf_counter() - wall
        self.cpu += time.process_time() - cpu

    def tick(self, latency: float) -> None:
        """Count one finished operation; time the loop when due."""
        self.done += 1
        self.busy += latency
        if self.busy >= CALIB_EVERY_S:
            self._measure(CALIB_SHARE * self.busy)
            self.busy = 0.0

    def rescale(self, lat: list) -> list:
        """Latencies at the reference speed: each operation's over the
        mean pass time of the loop timings on either side of it."""
        if self.points[-1][0] < self.done:
            self._measure(CALIB_SHARE * self.busy)
        out = []
        for (lo, before), (hi, after) in zip(self.points, self.points[1:]):
            scale = CALIB_REF_S / ((before + after) / 2)
            out.extend(x * scale for x in lat[lo:hi])
        return out

    def speed(self) -> float:
        """Reference pass time over the round's median pass time."""
        return CALIB_REF_S / statistics.median(p for _, p in self.points)


class NoCalibration:
    """Rounds that run their operations on a pool: not rescaled."""

    wall = cpu = 0.0

    def tick(self, latency: float) -> None:
        pass

    def rescale(self, lat: list) -> list:
        return list(lat)

    def speed(self) -> None:
        return None


def emit(obj) -> str:
    """The CLI's stdout form of a report or element."""
    if hasattr(obj, "to_json_obj"):
        obj = obj.to_json_obj()
    return json.dumps(obj, sort_keys=True, indent=2)


def emit_both(n: int, r: int, formula: SchurElement, oracle: SchurElement) -> tuple[str, bool]:
    """The report of `qschur multiply --mode both`, and its agree flag."""
    out = {
        "n": n,
        "r": r,
        "engines": {"formula": formula.to_json_obj()["terms"], "oracle": oracle.to_json_obj()["terms"]},
    }
    out["agree"] = out["engines"]["formula"] == out["engines"]["oracle"]
    return emit(out), out["agree"]


def tup(x):
    return tuple(tup(v) for v in x) if isinstance(x, list) else x


# -- formula-box ---------------------------------------------------------------


def formula_op(t, op, corrupt):
    n = op["n"]
    zero = (0,) * n
    inst = tup(op["inst"])
    if op["suite"] == "formula1":
        gamma, mu, a, delta, lam = inst
        x = SymbolicElement.gen(a, delta, lam)
        sym = t.call("symbolic.torus_mult", torus_mult, gamma, mu, x)
        left = SymbolicElement.gen(zero_matrix(n), gamma, mu)
    else:
        kind, m, h, a, delta, lam = inst
        x = SymbolicElement.gen(a, delta, lam)
        rows = [list(row) for row in zero_matrix(n)]
        if kind == "E":
            sym = t.call("symbolic.raising_mult", raising_mult, m, h, x)
            rows[h - 1][h] = m
        else:
            sym = t.call("symbolic.lowering_mult", lowering_mult, m, h, x)
            rows[h][h - 1] = m
        left = SymbolicElement.gen(tup(rows), zero, zero)
    if corrupt:
        sym = sym + SymbolicElement.unit(n)
    got = t.call("symbolic.realize", sym.realize_truncated, FORMULA_R_MAX)
    lt = t.call("symbolic.realize", left.realize_truncated, FORMULA_R_MAX)
    rt = t.call("symbolic.realize", x.realize_truncated, FORMULA_R_MAX)
    if op["engine"] == "fast":
        want = t.call("schur.product", lt.multiply, rt, engine="fast")
    else:
        want = t.call("hecke.oracle.le4", lt.multiply, rt, engine="oracle")
    ok = t.call("symbolic.compare", TruncatedElement.__eq__, got, want)
    products = [(op["engine"], a_, b_, p) for a_, b_, p in zip(lt.components, rt.components, want.components)]
    return ok, sym.to_json_obj, products, {"keys_out": len(sym.terms)}


# -- degree-sweep --------------------------------------------------------------


def degree_op(t, op, corrupt):
    if op["kind"] == "realize":
        el = t.call("cli.parse", parse_element, op["element"])
        got = t.call("symbolic.realize", el.realize, op["r"])
        if corrupt:
            got = got + SchurElement.unit(op["n"], op["r"])
        text = t.call("cli.emit", emit, got)
        # checked after the timed loop: the reference is the benchmark's cost
        return (lambda: realize_reference(op) == got), text, [], {"emit_bytes": len(text), "outputs": [got]}
    x = t.call("cli.parse", parse_element, op["x"])
    y = t.call("cli.parse", parse_element, op["y"])
    z = t.call("cli.parse", parse_element, op["z"])
    yz = t.call("schur.product", general_product, y, z)
    p1 = t.call("schur.product", general_product, x, yz)
    xy = t.call("schur.product", general_product, x, y)
    p2 = t.call("schur.product", general_product, xy, z)
    if corrupt:
        p1 = p1 + SchurElement.unit(op["n"], op["r"])
    text = t.call("cli.emit", emit, p1)
    products = [("fast", y, z, yz), ("fast", x, yz, p1), ("fast", x, y, xy), ("fast", xy, z, p2)]
    return p1 == p2, text, products, {"emit_bytes": len(text)}


@lru_cache(maxsize=None)
def _gauss(m: int, k: int) -> dict:
    """Coefficients of the Gaussian binomial (m choose k) in q, by the
    q-Pascal rule; plain integers, independent of qschur."""
    row = [[1]]  # row[j] = (i choose j)_q for the current i
    for i in range(1, m + 1):
        new = [[1]]
        for j in range(1, min(i, k) + 1):
            left = row[j - 1]
            right = row[j] if j < len(row) else []
            size = max(len(left), len(right) + j)
            c = [0] * size
            for e, v in enumerate(left):
                c[e] += v
            for e, v in enumerate(right):
                c[e + j] += v
            new.append(c)
        row = new
    return {e: v for e, v in enumerate(row[k]) if v} if k <= m else {}


def realize_reference(op):
    """The defining sum of a realization, evaluated by the benchmark:
    sum over diagonal completions mu of v^(mu.delta) [mu choose lam]
    times the basis element A + diag(mu), with balanced binomials
    [m choose k] = v^(-k(m-k)) (m choose k)_{v^2}."""
    n, r = op["n"], op["r"]
    obj = json.loads(op["element"])
    acc: dict = defaultdict(lambda: defaultdict(int))
    for term in obj["terms"]:
        a, delta, lam = term["matrix"], term["delta"], term["lambda"]
        rest = r - sum(map(sum, a))
        for mu in _compositions(n, rest):
            poly = {sum(m * d for m, d in zip(mu, delta)): 1}
            for m, k in zip(mu, lam):
                g = _gauss(m, k)
                shift = -k * (m - k)
                prod: dict = defaultdict(int)
                for e, c in poly.items():
                    for f, v in g.items():
                        prod[e + 2 * f + shift] += c * v
                poly = {e: c for e, c in prod.items() if c}
                if not poly:
                    break
            if not poly:
                continue
            mat = tuple(tuple(a[i][j] + (mu[i] if i == j else 0) for j in range(n)) for i in range(n))
            for e, c in poly.items():
                for f, v in term["coeff"]:
                    acc[mat][e + f] += c * v
    terms = {mat: laurent.LaurentPoly({e: c for e, c in p.items() if c}) for mat, p in acc.items()}
    return SchurElement(n, r, terms)


def _compositions(n, r):
    if n == 1:
        yield (r,)
        return
    for first in range(r + 1):
        for rest in _compositions(n - 1, r - first):
            yield (first,) + rest


# -- oracle --------------------------------------------------------------------


def oracle_op(t, op, corrupt):
    left = t.call("cli.parse", parse_element, op["left"])
    right = t.call("cli.parse", parse_element, op["right"])
    formula = t.call("schur.product", general_product, left, right, ORACLE_CAP)
    oracle = t.call(f"hecke.oracle.r{op['r']}", force_oracle_product, left, right, ORACLE_CAP)
    if corrupt:
        formula = formula + SchurElement.unit(op["n"], op["r"])
    text, agree = t.call("cli.emit", emit_both, op["n"], op["r"], formula, oracle)
    products = [("fast", left, right, formula), ("oracle", left, right, oracle)]
    return agree, text, products, {"emit_bytes": len(text)}


# -- suite-sweep ---------------------------------------------------------------


def suite_op(t, op, corrupt):
    cfg = dict(op["config"], inject_failure=bool(corrupt))
    report = t.call(f"suites.{op['suite']}", run_suite, op["suite"], RunConfig(**cfg))
    ok = report["passed"] and report["instances"] == op["expected_instances"]
    # the thread count is the one config field allowed to differ between
    # otherwise identical reports (see tests/test_cli.py)
    report["config"].pop("threads", None)
    return ok, emit(report), [], {"suite_instances": (op["suite"], report["instances"])}


OPS = {
    "formula-box": formula_op,
    "degree-sweep": degree_op,
    "oracle": oracle_op,
    "suite-sweep": suite_op,
}


# -- counters the traced round computes after its timed loop -------------------


def route(a, b):
    if co(a) != ro(b):
        return None
    if is_diagonal(a) or is_diagonal(b):
        return "diagonal"
    if raising_shape(a) is not None:
        return "raising"
    if lowering_shape(a) is not None:
        return "lowering"
    return "oracle"


def tally(m: Counter, products, extra) -> None:
    """Add one operation's counts: product routes and sizes, oracle
    pairs by degree, keys, emitted bytes, largest coefficient."""
    sizes = [0]
    for engine, x, y, p in products:
        if engine == "fast":
            m["schur.terms_out"] += len(p.terms)
            for kind in (route(a, b) for a in x.terms for b in y.terms):
                if kind is not None:
                    m[f"schur.route.{kind}"] += 1
        else:
            deg = f"r{x.r}" if x.r >= 5 else "le4"
            m[f"hecke.oracle_calls.{deg}"] += sum(co(a) == ro(b) for a in x.terms for b in y.terms)
        sizes.extend(len(c.to_pairs()) for c in p.terms.values())
    for out in extra.get("outputs", ()):
        sizes.extend(len(c.to_pairs()) for c in out.terms.values())
    m["laurent.max_terms"] = max(m["laurent.max_terms"], *sizes)
    m["symbolic.keys_out"] += extra.get("keys_out", 0)
    m["cli.emit_bytes"] += extra.get("emit_bytes", 0)
    if "suite_instances" in extra:
        name, count = extra["suite_instances"]
        m[f"suites.{name}_instances"] += count


def layer_metrics(tracer, counts: Counter, wall_s, cpu, children_cpu, threads) -> dict:
    """Self time and calls per traced name, plus the tallied counts.
    Metrics a round never touches are left out; the parent reports
    them as 0."""
    totals, calls = tracer.self_times()
    m = Counter(counts)
    for name in ("torus_mult", "raising_mult", "lowering_mult", "realize", "compare"):
        m[f"symbolic.{name}_s"] = totals[f"symbolic.{name}"]
        m[f"symbolic.{name}_calls"] = calls[f"symbolic.{name}"]
    for name in ("schur.product", "cli.parse", "cli.emit"):
        m[f"{name}_s"] = totals[name]
    m["schur.product_calls"] = calls["schur.product"]
    for name, total in totals.items():
        if name.startswith("hecke.oracle."):
            m[f"hecke.oracle_s.{name.rsplit('.', 1)[1]}"] = total
        elif name.startswith("suites."):
            m[f"{name}_s"] = total
    m["suites.children_cpu_s"] = children_cpu
    m["suites.parallel_efficiency"] = cpu / (threads * wall_s)
    return dict(m)


def cpu_times():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def run_round(req: dict) -> dict:
    workload = req["workload"]
    fn = OPS[workload]
    tracer = Tracer() if req["trace"] else NullTracer()
    caches_before = cache_counts()
    lat, ok, errors, outputs = [], [], [], []
    counts: Counter = Counter()
    threads = max((op.get("config", {}).get("threads", 1) for op in req["ops"]), default=1)
    cpu0, kids0 = cpu_times()
    t0 = perf_counter()
    calib = Calibration() if threads == 1 else NoCalibration()
    for i, op in enumerate(req["ops"]):
        tracer.op = i
        start = perf_counter()
        prods = None
        try:
            good, result, prods, extra = tracer.call("bench.op", fn, tracer, op, req["corrupt"] and i == 0)
        except Exception as exc:  # any failure of one operation is counted, not fatal
            good, result = False, None
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        lat.append(perf_counter() - start)
        ok.append(good)
        outputs.append(result)
        if req["trace"] and prods is not None:
            # counted outside the operation's spans; not kept, so the
            # traced round holds no more live objects than an untraced one
            tally(counts, prods, extra)
        calib.tick(lat[-1])
    ref_lat = calib.rescale(lat)
    wall_s = perf_counter() - t0 - calib.wall
    cpu1, kids1 = cpu_times()
    caches_after = cache_counts()
    for i, good in enumerate(ok):
        if callable(good):
            try:
                ok[i] = good()
            except Exception as exc:  # a check that cannot run is a failed check
                ok[i] = False
                errors.append(f"op {i} check: {type(exc).__name__}: {exc}")
    digest = hashlib.sha256()
    for i, (good, result) in enumerate(zip(ok, outputs)):
        if callable(result):
            result = json.dumps(result(), sort_keys=True)
        digest.update(f"{i}:{good}:{result}\n".encode())
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    cpu_s = (cpu1 - cpu0 - calib.cpu) + (kids1 - kids0)
    reply = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_cpu_s": cpu_s * sum(ref_lat) / sum(lat),
        "children_cpu_s": kids1 - kids0,
        "speed": calib.speed(),
        "rss_mb": rss_kb / 1024.0,
        "lat": lat,
        "ref_lat": ref_lat,
        "ok": ok,
        "errors": errors[:10],
        "digest": digest.hexdigest(),
        "caches": {
            k: [caches_after[k][0] - caches_before[k][0], caches_after[k][1] - caches_before[k][1]]
            for k in caches_after
        },
    }
    if req["trace"]:
        reply["layers"] = layer_metrics(tracer, counts, wall_s, reply["cpu_s"], reply["children_cpu_s"], threads)
        if req.get("spans_path"):
            with open(req["spans_path"], "w", encoding="utf-8") as fh:
                json.dump({"workload": workload, "spans": tracer.spans}, fh)
    return reply


def main() -> int:
    if "--setup-only" in sys.argv[1:]:
        sys.stdout.write(json.dumps({"imported_at": IMPORTED_AT}) + "\n")
        return 0
    req = json.loads(sys.stdin.read())
    sys.stdout.write(json.dumps(run_round(req)) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
