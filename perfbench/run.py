#!/usr/bin/env python3
"""The qschur benchmark: one fixed-seed, stdlib-only harness.

    python3 perfbench/run.py --workload formula-box --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it uses the sources under `src/`
as they are and installs nothing.  Workloads (see BENCHMARK.json for
why each exists):

  formula-box   dense sub-boxes of the formula1/formula2 cores, n=2,3
  degree-sweep  structured products at degree 40-120 checked by
                associativity, plus large-degree realizations
  oracle        `multiply --mode both` at degree 5-7 (coset oracle)
  suite-sweep   `run_suite` over the fast acceptance rows, threads=nproc

A run is a fixed number of rounds, set by --seconds; each round is a
fresh interpreter (perfbench/worker.py), so the library's caches start
cold every time, as they do for every `qschur` CLI call.  The timed
end-to-end metrics (ref_*) are at the speed of a reference loop that
each round times between its operations, which cancels the drift of a
shared machine's speed (see worker.py; suite-sweep, whose operations
run on a process pool, is not rescaled); the raw times go to the run
record.  With --trace 0 the run reports the end-to-end metrics as
medians over its rounds; with --trace 1 it alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones
plus the tracing overhead.  Every operation is checked for an exact
result, every round's output digest must match the others (and the
digest recorded in perfbench/golden.json for this seed, when there is
one), and the exact cache counts must repeat from round to round.

The last line of stdout is the JSON result; the run record (machine,
load, digest, percentiles, cache counts) goes to stderr and, with the
spans of a traced run, to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import WORKLOADS, make_ops  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
GOLDEN = os.path.join(HERE, "golden.json")

# Approximate seconds of one round on a 2-CPU Xeon; --seconds divided
# by this gives the fixed round count, so the amount of work (and every
# pooled percentile) depends only on --seconds, not on machine speed.
ROUND_SECONDS = {"formula-box": 5.0, "degree-sweep": 5.0, "oracle": 5.0, "suite-sweep": 10.0}
# Interpreter starts per run that setup_s is the median of: one per
# round, the rest setup-only.
SETUP_SAMPLES = 12
ROUND_TIMEOUT_S = 150
TAIL_BEYOND = 10

# Per-operation latency (median and tail) goes to the run record only:
# over ten seeds its spread reached 0.26-0.27 of its median on
# degree-sweep (18 distinct operations per round, so the median and tail
# jump between operations), and on suite-sweep an operation is a whole
# suite.  Every workload must report every metric listed here.  The raw
# wall and CPU times drifted by a quarter between runs of the same code
# and go to the run record; the ref_* metrics are gated instead.
END_TO_END = {
    "setup_s": "s",
    "ref_wall_s": "s",
    "ref_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ref_cpu_s": "s",
}

CACHE_NAMES = (
    "schur.multiply_raising",
    "schur.multiply_lowering",
    "schur.diag_sum",
    "laurent.unbalanced_binomial",
    "laurent.balanced_binomial",
    "laurent.balanced_trinomial",
    "laurent.balanced_factorial",
    "laurent.unbalanced_factorial",
    "hecke.x_lambda",
    "hecke.coset_tables",
)


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in ("torus_mult", "raising_mult", "lowering_mult", "realize"):
        units[f"symbolic.{name}_s"] = "s"
        units[f"symbolic.{name}_calls"] = "count"
    units["symbolic.compare_s"] = "s"
    units["symbolic.keys_out"] = "count"
    units["schur.product_s"] = "s"
    units["schur.product_calls"] = "count"
    units["schur.terms_out"] = "count"
    for route in ("diagonal", "raising", "lowering", "oracle"):
        units[f"schur.route.{route}"] = "count"
    for cache in CACHE_NAMES:
        units[f"{cache}.misses"] = "count"
        units[f"{cache}.lookups"] = "count"
        units[f"{cache}.hit_rate"] = "ratio"
    units["laurent.max_terms"] = "count"
    for deg in ("le4", "r5", "r6", "r7"):
        units[f"hecke.oracle_s.{deg}"] = "s"
        units[f"hecke.oracle_calls.{deg}"] = "count"
    units["cli.parse_s"] = "s"
    units["cli.emit_s"] = "s"
    units["cli.emit_bytes"] = "count"
    for suite in (
        "binomials",
        "transfer-formulas",
        "formula2",
        "relations",
        "triangular",
        "pbw-independence",
        "specialization",
        "closure",
    ):
        units[f"suites.{suite}_s"] = "s"
        units[f"suites.{suite}_instances"] = "count"
    units["suites.children_cpu_s"] = "s"
    units["suites.parallel_efficiency"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def cpu_model() -> str:
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def loadavg() -> float | None:
    text = read_text("/proc/loadavg")
    return float(text.split()[0]) if text else None


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = read_text(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = read_text(os.path.join(ROOT, ".git", ref))
        if sha:
            return sha.strip()
        for line in (read_text(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return "unknown"
    return head


def spawn(args: list[str], stdin_text: str | None) -> tuple[float, dict]:
    """Start a worker, wait for it, and return (spawn time, reply)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(stdin_text, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out after {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that still
    has TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    n = len(s)
    k = max(0, n - TAIL_BEYOND - 1)
    return s[k], 100.0 * (k + 1) / n, n


def typical_wall(rounds: list[dict], key: str = "ref_lat") -> float:
    """Time for the whole operation list: the sum over operations of
    each one's median latency across rounds.  Rounds repeat the same
    operations, so the per-operation median discards the bursts in which
    a shared machine runs everything slower, at operation granularity."""
    return sum(statistics.median(lats) for lats in zip(*(r[key] for r in rounds)))


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    threads = nproc()
    ops = make_ops(workload, seed, threads)
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    plan = [False] * rounds
    if trace:
        half = max(1, rounds // 2)
        plan = [False, True] * half
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")

    load_start = loadavg()
    replies, setup, errors = [], [], []
    # setup-only starts spread between the rounds, so setup_s samples the
    # whole run rather than one stretch of it
    extra = max(0, SETUP_SAMPLES - len(plan))
    for k, traced in enumerate(plan):
        for _ in range(extra * (k + 1) // len(plan) - extra * k // len(plan)):
            t_spawn, reply = spawn(["--setup-only"], None)
            setup.append(reply["imported_at"] - t_spawn)
        req = {
            "workload": workload,
            "ops": ops,
            "trace": traced,
            "corrupt": False,
            "spans_path": spans_path if traced else None,
        }
        try:
            t_spawn, reply = spawn([], json.dumps(req))
        except RuntimeError as exc:
            errors.append(str(exc))
            replies.append(None)
            continue
        setup.append(reply["imported_at"] - t_spawn)
        reply["traced"] = traced
        replies.append(reply)
    load_end = loadavg()

    attempted = len(ops) * len(plan)
    good = [r for r in replies if r is not None]
    failed = len(ops) * (len(replies) - len(good))
    digests = sorted({r["digest"] for r in good})
    golden = json.loads(read_text(GOLDEN) or "{}").get(workload, {}).get(str(seed))
    reference = golden or (good[0]["digest"] if good else None)
    for r in good:
        bad = sum(1 for ok in r["ok"] if not ok)
        errors.extend(r["errors"])
        # a digest or exact counter that does not repeat is one more
        # failed operation in the round it came from
        if r["digest"] != reference:
            bad += 1
            errors.append(f"digest {r['digest'][:16]} differs from {reference[:16]}")
        if r["caches"] != good[0]["caches"]:
            bad += 1
            errors.append("cache counts differ between rounds")
        failed += min(bad, len(ops))

    plain = [r for r in good if not r["traced"]]
    lat = [x for r in plain for x in r["lat"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(plan),
        "python": platform.python_version(),
        "nproc": threads,
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "noisy": any(x is not None and x > threads for x in (load_start, load_end)),
        "digest": digests[0] if len(digests) == 1 else digests,
        "golden_digest": golden,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": errors[:10],
        "cache_counts": good[0]["caches"] if good else None,
        "round_wall_s": [r["wall_s"] for r in good],
        "round_speed": [r["speed"] for r in good],
        "setup_samples_s": setup,
    }
    metrics: dict = {}
    if not plain:
        return metrics, record
    if not trace:
        value, pct, count = tail(lat)
        record["op_p50_ms"] = 1000.0 * statistics.median(lat)
        record["op_tail_ms"] = {"value": 1000.0 * value, "percentile": pct, "samples": count, "beyond": TAIL_BEYOND}
        record["wall_s"] = typical_wall(plain, "lat")
        record["cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        wall = typical_wall(plain)
        values = {
            "setup_s": statistics.median(setup),
            "ref_wall_s": wall,
            "ref_ops_per_s": len(ops) / wall,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "ref_cpu_s": statistics.median(r["ref_cpu_s"] for r in plain),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        return metrics, record
    traced = [r for r in good if r["traced"]]
    if not traced:
        return metrics, record
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    for cache in CACHE_NAMES:
        hits, misses = traced[0]["caches"][cache]
        layers[f"{cache}.misses"] = misses
        layers[f"{cache}.lookups"] = hits + misses
        layers[f"{cache}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    layers["trace.overhead_frac"] = typical_wall(traced) / typical_wall(plain) - 1.0
    record["spans_file"] = os.path.relpath(spans_path, ROOT)
    metrics = {k: {"value": layers.get(k, 0), "unit": unit} for k, unit in per_layer_units().items()}
    return metrics, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qschur", "__init__.py")):
        sys.stderr.write("perfbench: no src/qschur in this checkout; nothing to measure\n")
        return 2
    metrics, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record_path = os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    sys.stderr.write(json.dumps(record, indent=2) + "\n")
    if not metrics:
        sys.stderr.write("perfbench: no round finished; no metrics to report\n")
        return 1
    for name, m in metrics.items():
        print(f"{name:40} {m['value']:>16.6g} {m['unit']}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
