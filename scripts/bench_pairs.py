#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare.

    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 10 --seed 41 \\
        --workload formula-box --workload oracle [--seconds 20] [--trace 0]

PARENT and CHANGE are checkout directories, each with its own
perfbench/run.py, which runs from its own directory and is not
modified.  Pair i (from 1) runs the parent first when i is odd and the
change first when i is even.  For every workload and metric the script
prints each side's median and quartiles (statistics.quantiles,
inclusive), the relative change of the median ("worse by", positive when
the change is worse), the pairs the change won, and whether a claimed
gain would hold: at least 9 of 10 pairs won and the medians further
apart than the parent's interquartile range.  A metric's direction and
bound are read from the change's BENCHMARK.json; a median worse than
the parent's by more than its bound is flagged.  A run that is not correct or
has failed operations is reported and counts as a loss for its side,
and the output digests of all runs on both sides are compared.  For
each side the script prints how many runs matched the golden digest
that perfbench/golden.json records for the seed, or says that the seed
has none.  Wherever the two sides' records differ in a table's
cache_counts ([hits, misses] over one round), it prints each side's
counts for that table.  Each workload's summary also gives the
bytecode state both sides start it in: PYTHONDONTWRITEBYTECODE and how
many src/qschur modules have bytecode cached for this interpreter,
flagged when the sides differ, since compiling the modules lands in
setup_s.  With --json the per-run values go to a file as well.

The exit status is 0 when every run on both sides was correct with no
failed operations, every workload gave one output digest over both
sides, and no median was worse than its bound; otherwise it is 1, after
the full report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if res.returncode == 0 and lines else {}
    record = {}
    if out:
        path = os.path.join(checkout, ".perfbench-out", f"record-{workload}-seed{seed}-trace{trace}.json")
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    ok = out.get("correct") is True and out.get("failed") == 0
    return {"ok": ok, "digest": record.get("digest"), "golden": record.get("golden_digest"),
            "caches": record.get("cache_counts") or {},
            "metrics": {k: v["value"] for k, v in out.get("metrics", {}).items()}}


def bytecode_state(checkout: str) -> tuple:
    """(src/qschur modules, those with bytecode cached for this interpreter)."""
    src = os.path.join(checkout, "src", "qschur")
    modules = [name[:-3] for name in os.listdir(src) if name.endswith(".py")]
    tag = sys.implementation.cache_tag
    cached = sum(os.path.exists(os.path.join(src, "__pycache__", f"{m}.{tag}.pyc")) for m in modules)
    return len(modules), cached


def directions(checkout: str) -> tuple[dict, dict]:
    """Each metric's direction, and the bound of each end-to-end metric."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return {m["name"]: m["better"] for m in metrics}, {m["name"]: m["bound"] for m in metrics if "bound" in m}


def summary(values: list) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3 if values else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's metrics to this file")
    args = parser.parse_args()
    better, bounds = directions(args.change)
    record = {}
    failed = False
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        bytecode = {side: bytecode_state(getattr(args, side)) for side in runs}
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, args.seed, args.seconds, args.trace))
            print(f"{workload} pair {i}/{args.pairs} done", file=sys.stderr)
        record[workload] = dict(runs, bytecode={side: {"modules": m, "cached": c} for side, (m, c) in bytecode.items()})
        bad = {side: sum(not r["ok"] for r in rs) for side, rs in runs.items()}
        digests = {json.dumps(r["digest"]) for rs in runs.values() for r in rs}
        print(f"== {workload} (seed {args.seed}, {args.pairs} pairs, trace {args.trace}); "
              f"runs not correct: parent {bad['parent']}, change {bad['change']}; "
              f"distinct digests over both sides: {len(digests)}")
        failed |= any(bad.values()) or len(digests) > 1
        if any(r["golden"] for rs in runs.values() for r in rs):
            matched = {side: sum(r["golden"] is not None and r["digest"] == r["golden"] for r in rs)
                       for side, rs in runs.items()}
            print(f"golden digest matched: parent {matched['parent']} of {args.pairs} runs, "
                  f"change {matched['change']} of {args.pairs} runs")
        else:
            print(f"seed {args.seed} has no golden digest in perfbench/golden.json")
        for name in sorted({k for rs in runs.values() for r in rs for k in r["caches"]}):
            seen = {side: " ".join(sorted({json.dumps(r["caches"].get(name)) for r in rs}))
                    for side, rs in runs.items()}
            if seen["parent"] != seen["change"]:
                print(f"cache_counts {name} [hits, misses]: parent {seen['parent']} -> change {seen['change']}")
        (pm, pc), (cm, cc) = bytecode.values()
        differ = " -- the sides differ, so setup_s compares unlike imports" if pm - pc != cm - cc else ""
        print(f"bytecode at start: PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', 'unset')}; "
              f"cached src/qschur modules: parent {pc} of {pm}, change {cc} of {cm}{differ}")
        names = sorted({k for rs in runs.values() for r in rs for k in r["metrics"]})
        for name in names:
            sign = -1 if better.get(name, "lower") == "higher" else 1
            vals = {side: [r["metrics"].get(name) if r["ok"] else None for r in rs] for side, rs in runs.items()}
            wins = sum(c is not None and (p is None or sign * (c - p) < 0)
                       for p, c in zip(vals["parent"], vals["change"]))
            (pm, p1, p3), (cm, c1, c3) = (summary([x for x in vals[s] if x is not None]) for s in runs)
            worse = sign * (cm - pm) / abs(pm) if pm else float("nan")
            # a gain holds when 9 of 10 pairs are won and the medians lie
            # further apart than the parent's quartiles
            claim = "holds" if 10 * wins >= 9 * args.pairs and sign * (pm - cm) > p3 - p1 else "fails"
            bound = bounds.get(name)
            over = bound is not None and worse > bound
            failed |= over
            flag = f"; WORSE THAN ITS BOUND {bound}" if over else ""
            print(f"{name}: parent {pm:.5g} [{p1:.5g}, {p3:.5g}] -> change {cm:.5g} [{c1:.5g}, {c3:.5g}]; "
                  f"worse by {worse:+.4f}; parent IQR {p3 - p1:.5g}; change wins {wins} of {args.pairs}; "
                  f"claim rule {claim}{flag}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
