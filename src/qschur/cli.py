"""Command line interface.

Three subcommands:

  multiply   product of two explicit elements, formula and oracle engines
  expand     realize a symbolic element through a range of degrees
  verify     run one of the named verification suites

Reports go to stdout as JSON and are byte identical for identical
arguments.  A short human summary, including wall time, goes to stderr
so it never perturbs the JSON stream.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 dimension mismatch, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .config import RunConfig, threads_from_env
from .errors import DimensionMismatch, DomainError, ParseError, ResourceLimit
from .laurent import LaurentPoly
from .matrices import entry_sum
from .schur import SchurElement, force_oracle_product, general_product
from .symbolic import SymbolicElement, TruncatedElement, delta_reduce
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DIMENSION = 3
EXIT_CAP = 4


def _is_int(x) -> bool:
    # JSON integers only: bool is an int subclass, and floats or strings
    # must not be coerced
    return type(x) is int


def _coeff_from_json(obj) -> LaurentPoly:
    if _is_int(obj):
        return LaurentPoly.from_int(obj)
    if isinstance(obj, list) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in obj
    ):
        return LaurentPoly.from_pairs(obj)
    raise ParseError(f"bad coefficient: {obj!r}")


def _matrix_from_json(obj) -> tuple[tuple[int, ...], ...]:
    if not isinstance(obj, list) or not obj:
        raise ParseError("matrix must be a nonempty list of rows")
    for row in obj:
        if not isinstance(row, list) or len(row) != len(obj):
            raise ParseError("matrix must be square")
        if not all(map(_is_int, row)):
            raise ParseError(f"bad matrix row: {row!r}")
    return tuple(tuple(row) for row in obj)


def _vector_from_json(obj, n: int) -> tuple[int, ...]:
    if not isinstance(obj, list) or len(obj) != n:
        raise ParseError(f"vector must be a list of length {n}")
    if not all(map(_is_int, obj)):
        raise ParseError(f"bad vector: {obj!r}")
    return tuple(obj)


def _term_matrix(term, n: int, keys: set[str]) -> tuple[tuple[int, ...], ...]:
    if not isinstance(term, dict) or "matrix" not in term:
        raise ParseError("each term needs a 'matrix'")
    if not term.keys() <= keys:
        raise ParseError(f"unknown term keys {sorted(term.keys() - keys)}")
    a = _matrix_from_json(term["matrix"])
    if len(a) != n:
        raise DimensionMismatch(f"matrix size {len(a)} does not match n={n}")
    if any(x < 0 for row in a for x in row):
        raise ParseError("term matrices must be nonnegative")
    return a


def parse_element(text: str):
    """Parse an element from JSON text.

    Two shapes are accepted.  A basis expansion at fixed degree:

        {"n": 2, "r": 3, "terms": [{"matrix": [[2,0],[1,0]],
                                    "coeff": [[0, 1]]}]}

    and a symbolic combination of generators, degree free:

        {"n": 2, "terms": [{"matrix": [[0,1],[0,0]], "delta": [0,-1],
                            "lambda": [1,0], "coeff": [[2, 1]]}]}

    Coefficients are integers or lists of [exponent, coefficient]
    pairs.  Every number must be a JSON integer; floats, strings and
    booleans are rejected, never coerced, and so is any key outside
    these shapes.  The result is a SchurElement or a SymbolicElement.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "terms" not in obj or "n" not in obj:
        raise ParseError("element must be an object with 'n' and 'terms'")
    if not obj.keys() <= {"n", "r", "terms"}:
        raise ParseError(f"unknown element keys {sorted(obj.keys() - {'n', 'r', 'terms'})}")
    n = obj["n"]
    if not _is_int(n):
        raise ParseError("'n' must be an integer")
    if n < 2:
        raise ParseError("'n' must be at least 2")
    terms = obj["terms"]
    if not isinstance(terms, list):
        raise ParseError("'terms' must be a list")

    if "r" in obj:
        r = obj["r"]
        if not _is_int(r):
            raise ParseError("'r' must be an integer")
        if r < 0:
            raise ParseError("'r' must be nonnegative")
        el = SchurElement.zero(n, r)
        for term in terms:
            a = _term_matrix(term, n, {"matrix", "coeff"})
            if entry_sum(a) != r:
                raise DimensionMismatch(
                    f"matrix weight {entry_sum(a)} does not match r={r}"
                )
            el.add_into(a, _coeff_from_json(term.get("coeff", 1)))
        return el

    el = SymbolicElement.zero(n)
    for term in terms:
        a = _term_matrix(term, n, {"matrix", "delta", "lambda", "coeff"})
        delta = _vector_from_json(term.get("delta", [0] * n), n)
        lam = _vector_from_json(term.get("lambda", [0] * n), n)
        if any(x < 0 for x in lam):
            raise ParseError("'lambda' entries must be nonnegative")
        coeff = _coeff_from_json(term.get("coeff", 1))
        SymbolicElement.gen(a, delta, lam)  # validates the key
        el.add_into((a, delta, lam), coeff)
    return el


def _read_element_arg(text: str):
    source = "stdin" if text == "-" else text[1:]
    try:
        if text == "-":
            text = sys.stdin.read()
        elif text.startswith("@"):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    return parse_element(text)


def _emit(report: dict, summary: str, started: float) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2))
    sys.stdout.write("\n")
    elapsed = time.monotonic() - started
    sys.stderr.write(f"{summary} ({elapsed:.2f}s wall)\n")


def _cmd_multiply(args, started: float) -> int:
    RunConfig(r_max=args.rmax, oracle_cap=args.oracle_cap).validate()
    left = _read_element_arg(args.left)
    right = _read_element_arg(args.right)
    if isinstance(left, SchurElement) != isinstance(right, SchurElement):
        raise ParseError(
            "both elements must have the same shape (fixed degree or symbolic)"
        )
    if left.n != right.n:
        raise DimensionMismatch(f"n mismatch: {left.n} vs {right.n}")
    if isinstance(left, SchurElement):
        if left.r != right.r:
            raise DimensionMismatch(f"degree mismatch: {left.r} vs {right.r}")
        if args.rmax is not None:
            raise ParseError("--rmax applies to symbolic elements only")
        out: dict = {"n": left.n, "r": left.r}
        summary = f"multiply: degree {left.r}, mode {args.mode}"
        engines = {"formula": general_product, "oracle": force_oracle_product}

        def show(prod):
            return prod.to_json_obj()["terms"]
    else:
        if args.rmax is None:
            raise ParseError("--rmax is required for symbolic elements")
        out = {"n": left.n, "r_max": args.rmax}
        summary = f"multiply: symbolic through degree {args.rmax}"
        left = left.realize_truncated(args.rmax)
        right = right.realize_truncated(args.rmax)
        engines = {
            "formula": lambda x, y, cap: x.multiply(y, cap=cap, engine="fast"),
            "oracle": lambda x, y, cap: x.multiply(y, cap=cap, engine="oracle"),
        }
        show = TruncatedElement.to_json_obj
    out["engines"] = {
        name: show(engines[name](left, right, args.oracle_cap))
        for name in ("formula", "oracle")
        if args.mode in (name, "both")
    }
    if args.mode == "both":
        out["agree"] = out["engines"]["formula"] == out["engines"]["oracle"]
    _emit(out, summary, started)
    return EXIT_VERIFY if out.get("agree") is False else EXIT_OK


def _cmd_expand(args, started: float) -> int:
    RunConfig(r_max=args.rmax).validate()
    el = _read_element_arg(args.element)
    if isinstance(el, SchurElement):
        raise ParseError("expand takes a symbolic element (no fixed 'r')")
    if args.delta_reduce:
        el = delta_reduce(el)
    out: dict = {"n": el.n, "symbolic": el.to_json_obj()}
    if args.rmax is not None:
        real = el.realize_truncated(args.rmax)
        out["r_max"] = args.rmax
        out["realization"] = real.to_json_obj()
    _emit(
        out,
        "expand: "
        + (
            f"realized through degree {args.rmax}"
            if args.rmax is not None
            else "symbolic only"
        ),
        started,
    )
    return EXIT_OK


def _cmd_verify(args, started: float) -> int:
    cfg = RunConfig(
        n=args.n,
        r_max=args.rmax,
        oracle_cap=args.oracle_cap,
        seed=args.seed,
        l=args.l,
        bound=args.bound,
        random_instances=args.random_instances,
        threads=args.threads if args.threads is not None else threads_from_env(),
        inject_failure=args.inject_failure,
    )
    report = run_suite(args.suite, cfg)
    _emit(
        report,
        f"verify {args.suite}: "
        + ("pass" if report["passed"] else "FAIL")
        + f", {report['instances']} instances,"
        + f" {report['failure_count']} failures",
        started,
    )
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="exact products and verification for q-Schur algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mult = sub.add_parser(
        "multiply", help="multiply two elements given as JSON"
    )
    mult.add_argument("left", help="JSON text, @file, or - for stdin")
    mult.add_argument("right", help="JSON text, @file, or - for stdin")
    mult.add_argument(
        "--mode", choices=("formula", "oracle", "both"), default="formula"
    )
    mult.add_argument("--rmax", type=int, default=None,
                      help="truncation degree for symbolic elements")
    mult.add_argument("--oracle-cap", dest="oracle_cap", type=int,
                      default=RunConfig().oracle_cap)

    exp = sub.add_parser(
        "expand", help="normalize and realize a symbolic element"
    )
    exp.add_argument("element", help="JSON text, @file, or - for stdin")
    exp.add_argument("--delta-reduce", action="store_true",
                     help="rewrite so torus exponents lie in {0,1}")
    exp.add_argument("--rmax", type=int, default=None,
                     help="also realize through this degree")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=SUITE_NAMES)
    ver.add_argument("--n", type=int, default=2)
    ver.add_argument("--rmax", type=int, default=None,
                     help="truncation degree (suite default if omitted)")
    ver.add_argument("--oracle-cap", dest="oracle_cap", type=int,
                     default=RunConfig().oracle_cap)
    ver.add_argument("--seed", type=int, default=RunConfig().seed)
    ver.add_argument("--l", type=int, default=RunConfig().l,
                     help="odd specialization order")
    ver.add_argument("--bound", type=int, default=RunConfig().bound,
                     help="weight bound for indexed families")
    ver.add_argument("--random-instances", dest="random_instances", type=int,
                     default=RunConfig().random_instances)
    ver.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: QSCHUR_THREADS or 1)")
    ver.add_argument("--inject-failure", dest="inject_failure",
                     action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        if args.command == "multiply":
            return _cmd_multiply(args, started)
        if args.command == "expand":
            return _cmd_expand(args, started)
        return _cmd_verify(args, started)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except DimensionMismatch as exc:
        sys.stderr.write(f"dimension mismatch: {exc}\n")
        return EXIT_DIMENSION
    except ResourceLimit as exc:
        sys.stderr.write(f"resource cap exceeded: {exc}\n")
        return EXIT_CAP
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
