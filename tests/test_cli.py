import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qschur import cli
from qschur.config import RunConfig, threads_from_env
from qschur.errors import DomainError


def run_cli(*args, env_extra=None, stdin=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qschur", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=600,
    )


ELEMENT_A = json.dumps(
    {"n": 2, "r": 2, "terms": [{"matrix": [[1, 0], [1, 0]], "coeff": 1}]}
)
ELEMENT_B = json.dumps(
    {"n": 2, "r": 2, "terms": [{"matrix": [[1, 1], [0, 0]], "coeff": 1}]}
)
SYMBOLIC = json.dumps(
    {
        "n": 2,
        "terms": [
            {"matrix": [[0, 1], [0, 0]], "delta": [0, -1], "lambda": [1, 0],
             "coeff": [[2, 1]]}
        ],
    }
)


def test_multiply_engines_agree():
    res = run_cli("multiply", ELEMENT_A, ELEMENT_B, "--mode", "both")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["agree"]
    assert out["engines"]["formula"] == out["engines"]["oracle"]
    assert "wall" in res.stderr


def test_multiply_reads_stdin():
    res = run_cli("multiply", "-", ELEMENT_B, stdin=ELEMENT_A)
    assert res.returncode == 0
    assert json.loads(res.stdout)["engines"]["formula"]


def test_symbolic_multiply_requires_rmax():
    res = run_cli("multiply", SYMBOLIC, SYMBOLIC)
    assert res.returncode == 2
    res = run_cli("multiply", SYMBOLIC, SYMBOLIC, "--rmax", "3", "--mode", "both")
    assert res.returncode == 0
    assert json.loads(res.stdout)["agree"]


def test_expand_reduces_and_realizes():
    res = run_cli("expand", SYMBOLIC, "--delta-reduce", "--rmax", "2")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    for term in out["symbolic"]:
        assert all(d in (0, 1) for d in term["delta"])
    assert out["realization"]["r_max"] == 2


def test_expand_takes_no_oracle_cap():
    # realization never reaches the oracle; the option is gone, and the
    # output is the same bytes as when it was accepted and ignored
    element = json.dumps(
        {
            "n": 2,
            "terms": [
                {"matrix": [[0, 1], [0, 0]], "delta": [3, -2], "lambda": [1, 0],
                 "coeff": [[2, 1]]},
                {"matrix": [[0, 0], [1, 0]], "delta": [0, 2], "lambda": [0, 1],
                 "coeff": [[0, 1], [1, -2]]},
            ],
        }
    )
    args = ("expand", element, "--delta-reduce", "--rmax", "3")
    res = run_cli(*args, "--oracle-cap", "7")
    assert res.returncode == 2
    assert res.stdout == ""
    res = run_cli(*args)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "538ff8bebb7542edf0b787ae75ecd74e1304a5e1a5d4e2d32bf8ca7e02fcc08e"
    )


def test_parse_error_exit_code():
    res = run_cli("multiply", "not json", "{}")
    assert res.returncode == 2
    assert res.stdout == ""


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    assert cli.main(["multiply", f"@{deep}", f"@{deep}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: invalid JSON") and "Traceback" not in err


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert cli.main(["multiply", f"@{bad}", ELEMENT_B]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: cannot read {bad}")
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert cli.main(["multiply", "-", ELEMENT_B]) == 2
    assert capsys.readouterr().err.startswith("parse error: cannot read stdin")


def _fixed(n=2, r=2, matrix=((1, 0), (1, 0)), coeff=1):
    return json.dumps(
        {"n": n, "r": r, "terms": [{"matrix": matrix, "coeff": coeff}]}
    )


@pytest.mark.parametrize(
    "command, element",
    [
        ("multiply", _fixed(n=2.5)),
        ("multiply", _fixed(r=True, matrix=[[1, 0], [0, 0]])),
        ("multiply", _fixed(matrix=[["1", 1.9], [0, 0]])),
        ("multiply", _fixed(coeff=True)),
        ("multiply", _fixed(coeff=[[0, 2.7]])),
        ("expand", json.dumps(
            {"n": 2, "terms": [{"matrix": [[0, 1], [0, 0]], "delta": [0, -1.0]}]}
        )),
    ],
    ids=["n-float", "r-bool", "matrix-str-float", "coeff-bool", "coeff-float",
         "delta-float"],
)
def test_non_integer_numbers_are_rejected(command, element):
    # every number in an element must be a JSON integer; int() used to
    # coerce each of these and exit 0
    operands = (element, element) if command == "multiply" else (element,)
    res = run_cli(command, *operands)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""


NEGATIVE_ENTRY = json.dumps({"n": 2, "terms": [{"matrix": [[0, -1], [0, 0]]}]})


@pytest.mark.parametrize(
    "args",
    [
        ("expand", NEGATIVE_ENTRY, "--rmax", "1"),
        ("expand", NEGATIVE_ENTRY),
        ("multiply", NEGATIVE_ENTRY, NEGATIVE_ENTRY, "--rmax", "1"),
        ("multiply", SYMBOLIC, NEGATIVE_ENTRY, "--rmax", "1"),
    ],
    ids=["expand-rmax", "expand", "multiply-both", "multiply-right"],
)
def test_negative_symbolic_entries_are_rejected(args):
    # such a term used to be dropped without a word: the element read as
    # zero and the command printed an empty result with exit 0
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert "parse error" in res.stderr


FIXED_WITH_TORUS = json.dumps(
    {"n": 2, "r": 1, "terms": [{"matrix": [[0, 1], [0, 0]], "delta": [5, 5], "lambda": [1, 1]}]}
)
FIXED_DIAGONAL = json.dumps({"n": 2, "r": 1, "terms": [{"matrix": [[0, 0], [0, 1]]}]})


@pytest.mark.parametrize(
    "args",
    [
        ("multiply", FIXED_WITH_TORUS, FIXED_DIAGONAL),
        ("multiply", json.dumps({**json.loads(ELEMENT_A), "extra": 5}), ELEMENT_B),
        ("expand", json.dumps({"n": 2, "terms": [{"matrix": [[0, 1], [0, 0]], "r": 3}]})),
        ("expand", json.dumps({"n": 2, "terms": [{"matrix": [[0, 1], [0, 0]], "coef": 2}]})),
        ("multiply", ELEMENT_A, ELEMENT_B, "--rmax", "3"),
    ],
    ids=["fixed-term-torus-keys", "element-extra-key", "symbolic-term-r",
         "symbolic-term-typo", "fixed-degree-rmax"],
)
def test_ignored_input_is_rejected(args):
    # each of these used to be dropped without a word, with exit 0
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert "parse error" in res.stderr


def test_dimension_mismatch_exit_code():
    other = json.dumps({"n": 2, "r": 3, "terms": []})
    res = run_cli("multiply", ELEMENT_A, other)
    assert res.returncode == 3


def test_cap_exit_code():
    big = json.dumps(
        {"n": 2, "r": 9, "terms": [{"matrix": [[5, 0], [4, 0]], "coeff": 1}]}
    )
    big2 = json.dumps(
        {"n": 2, "r": 9, "terms": [{"matrix": [[4, 5], [0, 0]], "coeff": 1}]}
    )
    res = run_cli("multiply", big, big2, "--oracle-cap", "3", "--mode", "oracle")
    assert res.returncode == 4


def test_negative_multiply_cap_exit_code():
    # a negative cap is bad usage, as for verify, not an exceeded cap
    res = run_cli("multiply", ELEMENT_A, ELEMENT_B, "--mode", "oracle", "--oracle-cap", "-1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "domain error" in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("multiply", SYMBOLIC, SYMBOLIC, "--rmax", "-1"),
        ("multiply", SYMBOLIC, SYMBOLIC, "--rmax", "-2", "--mode", "both"),
        ("expand", SYMBOLIC, "--rmax", "-1"),
        ("expand", SYMBOLIC, "--rmax", "-2"),
        ("verify", "closure", "--rmax", "-1"),
    ],
)
def test_negative_rmax_is_a_usage_error(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "domain error" in res.stderr


def test_usage_exit_code():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_verify_passes_and_is_byte_identical():
    args = ("verify", "closure", "--n", "2", "--random-instances", "6")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["passed"]
    # human summary and timing stay on stderr
    assert "wall" in first.stderr and "wall" not in first.stdout


def test_verify_failure_exit_code():
    res = run_cli(
        "verify", "relations", "--n", "2", "--rmax", "2", "--inject-failure"
    )
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert not out["passed"]
    assert out["failure_count"] >= 1


@pytest.mark.parametrize("option", [("--l", "4"), ("--n", "1"), ("--threads", "0")])
def test_invalid_verify_config_exit_code(option):
    res = run_cli("verify", "closure", *option)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "domain error" in res.stderr


def test_threads_env_is_honored(monkeypatch):
    monkeypatch.setenv("QSCHUR_THREADS", "3")
    assert threads_from_env() == 3
    for bad in ("zebra", "0", "-3"):
        monkeypatch.setenv("QSCHUR_THREADS", bad)
        with pytest.raises(DomainError):
            threads_from_env()
    monkeypatch.delenv("QSCHUR_THREADS")
    assert threads_from_env() == 1


def test_thread_count_does_not_change_the_report():
    base = ("verify", "binomials", "--n", "2", "--random-instances", "4")
    one = run_cli(*base, env_extra={"QSCHUR_THREADS": "1"})
    two = run_cli(*base, env_extra={"QSCHUR_THREADS": "2"})
    assert one.returncode == two.returncode == 0
    a, b = json.loads(one.stdout), json.loads(two.stdout)
    a["config"].pop("threads")
    b["config"].pop("threads")
    assert a == b


def test_config_validation():
    with pytest.raises(DomainError):
        RunConfig(n=1).validate()
    with pytest.raises(DomainError):
        RunConfig(l=4).validate()
    with pytest.raises(DomainError):
        RunConfig(threads=0).validate()
    RunConfig().validate()


def test_acceptance_script_runs_from_any_directory(tmp_path):
    # the script finds the package next to itself, not under the
    # working directory, and needs no PYTHONPATH
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_acceptance.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script), "--suite", "triangular"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert "0 failing runs" in done.stdout
