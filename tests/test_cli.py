import json
import subprocess
import sys

import pytest

from qschur.config import RunConfig, threads_from_env
from qschur.errors import DomainError


def run_cli(*args, env_extra=None, stdin=None):
    import os

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


def test_parse_error_exit_code():
    res = run_cli("multiply", "not json", "{}")
    assert res.returncode == 2
    assert res.stdout == ""


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


def test_threads_env_is_honored(monkeypatch):
    monkeypatch.setenv("QSCHUR_THREADS", "3")
    assert threads_from_env() == 3
    monkeypatch.setenv("QSCHUR_THREADS", "zebra")
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
