import hashlib
import json
import re
from pathlib import Path

import pytest

from qschur import presentation, suites, symbolic
from qschur.config import RunConfig
from qschur.errors import DomainError, QschurError
from qschur.laurent import ONE
from qschur.suites import SUITE_NAMES, _stratum_worker, run_suite

SMALL = RunConfig(n=2, random_instances=4)

# suites cheap enough to run end to end in a unit test at rank 2;
# formula1 enumerates its full exhaustive core, so it is exercised
# through its strata below instead
CHEAP = (
    "binomials",
    "transfer-formulas",
    "formula2",
    "relations",
    "triangular",
    "pbw-independence",
    "specialization",
    "closure",
)


@pytest.mark.parametrize("name", CHEAP)
def test_suite_passes_and_serializes(name):
    rep = run_suite(name, SMALL)
    assert rep["passed"], rep["failures"][:2]
    assert rep["failure_count"] == 0
    assert rep["suite"] == name
    assert rep["instances"] > 0
    json.dumps(rep)


@pytest.mark.parametrize("name", CHEAP)
def test_injected_failure_is_caught(name):
    cfg = RunConfig(n=2, random_instances=4, inject_failure=True)
    rep = run_suite(name, cfg)
    assert not rep["passed"]
    assert rep["failure_count"] == 1
    assert rep["failures"] == [{"detail": "injected failure"}]
    assert "failure injection active" in rep["notes"]
    # the hook plants a record; it does not skip or add any check
    assert rep["instances"] == run_suite(name, SMALL)["instances"]
    json.dumps(rep)


def _doubled(x):
    return x.scale(2)


# one library function per suite, wrapped so that its result is wrong;
# only the names the checks look up are patched, never a cached
# function's body, so no cache keeps a corrupted value
PLANTED = {
    "binomials": (suites, "balanced_binomial", lambda p: p + ONE),
    "transfer-formulas": (suites, "multiply_raising", _doubled),
    "formula2": (symbolic, "raising_mult", _doubled),
    "relations": (presentation, "realize_word", _doubled),
    "triangular": (symbolic, "raising_mult", _doubled),
    "pbw-independence": (suites, "pbw_family", lambda family: family + family[:1]),
    "specialization": (suites, "specialize", _doubled),
    "closure": (suites, "delta_reduce", _doubled),
    "formula1:core": (symbolic, "torus_mult", _doubled),
}


def _plant(monkeypatch, case):
    module, name, spoil = PLANTED[case]
    original = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args, **kwargs: spoil(original(*args, **kwargs))
    )


# each a single computation that writes its own record
ONE_SHOT = ("relations", "pbw-independence")


@pytest.mark.parametrize("case", PLANTED)
def test_planted_defect_is_caught(case, monkeypatch):
    _plant(monkeypatch, case)
    if case in CHEAP:
        rep = run_suite(case, SMALL)
        failures = rep["failures"]
        assert not rep["passed"]
    else:
        count, failures = _stratum_worker((case, SMALL.to_json_obj(), 0, 3))
        assert count == 3
    assert failures
    assert {"detail": "injected failure"} not in failures
    if case in ONE_SHOT:
        return
    # every per-instance record has one shape, and its stratum and
    # index replay it alone
    for record in failures:
        assert set(record) == {"stratum", "index", "instance", "detail"}
        index = record["index"]
        replay = _stratum_worker((record["stratum"], SMALL.to_json_obj(), index, index + 1))
        assert replay == (1, [record])


def test_every_stratum_is_run_by_exactly_one_suite(monkeypatch):
    ran = []
    monkeypatch.setattr(suites, "_run_stratum", lambda cfg, key: ran.append(key) or (0, []))
    for name in SUITE_NAMES:
        run_suite(name, SMALL)
    assert sorted(ran) == sorted(suites._STRATA)


def test_reports_are_deterministic():
    a = run_suite("closure", SMALL)
    b = run_suite("closure", SMALL)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_closure_folds_are_pinned(monkeypatch):
    # the folded elements closure hands to the exponent reduction, at
    # the acceptance seed; a change in the order the words are drawn or
    # folded changes this digest
    folded = []
    original = suites.delta_reduce

    def record(y):
        folded.append(json.dumps(y.to_json_obj()))
        return original(y)

    monkeypatch.setattr(suites, "delta_reduce", record)
    assert run_suite("closure", RunConfig(n=2, seed=20260816))["passed"]
    assert len(folded) == 50
    digest = hashlib.sha256("\n".join(folded).encode()).hexdigest()
    assert digest == "634059e093842cb41c3a970b4b02519545ade8e042f53f416ccb4c6a536a6c10"


def test_seed_changes_random_strata():
    a = run_suite("closure", RunConfig(n=2, random_instances=4, seed=1))
    b = run_suite("closure", RunConfig(n=2, random_instances=4, seed=2))
    assert a["config"]["seed"] != b["config"]["seed"]
    assert a["passed"] and b["passed"]


def test_formula1_strata_directly():
    cfg = RunConfig(n=2, random_instances=5)
    count, fails = _stratum_worker(("formula1:core", cfg.to_json_obj(), 0, 40))
    assert count == 40 and fails == []
    count, fails = _stratum_worker(("formula1:random", cfg.to_json_obj(), 0, 5))
    assert count == 5 and fails == []


def test_formula_left_generators_are_realized_once_per_head():
    # formula2's core at n = 2 has four heads (E, F) x (m = 1, 2), and
    # its first instances meet all four; each left generator is one key,
    # realized from the per-key table
    count, fails = _stratum_worker(("formula2:core", SMALL.to_json_obj(), 0, 100))
    assert count == 100 and fails == []
    e = symbolic.SymbolicElement.gen(((0, 1), (0, 0)), (0, 0), (0, 0))
    before = symbolic._key_parts.cache_info()
    left = e.realize_truncated(4)
    after = symbolic._key_parts.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    unit = ((1, 0), (0, 1))
    for part in left.components:
        with pytest.raises(TypeError):
            part.add_into(unit, ONE)
    # a fresh build merges the completion table again into new parts
    symbolic._key_parts.cache_clear()
    fresh = e.realize_truncated(4)
    assert all(p is not q for p, q in zip(left.components[1:], fresh.components[1:]))
    assert left == fresh


def test_rank_defaults_are_echoed():
    rep = run_suite("relations", SMALL)
    assert rep["config"]["r_max"] == 5
    rep = run_suite("relations", RunConfig(n=2, r_max=3, random_instances=4))
    assert rep["config"]["r_max"] == 3


def test_unknown_suite_is_rejected():
    with pytest.raises(QschurError):
        run_suite("nonsense", SMALL)
    assert "formula1" in SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_validates_its_config(name):
    with pytest.raises(DomainError):
        run_suite(name, RunConfig(l=4))


def test_pbw_report_carries_the_verdict():
    rep = run_suite("pbw-independence", SMALL)
    assert rep["verdict"]["independent"]
    assert rep["stable_at_next_depth"]
    assert rep["family_size"] == rep["instances"]


def test_specialization_report_records_rank_comparison():
    rep = run_suite("specialization", SMALL)
    assert rep["rank_after_specialization"] <= rep["rank_before_specialization"]
    assert rep["verdict"]["independent"]


def test_transfer_formulas_at_rank_four():
    rep = run_suite("transfer-formulas", RunConfig(n=4, r_max=3))
    assert rep["passed"], rep["failures"][:2]
    assert rep["instances"] == 4104


def test_formula2_oracle_stratum_at_rank_four():
    # the torus, raising and lowering rules against the pure coset
    # engine on the rank-4 core axes
    cfg = RunConfig(n=4)
    for stratum in ("formula1:oracle", "formula2:oracle"):
        count, fails = _stratum_worker((stratum, cfg.to_json_obj(), 0, 12))
        assert count == 12 and fails == []


NUMBER_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
                "nine", "ten", "eleven", "twelve")


def test_readme_lists_exactly_the_suites():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| suite | checks |", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"^\| `([^`]+)` \|", table, re.M)) == SUITE_NAMES
    assert f"one of the {NUMBER_WORDS[len(SUITE_NAMES)]} verification suites" in text
