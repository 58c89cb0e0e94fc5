import json

import pytest

from qschur.config import RunConfig
from qschur.errors import QschurError
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
    assert rep["failure_count"] >= 1
    json.dumps(rep)


def test_reports_are_deterministic():
    a = run_suite("closure", SMALL)
    b = run_suite("closure", SMALL)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_changes_random_strata():
    a = run_suite("closure", RunConfig(n=2, random_instances=4, seed=1))
    b = run_suite("closure", RunConfig(n=2, random_instances=4, seed=2))
    assert a["config"]["seed"] != b["config"]["seed"]
    assert a["passed"] and b["passed"]


def test_formula1_strata_directly():
    cfg = RunConfig(n=2, random_instances=5)
    count, fails = _stratum_worker(
        ("formula1:core", cfg.to_json_obj(), 0, 40, False)
    )
    assert count == 40 and fails == []
    count, fails = _stratum_worker(
        ("formula1:random", cfg.to_json_obj(), 0, 5, False)
    )
    assert count == 5 and fails == []
    count, fails = _stratum_worker(
        ("formula1:core", cfg.to_json_obj(), 0, 3, True)
    )
    assert count == 3 and len(fails) == 1 and fails[0]["index"] == 0


def test_rank_defaults_are_echoed():
    rep = run_suite("relations", SMALL)
    assert rep["config"]["r_max"] == 5
    rep = run_suite("relations", RunConfig(n=2, r_max=3, random_instances=4))
    assert rep["config"]["r_max"] == 3


def test_unknown_suite_is_rejected():
    with pytest.raises(QschurError):
        run_suite("nonsense", SMALL)
    assert "formula1" in SUITE_NAMES


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
    # the raising and lowering rules against the pure coset engine
    cfg = RunConfig(n=4)
    count, fails = _stratum_worker(("formula2:oracle", cfg.to_json_obj(), 0, 12, False))
    assert count == 12 and fails == []
