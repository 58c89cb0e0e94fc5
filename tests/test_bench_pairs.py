import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(module, monkeypatch, tmp_path, change_run, pairs=2):
    # each side's run comes from fake_run: the parent's always passes
    # with wall 1.0, the change's is change_run(pair index from 0)
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
    spec = {"end_to_end": [{"name": "ref_wall_s", "better": "lower", "bound": 0.25}]}
    (sides["change"] / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    calls = {"parent": 0, "change": 0}

    def fake_run(checkout, workload, seed, seconds, trace):
        side = Path(checkout).name
        i = calls[side]
        calls[side] += 1
        good = {"ok": True, "digest": "d", "golden": None, "caches": {}, "metrics": {"ref_wall_s": 1.0}}
        return good if side == "parent" else {**good, **change_run(i)}

    monkeypatch.setattr(module, "run_once", fake_run)
    monkeypatch.setattr(module, "bytecode_state", lambda checkout: (17, 0))
    argv = ["bench_pairs.py", str(sides["parent"]), str(sides["change"]),
            "--workload", "formula-box", "--seed", "41", "--pairs", str(pairs)]
    monkeypatch.setattr(module.sys, "argv", argv)
    status = module.main()
    assert calls == {"parent": pairs, "change": pairs}
    return status


@pytest.mark.parametrize(
    "change_run, status",
    [
        (lambda i: {"metrics": {"ref_wall_s": 0.9}}, 0),
        (lambda i: {"metrics": {"ref_wall_s": 1.2}}, 0),
        (lambda i: {"ok": i != 1}, 1),
        (lambda i: {"digest": "e" if i else "d"}, 1),
        (lambda i: {"metrics": {"ref_wall_s": 1.5}}, 1),
    ],
    ids=["better", "worse-within-bound", "run-not-correct", "digests-differ", "worse-than-bound"],
)
def test_the_exit_status_reports_every_failure(bench_pairs, monkeypatch, tmp_path, capsys, change_run, status):
    assert run(bench_pairs, monkeypatch, tmp_path, change_run) == status
    out = capsys.readouterr().out
    assert "ref_wall_s: parent 1" in out
