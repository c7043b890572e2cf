"""Tests of the benchmark itself: tracer wiring, correctness gates and the
refusal to run without a program.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import child  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, check_class, check_ledger, cycle_and_tail  # noqa: E402

CLASS_21 = ("class", "21", "--mode", "unicyclic", "--format", "json")


def _same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_traced_run_restores_every_wrapper():
    before = tracer.current_targets()
    op = Op(CLASS_21, check_class(21, cycle_and_tail(21)))
    result = child.run_workload((op,), trace=True)
    assert _same_objects(tracer.current_targets(), before)
    assert result["failed"] == 0
    assert result["layers"]["intpoly.div_calls"] > 0
    assert result["layers"]["graphs.graphs_built"] > 0


def test_wrappers_are_installed_only_inside_the_context():
    before = tracer.current_targets()
    with tracer.Tracer():
        during = tracer.current_targets()
        assert during.keys() == before.keys()
        assert all(during[k] is not before[k] for k in before)
    assert _same_objects(tracer.current_targets(), before)


def test_removed_target_is_reported_absent(monkeypatch):
    gone = ("indequiv.classes", "no_such_function", "canon")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    with tracer.Tracer() as tr:
        pass
    assert tr.absent == ["indequiv.classes.no_such_function"]
    assert tr.metrics(1.0)["canon.calls"] == 0


def test_untraced_run_leaves_modules_unpatched(monkeypatch):
    before = tracer.current_targets()
    seen = []
    original_main = child.cli.main

    def spy(argv):
        seen.append(tracer.current_targets())
        return original_main(argv)

    monkeypatch.setattr(child.cli, "main", spy)
    op = Op(CLASS_21, check_class(21, cycle_and_tail(21)))
    result = child.run_workload((op,), trace=False)
    assert len(seen) == 1 and _same_objects(seen[0], before)
    assert _same_objects(tracer.current_targets(), before)
    assert "layers" not in result


def test_wrong_expected_member_set_is_a_failed_operation():
    from indequiv.graphs import cycle

    def only_the_cycle():
        return workloads._keys((cycle(21),))

    wrong = Op(CLASS_21, check_class(21, only_the_cycle))
    right = Op(CLASS_21, check_class(21, cycle_and_tail(21)))
    result = child.run_workload((wrong, right), trace=False)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "1 unexpected" in result["problems"][0]


def test_traced_counts_equal_the_programs_own_stats():
    from indequiv.cli import main

    with tracer.Tracer() as tr:
        code, out = workloads.run_cli(main, CLASS_21)
    assert code == 0
    stats = json.loads(out)["stats"]
    layers = tr.metrics(1.0)
    assert layers["classes.components_generated"] == stats["components_generated"]
    assert layers["classes.components_admitted"] == stats["components_admitted"]
    assert layers["classes.multisets_tested"] == stats["multisets_tested"]
    assert layers["classes.polynomial_tests"] == stats["polynomial_tests"]
    assert len(tr.caches) == 1
    cache = tr.caches[0].stats()
    assert layers["indpoly.memo_hits"] == cache["hits"]
    assert layers["indpoly.memo_misses"] == cache["misses"]


def _ledger(**changes):
    """Ledger entries at their pinned values, with some changed."""
    return [
        dict({"id": cid, "status": "pass", "expected": value, "computed": value},
             **changes.get(cid, {}))
        for cid, value in workloads.PINNED_LEDGER["computed"].items()
    ]


def test_ledger_check_counts_failed_and_missing_claims():
    entries = _ledger()
    assert check_ledger(0, json.dumps({"entries": entries}))[:2] == (38, 0)
    entries[0] = dict(entries[0], status="fail", computed="2")
    del entries[1]
    assert check_ledger(3, json.dumps({"entries": entries}))[:2] == (38, 2)
    assert check_ledger(1, "")[:2] == (38, 38)


def test_ledger_claim_that_moved_with_its_expected_value_fails():
    moved = {"status": "pass", "expected": "(1, 4)", "computed": "(1, 4)"}
    out = json.dumps({"entries": _ledger(**{"f3-coeffs": moved})})
    attempted, failed, problems = check_ledger(0, out)
    assert (attempted, failed) == (38, 1)
    assert "f3-coeffs" in problems[0]


def test_overhead_is_wrapped_calls_times_wrapper_cost():
    cost = tracer.wrapper_cost()
    assert cost["hot"] > 0 and cost["coarse"] > 0
    tr = tracer.Tracer()
    tr.layers = {"mul": [1000, 0.0], "classes": [3, 0.0]}
    assert tr.overhead_s(cost) == pytest.approx(1000 * cost["hot"] + 3 * cost["coarse"])


class FakeRunner:
    """Stands in for run.Runner: repetitions come from a list, None for one
    killed at its deadline."""

    hard_deadline = float("inf")

    def __init__(self, reps):
        self.reps = list(reps)

    def spawn(self, *args, deadline):
        return {"setup_s": 0.25}

    def rep(self, trace, deadline):
        return self.reps.pop(0)


def _rep(wall_s):
    return {"wall_s": wall_s, "op_s": [wall_s], "peak_rss_mb": 20.0, "setup_s": 0.5,
            "attempted": 1, "failed": 0}


def _report(probes, reps, cut, capsys):
    args = argparse.Namespace(workload="all-graphs", seed=1, seconds=60, trace=0)
    assert run.report(args, probes, reps, cut) == 0
    *_, detail, result = capsys.readouterr().out.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def test_a_cut_later_repetition_is_dropped_not_failed(capsys):
    probes, reps, cut = run.measure(FakeRunner([_rep(1.0), _rep(3.0), None]), 60, False)
    assert (len(probes), len(reps), cut) == (run.SETUP_PROBES, 2, 1)
    detail, result = _report(probes, reps, cut, capsys)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 0, True)
    assert result["metrics"]["wall_s"]["value"] == 2.0
    assert detail["cut"] == 1


def test_no_finished_repetition_gives_no_result(capsys):
    with pytest.raises(run.NoResult):
        run.measure(FakeRunner([None]), 60, False)
    crashed = {"crashed": True, "attempted": 1, "failed": 1, "problems": ["boom"]}
    with pytest.raises(run.NoResult):
        run.report(argparse.Namespace(workload="all-graphs", seed=1, seconds=60, trace=0),
                   [{"setup_s": 0.25}], [crashed], 0)
    assert "metrics" not in capsys.readouterr().out


def test_cycle_coeffs_closed_form():
    assert workloads.cycle_coeffs(9) == [1, 9, 27, 30, 9]
    assert workloads.cycle_coeffs(15) == [1, 15, 90, 275, 450, 378, 140, 15]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "all-graphs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
