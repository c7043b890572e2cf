import json
from pathlib import Path

import pytest

from indequiv.cli import main
from indequiv.ledger import run_ledger


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "C9", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"coeffs": ["1", "9", "27", "30", "9"]}


def test_poly_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "D5")
    assert code == 0
    assert "1 + 5x + 5x^2" in out


def test_poly_text_echoes_the_spec(capsys):
    code, out, _ = run_cli(capsys, "poly", " C3+Gd ")
    assert code == 0
    assert out == "C3+Gd: I(x) = 1 + 9x + 27x^2 + 30x^3 + 9x^4\n"


def test_poly_union_and_graph6(capsys):
    code, out, _ = run_cli(capsys, "poly", "C3+Gd", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "9", "27", "30", "9"]
    code, out, _ = run_cli(capsys, "poly", "g6:C~", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "4"]


def test_poly_garbage_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "garbage"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_domain_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "factor", "8")
    assert code == 1
    assert "error" in err


def test_factor_json(capsys):
    code, out, _ = run_cli(capsys, "factor", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 9
    assert payload["route"] == "division"
    assert payload["factors"] == {"3": ["1", "3"], "9": ["1", "6", "9", "3"]}
    assert payload["root_check"]["pass"] is True
    assert payload["root_check"]["max_residual"] < payload["root_check"]["tolerance"]


def test_factor_transform_route(capsys):
    code, out, _ = run_cli(capsys, "factor", "15", "--route", "transform",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "transform"
    assert payload["factors"]["15"] == ["1", "7", "14", "8", "1"]


def test_class_structured_json(capsys):
    code, out, _ = run_cli(capsys, "class", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["member_count"] == 6
    assert payload["mode"] == "structured"
    assert all(m["checks_ok"] for m in payload["members"])


def test_class_json_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "class", "9", "--format", "json")
    _, second, _ = run_cli(capsys, "class", "9", "--format", "json")
    _, seeded, _ = run_cli(capsys, "class", "9", "--format", "json", "--seed", "7")
    assert first == second == seeded


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (("class", "9"), "class_9.json"),
    (("class", "15"), "class_15.json"),
    (("unicyclic", "7"), "unicyclic_7.json"),
    (("class", "7", "--mode", "all-graphs", "--threads", "2"),
     "class_7_all_graphs.json"),
])
def test_json_output_matches_golden_bytes(capsys, argv, name):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_class_unicyclic_mode(capsys):
    code, out, _ = run_cli(capsys, "class", "9", "--mode", "unicyclic",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "exhaustive_unicyclic_multisets"
    assert payload["member_count"] == 6


def test_class_all_graphs_mode(capsys):
    code, out, _ = run_cli(capsys, "class", "6", "--mode", "all-graphs",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["member_count"] == 3


def test_class_text_output(capsys):
    code, out, _ = run_cli(capsys, "class", "9")
    assert code == 0
    assert "6 members" in out
    assert "C9" in out and "D9" in out


def test_unicyclic_command(capsys):
    code, out, _ = run_cli(capsys, "unicyclic", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert len(payload["graphs"]) == 5


def test_poisoned_cache_file_is_never_read(capsys, tmp_path, monkeypatch):
    # a JSON-lines polynomial cache entry for C_9 with its last coefficient
    # set to 10, in the format older versions read from $GRAPHEQ_CACHE
    import base64

    from indequiv.canon import connected_canonical_form
    from indequiv.graphs import cycle

    key = base64.b64encode(connected_canonical_form(cycle(9))[0]).decode("ascii")
    poisoned = tmp_path / "poisoned.jsonl"
    poisoned.write_text(json.dumps(
        {"key": key, "coeffs": ["1", "9", "27", "30", "10"]}) + "\n")
    _, clean, _ = run_cli(capsys, "poly", "C9", "--format", "json")
    monkeypatch.setenv("GRAPHEQ_CACHE", str(poisoned))
    code, out, _ = run_cli(capsys, "poly", "C9", "--format", "json")
    assert code == 0
    assert out == clean
    assert json.loads(out)["coeffs"] == ["1", "9", "27", "30", "9"]


def test_poly_of_a_cycle_beyond_the_canonical_limit(capsys):
    code, out, _ = run_cli(capsys, "poly", "C70", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"][-2:] == ["1225", "2"]


def test_class_63_emits_long_graph6(capsys):
    code, out, _ = run_cli(capsys, "class", "63", "--format", "json")
    assert code == 0
    members = json.loads(out)["members"]
    assert sorted(m["description"] for m in members) == ["C63", "D63"]
    assert all(m["graph6"].startswith("~??~") for m in members)


def test_class_beyond_the_canonical_limit_is_refused_before_searching(
        capsys, monkeypatch):
    from indequiv import classes

    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(classes, "indpoly", no_search)
    code, _, err = run_cli(capsys, "class", "65")
    assert code == 1
    assert "MAX_COMPONENT_VERTICES" in err and "64" in err


def test_verify_paper_small(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--max-n", "15")
    assert code == 0
    assert "claims verified" in out
    assert "FAIL" not in out


def test_verify_paper_failure_exit_code(capsys, monkeypatch):
    from indequiv import cli as cli_module
    from indequiv.ledger import LedgerEntry

    def fake_ledger(max_n=45, cache=None):
        return [
            LedgerEntry("x", "fake claim", "1", "2", "fail"),
        ]

    monkeypatch.setattr(cli_module, "run_ledger", fake_ledger)
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 3
    assert "FAIL" in out


@pytest.mark.parametrize("argv", [
    ("class", "9"), ("class", "9", "--mode", "all-graphs"),
    ("class", "9", "--mode", "unicyclic"),
])
@pytest.mark.parametrize("bad", ["0", "-3", "two"])
def test_threads_below_one_is_a_usage_error(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", bad])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("poly", "C9", "--threads", "2"),
    ("poly", "C9", "--seed", "1"),
    ("factor", "9", "--threads", "2"),
    ("factor", "9", "--seed", "1"),
    ("unicyclic", "5", "--threads", "2"),
    ("unicyclic", "5", "--seed", "1"),
    ("verify-paper", "--seed", "1"),
    ("verify-paper", "--threads", "2"),
])
def test_threads_and_seed_only_where_they_act(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_threads_clamped_to_cpu_count(capsys, monkeypatch):
    # a fake stands in for the scan, so no worker process is ever started
    from indequiv import cli as cli_module
    from indequiv.classes import ClassReport

    seen = []

    def fake_search(n, mode, cache=None, threads=1, prune=True):
        seen.append(threads)
        return ClassReport(n=n, mode=mode, members=[], stats={}, wall_time=0.0)

    monkeypatch.setattr(cli_module, "exhaustive_class_search", fake_search)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 3)
    for k in ("1", "3", "10000"):
        run_cli(capsys, "class", "9", "--mode", "all-graphs", "--threads", k)
    assert seen == [1, 3, 3]
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: None)
    run_cli(capsys, "class", "9", "--mode", "all-graphs", "--threads", "8")
    assert seen[-1] == 1


def test_ledger_entries_pass_quickly():
    entries = run_ledger(max_n=15)
    assert all(e.passed for e in entries)
    ids = [e.claim_id for e in entries]
    assert "f9-coeffs" in ids and "class-9-count" in ids
    assert "class-6-members" in ids
    assert len(ids) == len(set(ids))
