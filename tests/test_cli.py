import json
import os
import subprocess
import sys
import time
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
    # a graph6 term may lead a union: I(C_5) * I(C_3)
    code, out, _ = run_cli(capsys, "poly", "g6:Dhc+C3", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "8", "20", "15"]


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
    for n in ("8", "4", "1", "0", "-1"):
        code, _, err = run_cli(capsys, "factor", n)
        assert code == 1
        assert f"error: factorization is defined for odd n >= 3, got {n}" in err


@pytest.mark.parametrize("n", [205, 1501])
def test_factor_root_check_passes_beyond_float_range(capsys, n):
    # max|coeff| * |c|^deg overflows a float from n = 205 on, and the
    # coefficients of I(C_n, x) themselves from n = 1483
    code, out, _ = run_cli(capsys, "factor", str(n), "--format", "json")
    assert code == 0
    check = json.loads(out)["root_check"]
    assert check["pass"]
    assert check["max_residual"] < 1e-15


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
    assert first == second
    # candidate order cannot move the output, so no flag reorders it
    with pytest.raises(SystemExit) as exc:
        main(["class", "9", "--format", "json", "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (("class", "9"), "class_9.json"),
    (("class", "15"), "class_15.json"),
    (("unicyclic", "7"), "unicyclic_7.json"),
    (("class", "7", "--mode", "all-graphs", "--threads", "2"),
     "class_7_all_graphs.json"),
    (("class", "21", "--mode", "unicyclic"), "class_21_unicyclic.json"),
    (("class", "13", "--mode", "unicyclic", "--no-prune"),
     "class_13_unicyclic_no_prune.json"),
    (("class", "15", "--mode", "unicyclic", "--no-prune"),
     "class_15_unicyclic_no_prune.json"),
    (("class", "37", "--mode", "unicyclic"), "class_37_unicyclic.json"),
    (("verify-paper", "--max-n", "45"), "verify_paper_45.json"),
    (("verify-paper", "--max-n", "45"), "verify_paper_45.txt"),
    (("unicyclic", "9"), "unicyclic_9.json"),
    (("class", "33", "--mode", "unicyclic"), "class_33_unicyclic.json"),
])
def test_json_output_matches_golden_bytes(capsys, argv, name):
    fmt = "json" if name.endswith(".json") else "text"
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
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


def test_unicyclic_beyond_the_list_limit_is_refused_up_front(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "unicyclic", "21")
    assert time.perf_counter() - started < 0.5
    assert code == 1 and out == ""
    assert "MAX_UNICYCLIC_LIST_V" in err and "15" in err


def test_factor_beyond_its_cap_is_refused_up_front(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "factor", "10003")
    assert time.perf_counter() - started < 0.5
    assert code == 1 and out == ""
    assert "MAX_FACTOR_N" in err and "10001" in err


def test_unpruned_unicyclic_beyond_its_cap_is_refused_up_front(capsys, monkeypatch):
    from indequiv import classes

    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(classes, "_exhaustive_unicyclic", no_search)
    code, out, err = run_cli(capsys, "class", "19", "--mode", "unicyclic",
                             "--no-prune")
    assert code == 1 and out == ""
    assert "MAX_UNPRUNED_UNICYCLIC_N" in err and "17" in err


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
    code, out, _ = run_cli(capsys, "poly", "C130", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"][-2:] == ["4225", "2"]


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
    code, _, err = run_cli(capsys, "class", "129")
    assert code == 1
    assert "MAX_COMPONENT_VERTICES" in err and "128" in err


def test_verify_paper_small(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--max-n", "15")
    assert code == 0
    assert "claims verified" in out
    assert "FAIL" not in out


def test_verify_paper_beyond_the_canonical_limit_is_refused_up_front(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify-paper", "--max-n", "129")
    assert time.perf_counter() - started < 0.5
    assert code == 1 and out == ""
    assert "MAX_COMPONENT_VERTICES" in err and "128" in err


def test_verify_paper_below_the_known_classes_is_refused(capsys):
    code, out, err = run_cli(capsys, "verify-paper", "--max-n", "13")
    assert code == 1 and out == ""
    assert "15" in err and "got 13" in err


def test_verify_paper_failure_exit_code(capsys, monkeypatch):
    from indequiv import cli as cli_module

    entry = {"id": "x", "claim": "fake claim", "expected": "1",
             "computed": "2", "status": "fail"}

    def fake_ledger(max_n=45, cache=None):
        return [dict(entry)]

    monkeypatch.setattr(cli_module, "run_ledger", fake_ledger)
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 3
    assert out == (
        "[FAIL] x: fake claim\n"
        "       expected 1\n"
        "       computed 2\n"
        "0/1 claims verified\n"
    )
    code, out, _ = run_cli(capsys, "verify-paper", "--format", "json")
    assert code == 3
    assert json.loads(out) == {"entries": [entry], "failed": 1, "passed": 0}


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
    ("class", "7", "--mode", "all-graphs", "--seed", "3"),
    ("class", "9", "--mode", "unicyclic", "--seed", "3"),
    ("class", "9", "--no-prune"),
    ("class", "9", "--mode", "structured", "--no-prune"),
    ("class", "7", "--mode", "all-graphs", "--no-prune"),
    ("class", "9", "--seed", "3"),
])
def test_threads_and_seed_only_where_they_act(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if "--no-prune" not in argv:
        # no subcommand takes --seed, and only `class` takes --threads
        assert "unrecognized arguments" in err
    else:
        # `class` accepts --no-prune, but only in the mode it acts in
        given = argv[argv.index("--mode") + 1] if "--mode" in argv else "structured"
        assert ("--no-prune applies only to --mode unicyclic, "
                f"not --mode {given}") in err


def test_ledger_entries_pass_quickly():
    entries = run_ledger(max_n=15)
    assert all(e["status"] == "pass" for e in entries)
    ids = [e["id"] for e in entries]
    assert "f9-coeffs" in ids and "class-9-count" in ids
    assert "class-6-members" in ids
    assert len(ids) == len(set(ids))


def test_cli_import_loads_no_dataclasses_or_typing():
    # start-up is a large share of a short command's time; the stdlib
    # modules the CLI needs load first, so only what the package adds counts
    code = (
        "import sys, argparse, json, re\n"
        "before = set(sys.modules)\n"
        "import indequiv.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'dataclasses', 'typing', 'inspect'}))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
