"""The benchmark's workloads: the CLI commands each one runs, and the check
applied to each command's output.

Every input is one of the paper's fixed instances.  A check returns
(operations attempted, operations failed, problems); an operation is one
ledger claim or one class command, and a wrong answer is a failed operation.
Checks run after the timed region, with no tracer installed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# every claim of `verify-paper --max-n 45` with its computed value at the
# baseline commit; the CLI promises byte-stable JSON, so a claim whose value
# moves is failed even when the program's own `expected` moved with it
PINNED_LEDGER = json.loads((Path(__file__).with_name("pinned_ledger.json")).read_text())
PAPER_CLAIMS = tuple(PINNED_LEDGER["computed"])

CheckResult = tuple[int, int, list[str]]


@dataclass(frozen=True)
class Op:
    """One CLI command and the check of its (exit code, stdout).

    `operations` is what the command counts as attempted if it never
    produces output at all."""

    argv: tuple[str, ...]
    check: Callable[[int, str], CheckResult]
    operations: int = 1


def cycle_coeffs(n: int) -> list[int]:
    """Coefficients of I(C_n, x) by the closed form n/(n-k) * C(n-k, k),
    independent of the program's arithmetic."""
    return [1] + [n * math.comb(n - k, k) // (n - k) for k in range(1, n // 2 + 1)]


def check_ledger(code: int, out: str) -> CheckResult:
    """Every pinned claim present, passing and equal to its pinned value;
    extra claims count too."""
    try:
        entries = {e["id"]: e for e in json.loads(out)["entries"]}
    except (ValueError, KeyError, TypeError) as exc:
        return len(PAPER_CLAIMS), len(PAPER_CLAIMS), [f"unreadable output: {exc}"]
    ids = list(dict.fromkeys(PAPER_CLAIMS + tuple(entries)))
    if code not in (0, 3):
        return len(ids), len(ids), [f"exit code {code}"]
    pinned = PINNED_LEDGER["computed"]
    bad = [
        cid for cid in ids
        if cid not in entries
        or entries[cid].get("status") != "pass"
        or entries[cid].get("computed") != entries[cid].get("expected")
        or (cid in pinned and entries[cid].get("computed") != pinned[cid])
    ]
    problems = [f"claim {cid} missing, failed or not its pinned value" for cid in bad]
    if (code == 3) != bool(bad):
        problems.append(f"exit code {code} with {len(bad)} failed claims")
        bad = bad or ["exit-code"]
    return len(ids), len(bad), problems


def _keys(graphs) -> set[str]:
    from indequiv.canon import canonical_key

    return {canonical_key(g).hex() for g in graphs}


def cycle_and_tail(n: int) -> Callable[[], set[str]]:
    """Expected member keys {C_n, D_n}."""

    def expected():
        from indequiv.graphs import cycle, d_graph

        return _keys((cycle(n), d_graph(n)))

    return expected


def structured_members(n: int) -> Callable[[], set[str]]:
    """Expected member keys: those of `class n` (structured search)."""

    def expected():
        from indequiv.cli import main

        code, out = run_cli(main, ("class", str(n), "--format", "json"))
        if code != 0:
            raise RuntimeError(f"reference `class {n}` exited {code}")
        return member_keys(out)

    return expected


def run_cli(main, argv) -> tuple[int, str]:
    """Run the CLI entry point in this process, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def member_keys(out: str) -> set[str]:
    from indequiv.graph6 import parse_graph6

    return _keys(parse_graph6(m["graph6"]) for m in json.loads(out)["members"])


def check_class(n: int, expected: Callable[[], set[str]],
                count: int | None = None) -> Callable[[int, str], CheckResult]:
    """A class command must exit 0 and return exactly the expected members
    (by canonical key, and `count` of them if given, which does not rely on
    canon), each with the closed-form polynomial of C_n."""

    def check(code: int, out: str) -> CheckResult:
        if code != 0:
            return 1, 1, [f"class {n}: exit code {code}"]
        problems = []
        try:
            payload = json.loads(out)
            got = member_keys(out)
            want = expected()
            if got != want:
                problems.append(
                    f"class {n}: {len(got - want)} unexpected and "
                    f"{len(want - got)} missing members"
                )
            if count is not None and len(payload["members"]) != count:
                problems.append(
                    f"class {n}: expected {count} members, not {len(payload['members'])}"
                )
            if payload["member_count"] != len(payload["members"]) or len(
                payload["members"]
            ) != len(got):
                problems.append(f"class {n}: member count disagrees with members")
            coeffs = [str(c) for c in cycle_coeffs(n)]
            for m in payload["members"]:
                if m["coeffs"] != coeffs or m["checks_ok"] is not True:
                    problems.append(f"class {n}: member {m['graph6']} fails I(C_{n})")
        except (ValueError, KeyError, TypeError, RuntimeError) as exc:
            problems.append(f"class {n}: unreadable output: {exc}")
        return 1, int(bool(problems)), problems

    return check


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "verify-paper": (
        Op(("verify-paper", "--max-n", "45", "--format", "json"), check_ledger,
           operations=len(PAPER_CLAIMS)),
    ),
    "all-graphs": (
        Op(
            ("class", "8", "--mode", "all-graphs", "--threads", "1",
             "--format", "json"),
            check_class(8, cycle_and_tail(8), count=2),
        ),
    ),
    "unicyclic": (
        Op(
            ("class", "15", "--mode", "unicyclic", "--no-prune",
             "--format", "json"),
            check_class(15, structured_members(15), count=8),
        ),
        Op(
            ("class", "21", "--mode", "unicyclic", "--format", "json"),
            check_class(21, cycle_and_tail(21), count=2),
        ),
    ),
}
