"""Command-line interface.

Subcommands:
  poly <graphspec>      independence polynomial of a graph
  factor <n>            factorization of I(C_n, x) with a root-formula check
  class <n>             the independence equivalence class of C_n
  unicyclic <v>         connected unicyclic graphs on v vertices
  verify-paper          recompute the pinned published values

Exit codes: 0 success, 1 domain error, 2 usage error, 3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .canon import CanonicalRefusalError, canonical_graph
from .classes import (
    ClassReport,
    describe_graph,
    enumerate_unicyclic,
    exhaustive_class_search,
    structured_class_search,
)
from .factors import ROOT_TOLERANCE, factorize_cycle_poly, root_residual
from .graph6 import Graph6Error, emit_graph6
from .graphs import GraphSpecError
from .gspec import parse_spec
from .indpoly import PolyCache, indpoly
from .intpoly import ExactDivisionError, IntPoly, cycle_poly
from .ledger import run_ledger

_DOMAIN_ERRORS = (
    GraphSpecError,
    Graph6Error,
    CanonicalRefusalError,
    ExactDivisionError,
    ValueError,
)


def _format_flag(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--format", choices=("json", "text"), default="text",
        help="output format (default: text)",
    )


def _worker_count(text: str) -> int:
    """--threads: at least 1, at most the number of CPUs."""
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return min(k, os.cpu_count() or 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indequiv",
        description="independence polynomials and equivalence classes of odd cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="independence polynomial of a graph")
    p_poly.add_argument("graphspec", help="e.g. C9, D7, A(2,1), C3+Gd, g6:...")
    _format_flag(p_poly)

    p_factor = sub.add_parser("factor", help="factor I(C_n, x) for odd n")
    p_factor.add_argument("n", type=int)
    p_factor.add_argument(
        "--route", choices=("division", "transform"), default="division"
    )
    _format_flag(p_factor)

    p_class = sub.add_parser("class", help="independence equivalence class of C_n")
    p_class.add_argument("n", type=int)
    p_class.add_argument(
        "--mode",
        choices=("structured", "all-graphs", "unicyclic"),
        default="structured",
    )
    p_class.add_argument(
        "--no-prune", action="store_true",
        help="disable divisor pruning in the unicyclic oracle",
    )
    p_class.add_argument(
        "--seed", type=int, default=None,
        help="shuffle candidate processing order (results are order-independent)",
    )
    p_class.add_argument(
        "--threads", type=_worker_count, default=1,
        help="worker processes for the exhaustive all-graphs scan "
             "(clamped to the CPU count)",
    )
    _format_flag(p_class)

    p_uni = sub.add_parser("unicyclic", help="connected unicyclic graphs on v vertices")
    p_uni.add_argument("v", type=int)
    _format_flag(p_uni)

    p_ledger = sub.add_parser(
        "verify-paper", help="recompute the pinned published values"
    )
    p_ledger.add_argument("--max-n", type=int, default=45)
    _format_flag(p_ledger)

    return parser


def _poly_json(p: IntPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _report_payload(report: ClassReport) -> dict:
    return {
        "n": report.n,
        "mode": report.mode,
        "member_count": len(report.members),
        "members": [
            {
                "graph6": m.graph6,
                "description": m.description,
                "coeffs": _poly_json(m.poly),
                "checks_ok": m.checks.ok,
            }
            for m in report.members
        ],
        "stats": {k: report.stats[k] for k in sorted(report.stats)},
    }


def _print_report(report: ClassReport):
    count = len(report.members)
    plural = "s" if count != 1 else ""
    print(f"class of C_{report.n} ({report.mode}): {count} member{plural}")
    for m in report.members:
        print(f"  {m.description:<28} {m.graph6}")
    poly = report.members[0].poly if report.members else None
    if poly is not None:
        print(f"common polynomial: {poly}")
    stats = ", ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
    print(f"stats: {stats}")
    print(f"wall time: {report.wall_time:.2f}s")


def _cmd_poly(args, cache: PolyCache) -> int:
    p = indpoly(parse_spec(args.graphspec), cache)
    if args.format == "json":
        _emit({"coeffs": _poly_json(p)})
    else:
        print(f"{args.graphspec.strip()}: I(x) = {p}")
    return 0


def _cmd_factor(args, cache: PolyCache) -> int:
    factors = factorize_cycle_poly(args.n, route=args.route)
    whole = cycle_poly(args.n)
    # each factor is checked on its own divisor class of roots, and the
    # whole cycle polynomial on all of them
    worst = max(
        [root_residual(f, args.n, m) for m, f in factors.items()]
        + [root_residual(whole, args.n)]
    )
    passed = worst < ROOT_TOLERANCE
    if args.format == "json":
        _emit(
            {
                "n": args.n,
                "route": args.route,
                "factors": {str(m): _poly_json(f) for m, f in factors.items()},
                "root_check": {
                    "max_residual": worst,
                    "tolerance": ROOT_TOLERANCE,
                    "pass": passed,
                },
            }
        )
    else:
        print(f"I(C_{args.n}, x) = {whole}")
        for m, f in factors.items():
            print(f"  f_{m} = {f}")
        print(
            f"root check ({args.route} route): max residual {worst:.3e} "
            f"(tolerance {ROOT_TOLERANCE:.0e}) -> {'pass' if passed else 'FAIL'}"
        )
    return 0


def _cmd_class(args, cache: PolyCache) -> int:
    if args.mode == "structured":
        report = structured_class_search(args.n, cache, seed=args.seed)
    elif args.mode == "all-graphs":
        report = exhaustive_class_search(
            args.n, "all_graphs", cache, threads=args.threads
        )
    else:
        report = exhaustive_class_search(
            args.n, "unicyclic_multisets", cache, prune=not args.no_prune
        )
    if args.format == "json":
        _emit(_report_payload(report))
    else:
        _print_report(report)
    return 0


def _cmd_unicyclic(args, cache: PolyCache) -> int:
    graphs = enumerate_unicyclic(args.v)
    rows = [
        {"graph6": emit_graph6(canonical_graph(g)), "description": describe_graph(g)}
        for g in graphs
    ]
    rows.sort(key=lambda r: r["graph6"])
    if args.format == "json":
        _emit({"v": args.v, "count": len(rows), "graphs": rows})
    else:
        print(f"{len(rows)} connected unicyclic graphs on {args.v} vertices")
        for r in rows:
            print(f"  {r['graph6']:<24} {r['description']}")
    return 0


def _cmd_verify(args, cache: PolyCache) -> int:
    entries = run_ledger(max_n=args.max_n, cache=cache)
    failed = [e for e in entries if not e.passed]
    if args.format == "json":
        _emit(
            {
                "entries": [
                    {
                        "id": e.claim_id,
                        "claim": e.claim,
                        "expected": e.expected,
                        "computed": e.computed,
                        "status": e.status,
                    }
                    for e in entries
                ],
                "failed": len(failed),
                "passed": len(entries) - len(failed),
            }
        )
    else:
        for e in entries:
            mark = "PASS" if e.passed else "FAIL"
            print(f"[{mark}] {e.claim_id}: {e.claim}")
            if not e.passed:
                print(f"       expected {e.expected}")
                print(f"       computed {e.computed}")
        print(f"{len(entries) - len(failed)}/{len(entries)} claims verified")
    return 3 if failed else 0


_COMMANDS = {
    "poly": _cmd_poly,
    "factor": _cmd_factor,
    "class": _cmd_class,
    "unicyclic": _cmd_unicyclic,
    "verify-paper": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, PolyCache())
    except (GraphSpecError, Graph6Error) as exc:
        # a malformed graph specification is a usage problem
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
