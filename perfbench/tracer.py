"""Per-layer tracing for the benchmark, installed from outside the program.

Modules bind imported names at import time, so each function is wrapped in
the module that calls it (``indequiv.classes.canonical_key``, not
``indequiv.canon.canonical_key``), and each method on its class.  Hot leaf
calls are aggregated into a call count and a self time; coarse calls (class
searches, factor routes, brute force) also record a span.  Self time is a
call's duration minus the time spent in wrapped calls it made, so the self
times of all layers add up to the traced time spent inside them.

A target that the program no longer has is reported as absent and skipped.
``uninstall`` puts every original object back.

The wrappers' own cost, trace.overhead_s, is the number of wrapped calls
times what one wrapper adds to a no-op call, measured in the same process
after the traced work.  A traced-minus-untraced difference of whole runs
would be smaller than the run-to-run noise of a shared machine.
"""
from __future__ import annotations

import importlib
import time

# (module, attribute or Class.method, layer)
TARGETS = (
    ("indequiv.indpoly", "connected_canonical_form", "canon"),
    ("indequiv.classes", "canonical_key", "canon"),
    ("indequiv.classes", "canonical_graph", "canon"),
    ("indequiv.ledger", "canonical_key", "canon"),
    # indpoly recurses through its module global, so this catches every level
    ("indequiv.indpoly", "indpoly", "indpoly"),
    ("indequiv.classes", "indpoly", "indpoly"),
    ("indequiv.ledger", "indpoly", "indpoly"),
    ("indequiv.cli", "indpoly", "indpoly"),
    ("indequiv.indpoly", "PolyCache.__init__", "memo"),
    ("indequiv.classes", "indpoly_bruteforce", "bruteforce"),
    ("indequiv.intpoly", "IntPoly.__mul__", "mul"),
    ("indequiv.intpoly", "IntPoly.__rmul__", "mul"),
    ("indequiv.intpoly", "IntPoly.__add__", "add"),
    ("indequiv.classes", "poly_exact_div", "div"),
    ("indequiv.classes", "poly_divides", "div"),
    ("indequiv.factors", "poly_exact_div", "div"),
    ("indequiv.classes", "f_poly_by_division", "factors"),
    ("indequiv.ledger", "f_poly_by_division", "factors"),
    ("indequiv.ledger", "f_poly_by_transform", "factors"),
    ("indequiv.graphs", "Graph.__init__", "graphs"),
    ("indequiv.cli", "structured_class_search", "classes"),
    ("indequiv.cli", "exhaustive_class_search", "classes"),
    ("indequiv.ledger", "structured_class_search", "classes"),
    ("indequiv.ledger", "exhaustive_class_search", "classes"),
)

SPAN_LAYERS = frozenset({"classes", "factors", "bruteforce"})

# ClassReport.stats keys summed over every class search
CLASS_STATS = (
    "candidates_generated",
    "polynomial_tests",
    "edge_sets_visited",
    "i3_leaves",
    "i4_pass",
    "labelled_members",
    "components_generated",
    "components_admitted",
    "multisets_tested",
)

# every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    "canon.calls": "count",
    "canon.self_s": "s",
    "canon.share": "ratio",
    "indpoly.calls": "count",
    "indpoly.self_s": "s",
    "indpoly.memo_hits": "count",
    "indpoly.memo_misses": "count",
    "indpoly.memo_hit_ratio": "ratio",
    "indpoly.bruteforce_calls": "count",
    "indpoly.bruteforce_s": "s",
    "intpoly.mul_calls": "count",
    "intpoly.mul_s": "s",
    "intpoly.add_calls": "count",
    "intpoly.add_s": "s",
    "intpoly.div_calls": "count",
    "intpoly.div_s": "s",
    "factors.calls": "count",
    "factors.self_s": "s",
    "graphs.graphs_built": "count",
    "graphs.self_s": "s",
    "classes.self_s": "s",
    "classes.candidates": "count",
    "classes.polynomial_tests": "count",
    "classes.edge_sets_visited": "count",
    "classes.i3_leaves": "count",
    "classes.i4_pass": "count",
    "classes.i4_pass_ratio": "ratio",
    "classes.labelled_members": "count",
    "classes.components_generated": "count",
    "classes.components_admitted": "count",
    "classes.admit_ratio": "ratio",
    "classes.multisets_tested": "count",
    "trace.overhead_s": "s",
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a target, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


def current_targets() -> dict[str, object]:
    """The object each present target name is bound to right now."""
    found = {}
    for module_name, path, _ in TARGETS:
        where = _resolve(module_name, path)
        if where is not None:
            found[f"{module_name}.{path}"] = vars(where[0])[where[1]]
    return found


def _noop(a, b):
    return None


def _best_time(fn, calls: int, rounds: int) -> float:
    """Least seconds over `rounds` timings of `calls` calls fn(None, None)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn(None, None)
        best = min(best, time.perf_counter() - start)
    return best


def wrapper_cost() -> dict[str, float]:
    """Seconds a hot and a coarse wrapper add to one call of a no-op, from
    the best of 5 timings of 100,000 calls (10,000 for coarse), about 0.5 s."""
    calls, rounds = 100_000, 5
    probe = Tracer()
    plain = _best_time(_noop, calls, rounds)
    hot = _best_time(probe._wrap(_noop, "probe", "probe"), calls, rounds)
    coarse = _best_time(probe._wrap(_noop, "factors", "probe"), calls // 10, rounds)
    return {
        "hot": max(0.0, hot - plain) / calls,
        "coarse": max(0.0, coarse - plain / 10) / (calls // 10),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wrappers for TARGETS plus the counts and spans they collect."""

    def __init__(self):
        self.layers: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.class_stats = dict.fromkeys(CLASS_STATS, 0)
        self.caches: list = []
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._child_time: list[float] = []  # one accumulator per open call
        self._open_spans: list[int] = []

    def install(self) -> None:
        for module_name, path, layer in TARGETS:
            where = _resolve(module_name, path)
            if where is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, name = where
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, f"{module_name}.{path}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, layer: str, label: str):
        if layer == "memo":
            caches = self.caches

            def record_cache(cache, *args, **kwargs):
                caches.append(cache)
                return fn(cache, *args, **kwargs)

            return record_cache

        counter = self.layers.setdefault(layer, [0, 0.0])
        stack = self._child_time
        clock = time.perf_counter
        if layer not in SPAN_LAYERS:

            def hot(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    counter[0] += 1
                    counter[1] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed

            return hot

        spans = self.spans
        open_spans = self._open_spans
        class_stats = self.class_stats if layer == "classes" else None

        def coarse(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(len(spans))
            spans.append((label, 0.0, 0.0, parent))
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                counter[0] += 1
                counter[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                spans[open_spans.pop()] = (label, start, end, parent)
            if class_stats is not None:
                stats = getattr(result, "stats", {})
                for key in CLASS_STATS:
                    class_stats[key] += stats.get(key, 0)
            return result

        return coarse

    def overhead_s(self, cost: dict[str, float]) -> float:
        """Estimated seconds the wrappers added, from wrapper_cost()."""
        return sum(
            calls * cost["coarse" if layer in SPAN_LAYERS else "hot"]
            for layer, (calls, _) in self.layers.items()
        )

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for one traced repetition of wall_s seconds;
        trace.overhead_s is calibrated separately, by overhead_s()."""

        def calls(layer):
            return self.layers.get(layer, (0, 0.0))[0]

        def self_s(layer):
            return self.layers.get(layer, (0, 0.0))[1]

        cache_stats = [getattr(c, "stats", dict)() for c in self.caches]
        hits = sum(s.get("hits", 0) for s in cache_stats)
        misses = sum(s.get("misses", 0) for s in cache_stats)
        cs = self.class_stats
        return {
            "canon.calls": calls("canon"),
            "canon.self_s": self_s("canon"),
            "canon.share": _ratio(self_s("canon"), wall_s),
            "indpoly.calls": calls("indpoly"),
            "indpoly.self_s": self_s("indpoly"),
            "indpoly.memo_hits": hits,
            "indpoly.memo_misses": misses,
            "indpoly.memo_hit_ratio": _ratio(hits, hits + misses),
            "indpoly.bruteforce_calls": calls("bruteforce"),
            "indpoly.bruteforce_s": self_s("bruteforce"),
            "intpoly.mul_calls": calls("mul"),
            "intpoly.mul_s": self_s("mul"),
            "intpoly.add_calls": calls("add"),
            "intpoly.add_s": self_s("add"),
            "intpoly.div_calls": calls("div"),
            "intpoly.div_s": self_s("div"),
            "factors.calls": calls("factors"),
            "factors.self_s": self_s("factors"),
            "graphs.graphs_built": calls("graphs"),
            "graphs.self_s": self_s("graphs"),
            "classes.self_s": self_s("classes"),
            "classes.candidates": cs["candidates_generated"],
            "classes.polynomial_tests": cs["polynomial_tests"],
            "classes.edge_sets_visited": cs["edge_sets_visited"],
            "classes.i3_leaves": cs["i3_leaves"],
            "classes.i4_pass": cs["i4_pass"],
            "classes.i4_pass_ratio": _ratio(cs["i4_pass"], cs["i3_leaves"]),
            "classes.labelled_members": cs["labelled_members"],
            "classes.components_generated": cs["components_generated"],
            "classes.components_admitted": cs["components_admitted"],
            "classes.admit_ratio": _ratio(
                cs["components_admitted"], cs["components_generated"]
            ),
            "classes.multisets_tested": cs["multisets_tested"],
        }
