"""Span tracer for the benchmark's traced run.

It wraps the public functions of each hibilab layer from outside the
program: a module attribute is replaced by a timing wrapper in every hibilab
module that binds it, because ``from .x import f`` gives each importing
module its own binding (``reports.window_ideal``, ``classify.window_ideal``,
``betti.buchberger`` and so on).  Spans are kept in memory with a link to
the span that was open when they began; self time is a span's duration less
the time its child spans cover.  Counts come from the objects the wrapped
functions return, so the program is not edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time

SECOND_FIELD = 65537

# (module, function) of every traced function, by layer.
TRACED = (
    ("lattice", "validate_planar_lattice"),
    ("lattice", "is_simple"),
    ("lattice", "join_irreducibles"),
    ("windows", "generators"),
    ("windows", "bipartite_graph"),
    ("windows", "is_chordal_bipartite"),
    ("windows", "polyomino"),
    ("windows", "check_convexity"),
    ("windows", "dimension"),
    ("binomials", "window_ideal"),
    ("binomials", "buchberger"),
    ("binomials", "toric_fiber_oracle"),
    ("betti", "krull_dimension_via_initial"),
    ("betti", "betti_numbers"),
    ("betti", "monomial_betti_table"),
    ("betti", "has_linear_resolution_oracle"),
    ("betti", "is_linearly_related_oracle"),
    ("classify", "classify_window"),
    ("classify", "verify_window"),
    ("reports", "generate_corpus"),
    ("reports", "run_suite"),
    ("cli", "main"),
)

# name -> (unit, better); the per_layer section of BENCHMARK.json lists the same.
PER_LAYER = {
    "lattice.validate_planar_lattice.self_s": ("s", "lower"),
    "lattice.is_simple.self_s": ("s", "lower"),
    "lattice.join_irreducibles.self_s": ("s", "lower"),
    "windows.generators.calls_per_window": ("count", "lower"),
    "windows.polyomino.calls_per_window": ("count", "lower"),
    "windows.generators.self_s": ("s", "lower"),
    "windows.bipartite_graph.self_s": ("s", "lower"),
    "windows.is_chordal_bipartite.self_s": ("s", "lower"),
    "windows.polyomino.self_s": ("s", "lower"),
    "windows.check_convexity.self_s": ("s", "lower"),
    "windows.dimension.self_s": ("s", "lower"),
    "binomials.window_ideal.calls_per_window": ("count", "lower"),
    "binomials.window_ideal.orders_tried_per_call": ("count", "lower"),
    "binomials.window_ideal.self_s": ("s", "lower"),
    "binomials.buchberger.calls": ("count", "lower"),
    "binomials.buchberger.self_s": ("s", "lower"),
    "binomials.buchberger.spairs": ("count", "lower"),
    "binomials.toric_fiber_oracle.self_s": ("s", "lower"),
    "binomials.toric_fiber_oracle.monomials": ("count", "lower"),
    "binomials.toric_fiber_oracle.fibers": ("count", "lower"),
    "binomials.toric_fiber_oracle.second_field_share": ("ratio", "lower"),
    "betti.krull_dimension_via_initial.self_s": ("s", "lower"),
    "betti.betti_numbers.calls.full": ("count", "lower"),
    "betti.betti_numbers.self_s.full": ("s", "lower"),
    "betti.betti_numbers.calls.targeted": ("count", "lower"),
    "betti.betti_numbers.self_s.targeted": ("s", "lower"),
    "betti.has_linear_resolution_oracle.self_s": ("s", "lower"),
    "betti.has_linear_resolution_oracle.total_s": ("s", "lower"),
    "betti.has_linear_resolution_oracle.koszul_calls_per_call": ("count", "lower"),
    "betti.monomial_betti_table.self_s": ("s", "lower"),
    "betti.is_linearly_related_oracle.self_s": ("s", "lower"),
    "betti.is_linearly_related_oracle.total_s": ("s", "lower"),
    "classify.verify_window.self_s": ("s", "lower"),
    "classify.classify_window.self_s": ("s", "lower"),
    "classify.classify_window.calls_per_window": ("count", "lower"),
    "classify.oracle_share": ("ratio", "lower"),
    "classify.second_prime_retries": ("count", "lower"),
    "reports.run_suite.self_s": ("s", "lower"),
    "reports.skipped.fiber": ("count", "lower"),
    "reports.skipped.betti": ("count", "lower"),
    "reports.skipped.classify": ("count", "lower"),
    "cli.suite_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.loop_s": ("s", "lower"),
    "trace.untraced_windows_per_s": ("1/s", "higher"),
    "trace.traced_windows_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "trace.spans_per_window": ("count", "lower"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}


def _add(counts, key, n=1):
    counts[key] = counts.get(key, 0) + n


def _observe_window_ideal(counts, args, ideal):
    _add(counts, "orders_tried", len(ideal.orders_tried))


def _observe_buchberger(counts, args, report):
    _add(counts, "spairs", report.spairs_processed)


def _observe_fiber(counts, args, cert):
    _add(counts, "monomials", sum(d.monomials for d in cert.per_degree))
    _add(counts, "fibers", sum(d.fibers for d in cert.per_degree))
    _add(counts, "fiber_certificates")
    _add(counts, "second_field", len(cert.fields_used) > 1)


def _observe_classify(counts, args, verdict):
    if args["field"] == SECOND_FIELD:
        _add(counts, "second_prime_retries")
    if args["mode"] == "shape-first":
        _add(counts, "shape_first_predicates", 2)
        _add(counts, "oracle_predicates",
             (verdict.linear_basis == "oracle") + (verdict.linrel_basis == "oracle"))


def _observe_run_suite(counts, args, report):
    for rec in report.stable["windows"]:
        for skip in rec["skipped"]:
            for kind in skip:
                _add(counts, f"skipped.{kind}")


OBSERVERS = {
    "binomials.window_ideal": _observe_window_ideal,
    "binomials.buchberger": _observe_buchberger,
    "binomials.toric_fiber_oracle": _observe_fiber,
    "classify.classify_window": _observe_classify,
    "reports.run_suite": _observe_run_suite,
}
# Functions whose span name or counts depend on their arguments.
NEEDS_ARGS = ("betti.betti_numbers", "classify.classify_window")


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, phase]
        self.stack = []
        self.counts = {}  # phase -> {counter: value}
        self.current_phase = None
        self._saved = []

    def __enter__(self):
        importlib.import_module("hibilab.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "hibilab" or name.startswith("hibilab.")]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"hibilab.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    @contextlib.contextmanager
    def phase(self, name):
        self.current_phase = name
        try:
            yield
        finally:
            self.current_phase = None

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if name in NEEDS_ARGS else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            span_name = name
            if signature is not None:
                ba = signature.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
                if name == "betti.betti_numbers":
                    span_name += ".targeted" if bound["_targets"] else ".full"
            index = len(spans)
            span = [span_name, stack[-1] if stack else -1, clock(), 0.0, self.current_phase]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if observe is not None:
                observe(self.counts.setdefault(self.current_phase, {}), bound, result)
            return result

        return traced

    def aggregate(self):
        """{(phase, name): [calls, total_s, self_s]} and koszul calls under the oracle."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end, phase in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table = {}
        koszul_under_oracle = 0
        for k, (name, parent, start, end, phase) in enumerate(self.spans):
            row = table.setdefault((phase, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[k]
            if (phase == "loop" and name.startswith("betti.betti_numbers.") and parent >= 0
                    and self.spans[parent][0] == "betti.has_linear_resolution_oracle"):
                koszul_under_oracle += 1
        return table, koszul_under_oracle

    def per_layer_metrics(self, windows, passes, loop_s, untraced_wps, traced_wps):
        """Every PER_LAYER metric; loop figures are per pass over the workload."""
        table, koszul_under_oracle = self.aggregate()
        counts = self.counts.get("loop", {})

        def calls(name, phase="loop"):
            return table.get((phase, name), (0, 0.0, 0.0))[0]

        def self_s(name, phase="loop"):
            return table.get((phase, name), (0, 0.0, 0.0))[2] / (passes if phase == "loop" else 1)

        def total_s(name):
            return table.get(("loop", name), (0, 0.0, 0.0))[1] / passes

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name in PER_LAYER:
            if name.endswith(".self_s") and not name.startswith("cli."):
                phase = "setup" if name.startswith("lattice.validate") else "loop"
                out[name] = self_s(name[: -len(".self_s")], phase)
        out["windows.generators.calls_per_window"] = ratio(calls("windows.generators"), windows)
        out["windows.polyomino.calls_per_window"] = ratio(calls("windows.polyomino"), windows)
        ideal_calls = calls("binomials.window_ideal")
        out["binomials.window_ideal.calls_per_window"] = ratio(ideal_calls, windows)
        out["binomials.window_ideal.orders_tried_per_call"] = ratio(
            counts.get("orders_tried", 0), ideal_calls)
        out["binomials.buchberger.calls"] = calls("binomials.buchberger") / passes
        out["binomials.buchberger.spairs"] = counts.get("spairs", 0) / passes
        out["binomials.toric_fiber_oracle.monomials"] = counts.get("monomials", 0) / passes
        out["binomials.toric_fiber_oracle.fibers"] = counts.get("fibers", 0) / passes
        out["binomials.toric_fiber_oracle.second_field_share"] = ratio(
            counts.get("second_field", 0), counts.get("fiber_certificates", 0))
        for variant in ("full", "targeted"):
            out[f"betti.betti_numbers.calls.{variant}"] = calls(f"betti.betti_numbers.{variant}") / passes
            out[f"betti.betti_numbers.self_s.{variant}"] = self_s(f"betti.betti_numbers.{variant}")
        for oracle in ("has_linear_resolution_oracle", "is_linearly_related_oracle"):
            out[f"betti.{oracle}.total_s"] = total_s(f"betti.{oracle}")
        out["betti.has_linear_resolution_oracle.koszul_calls_per_call"] = ratio(
            koszul_under_oracle, calls("betti.has_linear_resolution_oracle"))
        out["classify.classify_window.calls_per_window"] = ratio(
            calls("classify.classify_window"), windows)
        out["classify.oracle_share"] = ratio(
            counts.get("oracle_predicates", 0), counts.get("shape_first_predicates", 0))
        out["classify.second_prime_retries"] = counts.get("second_prime_retries", 0) / passes
        for kind in ("fiber", "betti", "classify"):
            out[f"reports.skipped.{kind}"] = counts.get(f"skipped.{kind}", 0) / passes
        out["cli.suite_s"] = table.get(("cli", "cli.main"), (0, 0.0, 0.0))[1]
        out["cli.self_s"] = self_s("cli.main", "cli")
        out["trace.loop_s"] = loop_s / passes
        out["trace.untraced_windows_per_s"] = untraced_wps
        out["trace.traced_windows_per_s"] = traced_wps
        out["trace.overhead"] = untraced_wps / traced_wps
        loop_spans = sum(row[0] for (phase, _), row in table.items() if phase == "loop")
        out["trace.spans_per_window"] = ratio(loop_spans, windows)
        return {name: out[name] for name in PER_LAYER}


def run_cli(hibilab):
    """One in-process `hibilab suite --window 3,7 --fiber --expect-theorem` on the demo staircase."""
    lattice = hibilab.demo_staircase()
    doc = json.dumps({"points": sorted(map(list, lattice.points))})
    saved_stdin = sys.stdin
    out = io.StringIO()
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out):
            code = hibilab.cli.main(["suite", "--window", "3,7", "--fiber", "--expect-theorem"])
    finally:
        sys.stdin = saved_stdin
    report = json.loads(out.getvalue())
    return code == 0 and not report["stable"]["findings"]
