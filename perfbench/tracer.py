"""Span tracer for the traced run, installed from outside the program.

``Tracer.install`` wraps public functions and methods of each ``doxa``
module and rebinds every module-level name that refers to them, so a
caller that imported a function by name (``from .syntax import parse``)
reaches the wrapper too.  Each wrapper opens a span on entry and closes
it on exit; a span's self time is its duration minus the durations of
the spans opened inside it.  Nested calls of the same name (recursion)
run unwrapped inside the outer span.

Spans of coarse functions (commands, searches, batteries, checks, proof
checks) are kept as records ``(name, start, end, parent)``; the spans of
hot functions (per-frame evaluator calls, the class filter, the parser
and printer) are only summed, to keep the traced run's memory flat.

A function or attribute that a later version of the program no longer
has is recorded in ``missing``, and the traced run counts it as a
failure, so a renamed layer does not pass for a faster one.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from time import perf_counter

from workloads import letter_count

# metric group -> (module, attribute path) of the wrapped functions.
# Every group's value is the self time of its spans.
GROUPS = {
    "cli.self_s": [("cli", "main")],
    "registry.self_s": [("registry", "run_checks")],
    "syntax.parse_s": [("syntax", "parse")],
    "syntax.print_s": [("syntax", "print_formula")],
    "semantics.class_filter_s": [("semantics", "FrameClass.contains")],
    "semantics.evaluate_s": [("semantics", "evaluate"), ("semantics", "evaluate_aux")],
    "semantics.dump_model_s": [("semantics", "dump_model")],
    "oracle.frames_s": [("oracle", "frames_up_to")],
    "oracle.evaluator_init_s": [("oracle", "FrameEvaluator.__init__")],
    "oracle.columns_s": [("oracle", "FrameEvaluator.columns")],
    "oracle.search_s": [
        ("oracle", "valid_on"),
        ("oracle", "find_countermodel"),
        ("oracle", "aux_valid_on"),
    ],
    "oracle.corpus_s": [("oracle", "corpus_for")],
    "oracle.reflexive_battery_s": [("oracle", "wrong_false_at_reflexive")],
    "oracle.agreement_s": [("oracle", "agree_up_to")],
    "oracle.gap_s": [("oracle", "definability_gap")],
    "transform.translate_s": [("transform", "w_to_ri"), ("transform", "ri_to_w")],
    "transform.translation_battery_s": [("transform", "translation_battery")],
    "transform.construction_s": [
        ("transform", "euclidean_closure"),
        ("transform", "generated_submodel"),
        ("transform", "cone_augment"),
    ],
    "transform.construction_battery_s": [
        ("transform", "closure_battery"),
        ("transform", "cone_battery"),
        ("transform", "submodel_property_battery"),
    ],
    "transform.chain_s": [("transform", "almost_def_chain"), ("transform", "check_chain")],
    "hilbert.script_parse_s": [("hilbert", "parse_proof_script")],
    "hilbert.check_s": [("hilbert", "check_proof"), ("hilbert", "check_derived_rule")],
    "hilbert.match_s": [("hilbert", "match_schema"), ("syntax", "substitute")],
    "hilbert.taut_s": [("hilbert", "is_tautology")],
}
# Registry checks are spans of their own, reported by kind with their
# inclusive time; their self time belongs to registry.self_s.
CHECK_KINDS = (
    "bounded-valid",
    "countermodel-exists",
    "chain",
    "preservation",
    "proof",
    "agreement",
    "property-table",
    "definability-gap",
)
HOT = {
    "syntax.parse",
    "syntax.print_formula",
    "syntax.substitute",
    "semantics.FrameClass.contains",
    "semantics.evaluate",
    "semantics.evaluate_aux",
    "semantics.dump_model",
    "oracle.FrameEvaluator.__init__",
    "oracle.FrameEvaluator.columns",
    "transform.w_to_ri",
    "transform.ri_to_w",
    "hilbert.match_schema",
}
SEARCHES = {"oracle.valid_on", "oracle.find_countermodel", "oracle.aux_valid_on"}
RECHECKS = {"semantics.evaluate", "semantics.evaluate_aux"}


class Tracer:
    def __init__(self):
        # Open spans: [name, start, child time, record index or None].
        self.stack: list[list] = []
        self.active: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.records: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self.root_s = 0.0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        index = None
        if name not in HOT:
            parent = next((e[3] for e in reversed(self.stack) if e[3] is not None), None)
            index = len(self.records)
            self.records.append([name, 0.0, 0.0, parent])
        self.active[name] += 1
        self.stack.append([name, perf_counter(), 0.0, index])

    def _close(self) -> float:
        end = perf_counter()
        name, start, child, index = self.stack.pop()
        duration = end - start
        self.active[name] -= 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.root_s += duration
        if index is not None:
            self.records[index][1:3] = [start, end]
        return duration

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result, tracer)`` counts work."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.active[name]:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(args, result, tracer)
            return result

        return traced

    def run_root(self, fn, *args):
        """Call ``fn`` as one traced job: the time outside every span is
        the unattributed time."""
        self._open("job")
        try:
            return fn(*args)
        finally:
            self._close()

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        import importlib

        modules = {}
        for name in {module for targets in GROUPS.values() for module, _ in targets} | {"registry"}:
            try:
                modules[name] = importlib.import_module(f"{package.__name__}.{name}")
            except ImportError:
                self.missing.add(name)
        everything = [package, *modules.values()]
        for targets in GROUPS.values():
            for module, path in targets:
                if module in modules:
                    self._patch(modules[module], module, path, everything)
        if "registry" in modules:
            self._patch_checks(modules["registry"])

    def _patch(self, module, module_name: str, path: str, everything) -> None:
        name = f"{module_name}.{path}"
        owner, _, attr = path.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        fn = getattr(holder, attr, None) if holder is not None else None
        if fn is None:
            self.missing.add(name)
            return
        wrapped = self._wrap_counted(name, fn)
        if name in RECHECKS:
            wrapped = self._count_rechecks(wrapped)
        if owner:
            setattr(holder, attr, wrapped)
            return
        for mod in everything:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)

    def _count_rechecks(self, fn):
        """Evaluator calls made directly by a search re-check its witness."""

        def evaluate(*args, **kwargs):
            if self.stack and self.stack[-1][0] in SEARCHES:
                self.counts["recheck_calls"] += 1
            return fn(*args, **kwargs)

        return evaluate

    def _wrap_counted(self, name: str, fn):
        if name == "oracle.FrameEvaluator.columns":
            return self._wrap_columns(fn)
        after = None
        if name in SEARCHES:
            def after(args, report, t):
                t.counts["frames_examined"] += report.frames_examined
                t.counts["models_examined"] += report.models_examined
                t.counts["countermodels"] += bool(report.countermodel_found)
        elif name == "semantics.FrameClass.contains":
            def after(args, accepted, t):
                t.counts["class_accepted"] += bool(accepted)
        elif name == "hilbert.parse_proof_script":
            def after(args, proof, t):
                t.counts["proof_lines"] += len(proof.lines)
        elif name == "hilbert.is_tautology":
            def after(args, _, t):
                t.counts["taut_rows"] += 1 << letter_count(args[0])
        return self.wrap(name, fn, after)

    def _wrap_columns(self, fn):
        """Top-level column requests; new memo entries are the nodes the
        kernel had to evaluate."""
        name = "oracle.FrameEvaluator.columns"
        tracer = self
        counts = self.counts

        def columns(ev, g):
            if tracer.active[name]:
                return fn(ev, g)
            memo = getattr(ev, "_memo", None)
            before = len(memo) if memo is not None else 0
            tracer._open(name)
            try:
                return fn(ev, g)
            finally:
                tracer._close()
                size = getattr(ev, "rows", None), getattr(ev, "k", None)
                if memo is None or None in size:
                    tracer.missing.add(f"{name}: FrameEvaluator._memo, .rows or .k")
                else:
                    nodes = len(memo) - before
                    counts["nodes"] += nodes
                    counts["rows"] += nodes * size[0] * size[1]

        return columns

    def _patch_checks(self, registry) -> None:
        all_checks = getattr(registry, "all_checks", None)
        if all_checks is None:
            self.missing.add("registry.all_checks")
            return
        wrapped: dict[str, object] = {}

        def traced_checks():
            out = []
            for check in all_checks():
                if check.id not in wrapped:
                    wrapped[check.id] = dataclasses.replace(
                        check, runner=self.wrap(f"registry.check.{check.kind}", check.runner)
                    )
                out.append(wrapped[check.id])
            return tuple(out)

        registry.all_checks = traced_checks

    # -- results -----------------------------------------------------------

    def _group(self, table, group: str) -> float:
        return sum(table[f"{m}.{p}"] for m, p in GROUPS[group])

    def _calls(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; the ``_s`` groups are self times."""
        out = {group: self._group(self.self_s, group) for group in GROUPS}
        for kind in CHECK_KINDS:
            out[f"registry.check_s.{kind}"] = self.total_s[f"registry.check.{kind}"]
        out["registry.self_s"] += sum(
            self.self_s[n] for n in self.self_s if n.startswith("registry.check.")
        )
        filtered = self.calls["semantics.FrameClass.contains"]
        columns_s = out["oracle.columns_s"]
        out.update(
            {
                "syntax.parse_calls": self.calls["syntax.parse"],
                "semantics.class_filter_calls": filtered,
                "semantics.class_accept_ratio": self.counts["class_accepted"] / filtered if filtered else 0.0,
                "semantics.evaluate_calls": self._calls("semantics.evaluate", "semantics.evaluate_aux"),
                "semantics.recheck_calls": self.counts["recheck_calls"],
                "oracle.evaluators": self.calls["oracle.FrameEvaluator.__init__"],
                "oracle.columns_calls": self.calls["oracle.FrameEvaluator.columns"],
                "oracle.nodes_submitted": self.counts["nodes"],
                "oracle.rows": self.counts["rows"],
                "oracle.rows_per_s": self.counts["rows"] / columns_s if columns_s else 0.0,
                "oracle.frames_examined": self.counts["frames_examined"],
                "oracle.models_examined": self.counts["models_examined"],
                "hilbert.lines": self.counts["proof_lines"],
                "hilbert.taut_calls": self.calls["hilbert.is_tautology"],
                "hilbert.taut_rows": self.counts["taut_rows"],
            }
        )
        attributed = sum(out[g] for g in GROUPS)
        out["trace.wall_s"] = self.root_s
        out["trace.unattributed_s"] = self.root_s - attributed
        return out

    def dump(self, path) -> None:
        """Write the span records and per-name sums as JSON."""
        doc = {
            "spans": self.records,
            "sums": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name], "total_s": self.total_s[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(self.counts),
            "missing": sorted(self.missing),
        }
        path.write_text(json.dumps(doc))
