"""An external tracer for the package's public functions.

The tracer wraps functions from outside the package: each listed function
is replaced by a wrapper wherever a ``leibniz_graphs`` module has bound it
by name (``jsonio`` imports ``check_leibniz`` directly, for example), and
methods are replaced on their class.  Every wrapped call pushes a frame on
a span stack; on return its duration, minus the part its wrapped children
covered, is its self time.  Aggregates are exact; finished spans are kept
in memory up to a cap and written out at the end.

A listed function that the package no longer has is reported as absent
rather than wrapped.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

PACKAGE = "leibniz_graphs"

# layer (= package module) -> functions whose calls and self time are
# reported.  ``cli.main`` is wrapped only to give the cli layer a self time.
TRACED = {
    "scalars": ("rref", "Subspace.contains"),
    "algebra": ("check_leibniz", "leibniz_kernel", "ideal_closure",
                "validate_split", "to_multiplicative", "product"),
    "structure": ("is_ideal", "generated_ideal", "check_weak_division",
                  "enumerate_basis_ideals", "check_minimality", "decompose",
                  "cross_validate", "analysis_report"),
    "graphs": ("build_graph", "induced_subgraph", "strong_components",
               "undirected_components", "reachable_from",
               "is_weakly_symmetric", "to_dot", "edge_list_text"),
    "jsonio": ("algebra_from_json", "algebra_to_json", "dumps"),
    "corpus": ("fuzz_instances", "build_example"),
    "equivalence": ("is_automorphism", "maps_basis_to_basis"),
    "cli": ("main",),
}
UNREPORTED = {"cli.main"}
REPORT = "structure.analysis_report"
# Functions whose calls are also counted per analysis_report call: today
# the report recomputes each of them once itself and once inside
# check_minimality.
PER_REPORT = ("structure.enumerate_basis_ideals",
              "structure.check_weak_division", "graphs.build_graph")
SPAN_CAP = 50_000


class Tracer:
    """Span stack, aggregates and the set of installed wrappers."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.under_report: Counter = Counter()
        self.counters: Counter = Counter()
        self.absent: list = []
        self.spans: list = []  # (id, parent id, request, key, start, end)
        self.request = None  # the operation that causes the next spans
        self.spans_dropped = 0
        self._stack: list = []  # [key, start, child seconds, id]
        self._active: Counter = Counter()
        self._next_id = 0
        self._patches: list = []  # (owner, attribute, original)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that the package still has."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.absent = []
        for layer, names in TRACED.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = module
                if owner is not None and owner_name:
                    owner = getattr(owner, owner_name, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, original)
                if owner_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, bound, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, key: str, fn):
        hook = _HOOKS.get(key)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            active = tracer._active
            if active[REPORT]:
                tracer.under_report[key] += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [key, perf_counter(), 0.0, span_id]
            stack.append(frame)
            active[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[key] -= 1
                duration = end - frame[1]
                tracer.calls[key] += 1
                tracer.self_s[key] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((span_id,
                                         parent[3] if parent else None,
                                         tracer.request, key, frame[1], end))
                else:
                    tracer.spans_dropped += 1
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- reporting --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name: calls and self time of each present
        function, self time of each layer, and the structure counters."""
        out = {}
        layer_self = Counter()
        for layer, names in TRACED.items():
            layer_self[layer] += 0.0
            for name in names:
                key = f"{layer}.{name}"
                if key in self.absent:
                    continue
                layer_self[layer] += self.self_s[key]
                if key in UNREPORTED:
                    continue
                out[f"{key}.calls"] = (self.calls[key], "count")
                out[f"{key}.self_s"] = (self.self_s[key], "s")
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = (seconds, "s")
        enum = "structure.enumerate_basis_ideals"
        if enum not in self.absent:
            subsets = self.counters["subsets"]
            out[f"{enum}.subsets"] = (subsets, "count")
            out[f"{enum}.hit_ratio"] = (
                self.counters["ideals_found"] / subsets if subsets else 0.0,
                "ratio")
        if "structure.check_minimality" not in self.absent:
            for name in ("oracle_ran", "oracle_skipped"):
                out[f"structure.check_minimality.{name}"] = (
                    self.counters[name], "count")
        if REPORT not in self.absent:
            reports = self.calls[REPORT]
            for key in PER_REPORT:
                if key not in self.absent:
                    out[f"{key}.calls_per_report"] = (
                        self.under_report[key] / reports if reports else 0.0,
                        "calls/report")
        return out

    def write(self, path) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        doc = {
            "absent": self.absent,
            "spans_dropped": self.spans_dropped,
            "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _enumeration_counts(counters, args, kwargs, result) -> None:
    algebra = args[0] if args else kwargs["algebra"]
    counters["subsets"] += 1 << algebra.dim
    counters["ideals_found"] += len(result)


def _oracle_counts(counters, args, kwargs, result) -> None:
    ran = result.oracle_minimal is not None
    counters["oracle_ran" if ran else "oracle_skipped"] += 1


_HOOKS = {
    "structure.enumerate_basis_ideals": _enumeration_counts,
    "structure.check_minimality": _oracle_counts,
}
