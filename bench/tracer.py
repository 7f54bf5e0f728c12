"""In-memory span tracer installed from outside the package.

Each target function is replaced, on every module attribute (or class
attribute) that binds it, by a wrapper that records a span: name, parent
span id, start and end in perf_counter_ns.  Spans stay in memory and are
written out once at the end, one JSON array [id, parent, name, start_ns,
end_ns] per line.  Self time of a span is its duration minus
the time covered by its child spans; calls are single-threaded and
nested, so that is the sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (label, module the original is taken from, attribute path in that module)
TARGETS = (
    ("corpus.connected_cubic_graphs", "nulab.corpus", "connected_cubic_graphs"),
    ("gio.parse_sparse6", "nulab.gio", "parse_sparse6"),
    ("gio.parse_graph6", "nulab.gio", "parse_graph6"),
    ("gio.emit_sparse6", "nulab.gio", "emit_sparse6"),
    ("graph.MultiGraph.components", "nulab.graph", "MultiGraph.components"),
    ("graph.MultiGraph.bridges", "nulab.graph", "MultiGraph.bridges"),
    ("graph.MultiGraph.structure_flags", "nulab.graph", "MultiGraph.structure_flags"),
    ("matching.max_matching", "nulab.matching", "max_matching"),
    ("matching.enumerate_perfect_matchings", "nulab.matching", "enumerate_perfect_matchings"),
    ("matching.min_odd_two_factor", "nulab.matching", "min_odd_two_factor"),
    ("networkx.max_weight_matching", "networkx", "max_weight_matching"),
    ("exact.nu_k", "nulab.exact", "nu_k"),
    ("poly.best_degree_bounded", "nulab.poly", "best_degree_bounded"),
    ("poly.color_sparse_subgraph", "nulab.poly", "color_sparse_subgraph"),
    ("poly.cycle_deficiency", "nulab.poly", "cycle_deficiency"),
    ("structure.is_claw_free", "nulab.structure", "is_claw_free"),
    ("structure.is_bipartite", "nulab.structure", "is_bipartite"),
    ("structure.is_nearly_bipartite", "nulab.structure", "is_nearly_bipartite"),
    ("profiling.compute_profile", "nulab.profiling", "compute_profile"),
    ("profiling.profile_flags", "nulab.profiling", "profile_flags"),
    ("rules.evaluate_all", "nulab.rules", "evaluate_all"),
    ("cli.main", "nulab.cli", "main"),
)

COUNTERS = (
    ("corpus.iso_tests", "count", "lower"),
    ("corpus.classes_per_iso_test", "ratio", "higher"),
    ("matching.perfect_matchings", "count", "lower"),
    ("exact.nodes", "count", "lower"),
    ("exact.nodes_per_s", "1/s", "higher"),
    ("rules.reports", "count", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in output order."""
    out = []
    for label, _, _ in TARGETS:
        out.append((f"{label}.calls", "count", "lower"))
        out.append((f"{label}.self_s", "s", "lower"))
    return out + list(COUNTERS)


def _package_modules(mod) -> list:
    """Loaded modules of the package mod belongs to (nulab or networkx)."""
    top = mod.__name__.split(".")[0]
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == top or key.startswith(top + "."))]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[int] = [-1]
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        import importlib

        for label, modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            owner_path, _, fname = attr.rpartition(".")
            if owner_path:  # a method: patch the class that defines it
                owner = getattr(mod, owner_path)
                self._patch(owner, fname, self._wrap(label, vars(owner)[fname]))
                continue
            original = getattr(mod, fname)
            wrapper = self._wrap(label, original)
            for ns in _package_modules(mod):
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, wrapper)
        import networkx as nx

        self._patch(nx, "vf2pp_is_isomorphic", self._count_iso(nx.vf2pp_is_isomorphic))

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches.clear()

    def _patch(self, ns, name: str, new) -> None:
        self._patches.append((ns, name, getattr(ns, name)))
        setattr(ns, name, new)

    def _count_iso(self, original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self._active["corpus.connected_cubic_graphs"]:
                self.counts["corpus.iso_tests"] += 1
            return original(*args, **kwargs)

        return counted

    def _wrap(self, label: str, original):
        spans = self.spans
        stack = self._stack
        active = self._active
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the id so children sort after it
            parent = stack[-1]
            stack.append(sid)
            active[label] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                active[label] -= 1
                stack.pop()
                spans[sid] = (sid, parent, label, start, end)
            if label == "exact.nu_k" and not active[label]:
                counts["exact.nodes"] += result.node_count
            elif label == "matching.enumerate_perfect_matchings":
                counts["matching.perfect_matchings"] += len(result)
            elif label == "rules.evaluate_all":
                counts["rules.reports"] += len(result)
            elif label == "corpus.connected_cubic_graphs":
                counts["corpus.classes"] += len(result)
            return result

        return traced

    # -- results -------------------------------------------------------

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _label, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, _parent, label, start, end in self.spans:
            calls[label] += 1
            self_ns[label] += end - start - child_ns[sid]
        out: dict[str, float] = {}
        for label, _, _ in TARGETS:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_s"] = self_ns[label] / 1e9
        iso = self.counts["corpus.iso_tests"]
        nu_self_s = self_ns["exact.nu_k"] / 1e9
        out["corpus.iso_tests"] = iso
        out["corpus.classes_per_iso_test"] = self.counts["corpus.classes"] / iso if iso else 0.0
        out["matching.perfect_matchings"] = self.counts["matching.perfect_matchings"]
        out["exact.nodes"] = self.counts["exact.nodes"]
        out["exact.nodes_per_s"] = self.counts["exact.nodes"] / nu_self_s if nu_self_s else 0.0
        out["rules.reports"] = self.counts["rules.reports"]
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, label, start, end in self.spans:
                fh.write(json.dumps([sid, parent, label, start, end]) + "\n")
