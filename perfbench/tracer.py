"""In-memory span tracer for the per-layer half of the benchmark.

The tracer wraps public functions of the shadowpos layers from the
outside: every module namespace that holds a target function (under any
name, so aliases such as ``solvers.check_property`` are caught) gets a
wrapper that records one span (name, start, end, parent) per call.  The
wrappers are removed again by :meth:`Tracer.uninstall`, so traced and
untraced passes can alternate in one process.

Tiny helpers that sit inside the hot loops (``iter_bits``, ``mask_of``,
``is_connected``, ``Graph`` methods) are deliberately not wrapped: a
wrapper costs about a microsecond, which would swamp them and distort
every layer above.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from collections import defaultdict
from importlib import import_module
from typing import Callable, Optional

# The ten per-graph checks that ``verify.fuzz`` runs on each graph.
FUZZ_CHECKS = ("gp-diam3", "gp-sandwich", "gp-regular-tf", "mu-bounds", "mu-leaf",
               "mu-muit", "mu-char", "lemma-distance", "lemma-partition", "ip-ic-bounds")

# The nineteen replay suites, in the order ``verify --suite all`` runs them.
SUITES = ("gp-complete", "gp-bipartite", "gp-diam3", "gp-join", "gp-sandwich",
          "gp-regular-tf", "gp-cycles", "gp-trees", "mu-bounds", "mu-multipartite",
          "mu-leaf", "mu-muit", "mu-trees", "mu-balloon", "mu-char", "mu-cycles",
          "lemma-distance", "lemma-partition", "ip-ic-bounds")

# Per-layer metrics: name -> unit.  Every traced run reports all of them;
# a layer the workload never calls reads 0.
LAYER_METRICS: dict[str, str] = {
    "families.enumerate_connected.calls": "count",
    "families.enumerate_connected.s": "s",
    "families.canonical_key.calls": "count",
    "families.canonical_key.s": "s",
    "formats.graph6.calls": "count",
    "formats.graph6.s": "s",
    "graph_core.distances.calls": "count",
    "graph_core.distances.s": "s",
    "graph_core.distances.n3": "count",
    "graph_core.distances.distinct_ratio": "ratio",
    "graph_core.structural_queries.calls": "count",
    "graph_core.structural_queries.s": "s",
    "shadow.shadow.calls": "count",
    "shadow.shadow.s": "s",
    "shadow.distance_violations.calls": "count",
    "shadow.distance_violations.s": "s",
    "visibility.check.calls": "count",
    "visibility.check.s": "s",
    "solvers.max_set.calls": "count",
    "solvers.max_set.s": "s",
    "solvers.max_set.self_s": "s",
    "solvers.max_set.nodes": "count",
    "solvers.max_set.nodes_per_s": "1/s",
    "solvers.max_set.distinct_ratio": "ratio",
    "solvers.max_set.exact_ratio": "ratio",
    "solvers.max_set.mv.s": "s",
    "solvers.max_set.gp.s": "s",
    "solvers.cover.calls": "count",
    "solvers.cover.s": "s",
    "solvers.cover.nodes": "count",
    **{f"verify.fuzz_check.{sid}.s": "s" for sid in FUZZ_CHECKS},
    "trace.overhead_ratio": "ratio",
}

# Layers only the replay workload reaches; a traced replay run reports
# these as well.
REPLAY_METRICS: dict[str, str] = {
    "solvers.max_set_heuristic.calls": "count",
    "solvers.max_set_heuristic.s": "s",
    "solvers.max_set_heuristic.nodes": "count",
    **{f"verify.suite.{sid}.s": "s" for sid in SUITES},
    "verify.pool_efficiency": "ratio",
    "cli.verify.s": "s",
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span recorder plus the counters measured at the same boundaries.

    ``spans`` holds ``(name, start, end, parent_index)`` tuples; a span's
    parent is the span that was open when it started, or -1.
    """

    def __init__(self, only_suites: bool = False):
        self.only_suites = only_suites
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._suite_defs: dict = {}

    # -- recording -------------------------------------------------------

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _leave(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent)

    def _wrap(self, fn: Callable, metric: str, name_of: Optional[Callable] = None,
              observe: Optional[Callable] = None) -> Callable:
        perf = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so only time spent inside the
            # generator counts, not the consumer's work between items.
            def traced_gen(*args, **kwargs):
                tracer.calls[metric] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._enter()
                    start = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._leave(idx, metric, start, perf())
                        return
                    except BaseException:
                        tracer._leave(idx, metric, start, perf())
                        raise
                    tracer._leave(idx, metric, start, perf())
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            name = name_of(args, kwargs) if name_of is not None else metric
            tracer.calls[metric] += 1
            idx = tracer._enter()
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(idx, name, start, perf())
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    # -- observers -------------------------------------------------------

    def _observe_distances(self, args, kwargs, result) -> None:
        g = _arg(args, kwargs, 0, "g")
        self.counts["graph_core.distances.n3"] += g.n ** 3
        self.distinct["graph_core.distances"].add(g.adj)

    def _observe_max_set(self, args, kwargs, report) -> None:
        prop = _arg(args, kwargs, 0, "prop")
        g = _arg(args, kwargs, 1, "g")
        self.counts["solvers.max_set.nodes"] += report.nodes_explored
        self.counts["solvers.max_set.exact"] += bool(report.exact)
        self.distinct["solvers.max_set"].add((prop.value, g.adj))

    def _observe_nodes(self, metric: str) -> Callable:
        def observe(args, kwargs, report) -> None:
            self.counts[metric] += report.nodes_explored
        return observe

    # -- installing ------------------------------------------------------

    def _targets(self) -> list[tuple[str, str, str, Optional[Callable], Optional[Callable]]]:
        suite_name = (lambda a, k: f"verify.suite.{_arg(a, k, 0, 'suite_id')}")
        targets = [("verify", "run_suite", "verify.suite", suite_name, None)]
        if self.only_suites:
            return targets
        prop_name = (lambda a, k: f"solvers.max_set.{_arg(a, k, 0, 'prop').value}")
        return targets + [
            ("families", "enumerate_connected", "families.enumerate_connected", None, None),
            ("families", "canonical_key", "families.canonical_key", None, None),
            ("formats", "graph_to_graph6", "formats.graph6", None, None),
            ("formats", "graph6_to_graph", "formats.graph6", None, None),
            ("graph_core", "distances", "graph_core.distances", None,
             self._observe_distances),
            ("graph_core", "structural_queries", "graph_core.structural_queries", None, None),
            ("shadow", "shadow", "shadow.shadow", None, None),
            ("shadow", "shadow_distance_violations", "shadow.distance_violations", None, None),
            ("visibility", "check", "visibility.check", None, None),
            ("solvers", "max_set", "solvers.max_set", prop_name, self._observe_max_set),
            ("solvers", "max_set_heuristic", "solvers.max_set_heuristic", None,
             self._observe_nodes("solvers.max_set_heuristic.nodes")),
            ("solvers", "isometric_path_cover", "solvers.cover", None,
             self._observe_nodes("solvers.cover.nodes")),
            ("solvers", "isometric_cycle_cover", "solvers.cover", None,
             self._observe_nodes("solvers.cover.nodes")),
        ]

    def install(self) -> None:
        """Wrap every target in each loaded shadowpos module."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "shadowpos" or name.startswith("shadowpos.")]
        for module_name, attr, metric, name_of, observe in self._targets():
            original = getattr(import_module(f"shadowpos.{module_name}"), attr)
            wrapper = self._wrap(original, metric, name_of, observe)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)
        if not self.only_suites:
            # verify.fuzz and the replay dispatcher look checks up in SUITES.
            suites = import_module("shadowpos.verify").SUITES
            for sid in FUZZ_CHECKS:
                sd = suites[sid]
                self._suite_defs[sid] = sd
                suites[sid] = dataclasses.replace(
                    sd, check_instance=self._wrap(sd.check_instance,
                                                  f"verify.fuzz_check.{sid}"))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()
        suites = import_module("shadowpos.verify").SUITES
        for sid, sd in self._suite_defs.items():
            suites[sid] = sd
        self._suite_defs.clear()

    # -- aggregation -----------------------------------------------------

    def span_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name.

        A span nested inside a span of the same name is left out of the
        total, so recursion is not counted twice.  Self time is a span's
        duration minus the durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
        return total, own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        total, own = self.span_seconds()

        def seconds(prefix: str) -> float:
            return sum(v for k, v in total.items() if k == prefix or k.startswith(prefix + "."))

        calls = self.calls
        out: dict[str, float] = {}
        for layer in ("families.enumerate_connected", "families.canonical_key",
                      "formats.graph6", "graph_core.distances",
                      "graph_core.structural_queries", "shadow.shadow",
                      "shadow.distance_violations", "visibility.check",
                      "solvers.max_set", "solvers.max_set_heuristic", "solvers.cover"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = seconds(layer)
        out["graph_core.distances.n3"] = self.counts["graph_core.distances.n3"]
        out["graph_core.distances.distinct_ratio"] = _ratio(
            len(self.distinct["graph_core.distances"]), calls["graph_core.distances"])
        max_set_self = sum(v for k, v in own.items() if k.startswith("solvers.max_set."))
        nodes = self.counts["solvers.max_set.nodes"]
        out["solvers.max_set.self_s"] = max_set_self
        out["solvers.max_set.nodes"] = nodes
        out["solvers.max_set.nodes_per_s"] = _ratio(nodes, max_set_self)
        out["solvers.max_set.distinct_ratio"] = _ratio(
            len(self.distinct["solvers.max_set"]), calls["solvers.max_set"])
        out["solvers.max_set.exact_ratio"] = _ratio(
            self.counts["solvers.max_set.exact"], calls["solvers.max_set"])
        out["solvers.max_set.mv.s"] = total.get("solvers.max_set.mv", 0.0)
        out["solvers.max_set.gp.s"] = total.get("solvers.max_set.gp", 0.0)
        out["solvers.max_set_heuristic.nodes"] = self.counts["solvers.max_set_heuristic.nodes"]
        out["solvers.cover.nodes"] = self.counts["solvers.cover.nodes"]
        for sid in SUITES:
            out[f"verify.suite.{sid}.s"] = total.get(f"verify.suite.{sid}", 0.0)
        for sid in FUZZ_CHECKS:
            out[f"verify.fuzz_check.{sid}.s"] = total.get(f"verify.fuzz_check.{sid}", 0.0)
        return out

    def write_spans(self, path, pass_id: int) -> None:
        """Append the recorded spans as JSON lines tagged with ``pass_id``."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([pass_id, i, name, start, end, parent]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
