"""Statement-replay harness: one named suite per claimed formula or bound.

There are three kinds of suite.  The closed-form suites are rows of one
table: each names a graph family, a parameter sweep, a set property and
the claimed formula, and one shared check computes the exact value on the
shadow of every family member.  The per-graph fuzz checks test a bound or
a structural lemma on every small connected graph up to isomorphism.  Each
is a row naming a filter, the exact values it reads on G and S(G), and a
judge of those values; six bound claims share one judge built from their
``(lo, hi)``.  The values come from one profile per graph that solves each
once, and :func:`fuzz` hands every check of a graph the same profile.
``mu-balloon`` checks mu_t = 0 on a balloon and the claimed lower bound on
mu of its shadow, both with the exact search.

Every value a suite compares is exact.  Failures carry a serialized
counterexample (graph6 plus witness) so they can be replayed in isolation.
Instances whose search budget runs out are reported SKIPPED, never
silently passed.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable, Optional

from .families import FamilySpec, enumerate_connected, generate, random_tree
from .formats import graph6_to_graph, graph_to_graph6
from .graph_core import (
    Graph,
    GraphError,
    StructuralSummary,
    mask_to_sorted_list,
    structural_queries,
)
from .shadow import ShadowGraph, gp_partition_violations, shadow, shadow_distance_violations
from .solvers import (
    DEFAULT_NODE_BUDGET,
    BudgetExhausted,
    InvariantReport,
    isometric_cycle_cover,
    isometric_path_cover,
    max_set,
)
from .visibility import SetProperty

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class SuiteParams:
    n_max: Optional[int] = None
    seed: int = 0
    tree_count: int = 50
    budget: int = DEFAULT_NODE_BUDGET


@dataclass
class InstanceResult:
    key: str
    status: str
    expected: str = ""
    actual: str = ""
    graph6: Optional[str] = None
    witness: Optional[list[int]] = None
    note: str = ""

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class SuiteReport:
    suite: str
    results: list[InstanceResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == PASS)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == FAIL)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.results if r.status == SKIPPED)

    def failures(self) -> list[InstanceResult]:
        return [r for r in self.results if r.status == FAIL]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instances": len(self.results),
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "results": [r.to_dict() for r in self.results],
        }


def worker_count() -> int:
    """The CPUs this process may run on, else all CPUs of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Closed forms (pure; unit-tested independently of the solvers)


def expected_gp_shadow_complete(n: int) -> int:
    return n


def expected_gp_shadow_bipartite(m: int, n: int) -> int:
    return 2 * max(m, n)


def expected_gp_shadow_cycle(n: int) -> int:
    return n if n <= 7 else 6


def expected_mu_shadow_cycle(n: int) -> int:
    if n == 4:
        return 6
    if n in (3, 5, 6):
        return n + 1
    return n


def expected_gp_shadow_join(orders: Iterable[int]) -> int:
    orders = list(orders)
    n = 1 + sum(orders)
    t1 = sum(1 for w in orders if w == 2)
    return n + t1 - 1


def expected_mu_shadow_multipartite(parts: Iterable[int]) -> int:
    return 2 * sum(parts) - 2


def expected_gp_shadow_tree(leaf_count: int) -> int:
    return 2 * leaf_count


def expected_mu_shadow_tree(n: int, leaf_count: int) -> int:
    return n + leaf_count


def gp_sandwich_bounds(n: int, igp: int, delta: int) -> tuple[int, int]:
    upper = n + min(igp - delta + 1, (igp * (n - 1) - delta) // (igp + delta))
    return 2 * igp, upper


def mu_shadow_bounds(n: int, mu: int, mu_i: int, max_degree: int) -> tuple[int, int]:
    return max(n, 2 * mu_i, 2 * max_degree), min(n + mu, 2 * n - 2)


# ---------------------------------------------------------------------------
# Shared helpers


@lru_cache(maxsize=8)
def _connected_reps_g6(n_max: int) -> tuple[str, ...]:
    """graph6 of one connected graph per isomorphism class, orders 2..n_max."""
    return tuple(graph_to_graph6(g) for g in enumerate_connected(n_max)
                 if g.n >= 2)


# ---------------------------------------------------------------------------
# Closed-form suites: one SUITES row per family formula, one shared check


def _multisets(total: int) -> list[tuple[int, ...]]:
    """Sorted multisets of two or more sizes >= 2 whose sum is at most ``total``."""
    out = []

    def rec(prefix, min_size, remaining):
        if len(prefix) >= 2:
            out.append(tuple(prefix))
        for s in range(min_size, remaining + 1):
            rec(prefix + [s], s, remaining - s)

    rec([], 2, total)
    return sorted(out)


def _random_trees(top: int, p: SuiteParams, min_diam: int) -> list[tuple[tuple[int, ...], int]]:
    """Sweep over ``p.tree_count`` seeded random trees of diameter >= ``min_diam``."""
    out = []
    attempt = 0
    while len(out) < p.tree_count and attempt < 50 * p.tree_count:
        fseed = p.seed * 1_000_003 + attempt
        attempt += 1
        n = 2 + (fseed * 2654435761 % (top - 1)) if top > 2 else 2
        t = random_tree(max(2, n), fseed)
        if structural_queries(t).diameter >= min_diam:
            out.append(((t.n,), fseed))
    return out


def _closed_form(suite_id: str, description: str, family: str, sweep: Callable,
                 n_max: int, prop: SetProperty, expected: Callable, key: str) -> SuiteDef:
    """A suite that compares exact ``prop`` on family shadows with a formula.

    ``sweep(top, p)`` lists ``(family params, family seed)`` pairs up to the
    order cap ``top``, which is ``p.n_max`` or else ``n_max``.
    ``expected(params, g)`` is the claimed value for the base graph ``g``.
    ``key`` is formatted with the family params as positional fields, the
    params list as ``{params}`` and the family seed as ``{fseed}``.
    """
    def instances(p: SuiteParams) -> list[dict]:
        top = p.n_max if p.n_max is not None else n_max
        return [{"family": family, "params": list(params), "fseed": fseed,
                 "budget": p.budget} for params, fseed in sweep(top, p)]

    def check(payload: dict) -> InstanceResult:
        params = tuple(payload["params"])
        g = generate(FamilySpec(family, params, payload["fseed"]))
        sg = shadow(g).graph
        r = max_set(prop, sg, budget=payload["budget"])
        exp = expected(params, g)
        name = key.format(*params, params=list(params), fseed=payload["fseed"])
        if not r.exact:
            return InstanceResult(name, SKIPPED, str(exp), "budget exhausted",
                                  graph6=graph_to_graph6(sg))
        ok = r.value == exp
        return InstanceResult(name, PASS if ok else FAIL, str(exp), str(r.value),
                              graph6=None if ok else graph_to_graph6(sg),
                              witness=mask_to_sorted_list(r.witness))

    return SuiteDef(suite_id, description, instances, check)


# ---------------------------------------------------------------------------
# Per-graph fuzz checks: rows that declare the exact values their judges read


class _GraphProfile:
    """One connected graph as every fuzz check reads it.

    The graph, its structural summary and its shadow are built on first use
    and exact ``max_set`` reports are kept per (property, on the shadow)
    pair, so the checks of one graph share this work.  A profile pickles as
    graph6 plus node budget; nothing it caches outlives it.
    """

    def __init__(self, graph6: str, budget: int, graph: Optional[Graph] = None):
        self.graph6 = graph6
        self.budget = budget
        if graph is not None:
            self.graph = graph  # seeds the cached property: no graph6 parse
        self._reports: dict[tuple[SetProperty, bool], InvariantReport] = {}

    def __reduce__(self):
        return _GraphProfile, (self.graph6, self.budget)

    @cached_property
    def graph(self) -> Graph:
        return graph6_to_graph(self.graph6)

    @cached_property
    def summary(self) -> StructuralSummary:
        return structural_queries(self.graph)

    @cached_property
    def shadow(self) -> ShadowGraph:
        return shadow(self.graph)

    def exact(self, prop: SetProperty, on_shadow: bool = False) -> InvariantReport:
        """The exact ``max_set`` report of ``prop`` on G, or on S(G)."""
        r = self._reports.get((prop, on_shadow))
        if r is None:
            g = self.shadow.graph if on_shadow else self.graph
            r = self._reports[(prop, on_shadow)] = max_set(prop, g, budget=self.budget)
        if not r.exact:
            raise BudgetExhausted
        return r

    def result(self, actual, expected_desc: str, ok: bool,
               witness: Optional[int] = None, note: str = "") -> InstanceResult:
        """PASS, or FAIL with the graph6 for replay."""
        return InstanceResult(
            self.graph6, PASS if ok else FAIL, expected_desc, str(actual),
            graph6=None if ok else self.graph6,
            witness=None if witness is None else mask_to_sorted_list(witness), note=note)


def _fuzz_suite(suite_id: str, description: str, n_max: int,
                judge: Callable[..., InstanceResult], on_g: tuple[SetProperty, ...] = (),
                on_shadow: Optional[SetProperty] = None,
                outside: Optional[tuple[str, Callable[[_GraphProfile], bool]]] = None) -> SuiteDef:
    """A per-graph claim over the connected graphs of order 2..``n_max``.

    A graph for which ``outside = (reason, test)`` tests true is outside the
    claim and passes as filtered.  On any other graph the exact reports of
    ``on_g`` on G and then of ``on_shadow`` on S(G) are read through the
    profile and passed to ``judge(profile, *reports)``.  These reads are the
    suite's ``reads``.  An instance whose reads the budget does not reach is
    SKIPPED, with its graph6 for replay.
    """
    reads = tuple((prop, False) for prop in on_g) + (
        ((on_shadow, True),) if on_shadow is not None else ())

    def instances(p: SuiteParams) -> list[_GraphProfile]:
        top = p.n_max if p.n_max is not None else n_max
        return [_GraphProfile(g6, p.budget) for g6 in _connected_reps_g6(top)]

    def check(profile: _GraphProfile) -> InstanceResult:
        if outside is not None and outside[1](profile):
            return InstanceResult(profile.graph6, PASS, note=f"filtered: {outside[0]}")
        try:
            return judge(profile, *(profile.exact(prop, s) for prop, s in reads))
        except BudgetExhausted:
            return InstanceResult(profile.graph6, SKIPPED, actual="budget exhausted",
                                  graph6=profile.graph6)

    return SuiteDef(suite_id, description, instances, check, reads)


def _bound(bounds: Callable[..., tuple[Optional[int], Optional[int]]]) -> Callable:
    """The judge of ``lo <= x(S(G)) <= hi``, x the invariant read on S(G), with
    ``(lo, hi) = bounds(profile, *values read on G)``; a None end is open."""
    def judge(p: _GraphProfile, *reports: InvariantReport) -> InstanceResult:
        *on_g, r = reports
        lo, hi = bounds(p, *(x.value for x in on_g))
        expected = (f">= {lo}" if hi is None else f"<= {hi}" if lo is None
                    else f"{lo} <= {r.invariant}(S(G)) <= {hi}")
        ok = (lo is None or lo <= r.value) and (hi is None or r.value <= hi)
        return p.result(r.value, expected, ok, r.witness)

    return judge


def _judge_mu_char(p: _GraphProfile, r: InvariantReport) -> InstanceResult:
    # G is connected: the single edge is its only graph of order 2, and the
    # 3-path and the 3-cycle are its only graphs of order 3.
    value, n = r.value, p.graph.n
    problems = []
    if value in (3, 5):
        problems.append(f"mu(S(G)) = {value} should never occur")
    if (value == 2) != (n == 2):
        problems.append("mu(S(G)) = 2 should hold exactly for the single edge")
    if (value == 4) != (n == 3):
        problems.append("mu(S(G)) = 4 should hold exactly for the 3-path/3-cycle")
    return p.result(value, "characterization of small values", not problems, r.witness,
                    "; ".join(problems))


def _judge_lemma_distance(p: _GraphProfile) -> InstanceResult:
    violations = shadow_distance_violations(p.shadow)
    return p.result(len(violations), "no distance-clause violations", not violations,
                    note="; ".join(violations[:3]))


def _judge_lemma_partition(p: _GraphProfile, r: InvariantReport) -> InstanceResult:
    violations = gp_partition_violations(p.shadow, r.witness)
    return p.result(len(violations), "no partition-clause violations", not violations,
                    r.witness, "; ".join(violations[:3]))


def _judge_ip_ic_bounds(p: _GraphProfile, gp_rep: InvariantReport) -> InstanceResult:
    gp = gp_rep.value
    ip_rep = isometric_path_cover(p.graph, budget=p.budget)
    if not ip_rep.exact:
        raise BudgetExhausted
    problems = []
    if gp > 2 * ip_rep.value:
        problems.append(f"gp = {gp} > 2 ip = {2 * ip_rep.value}")
    ic_rep = isometric_cycle_cover(p.graph, budget=p.budget)
    if not ic_rep.exact:
        raise BudgetExhausted
    if ic_rep.coverable and gp > 3 * ic_rep.value:
        problems.append(f"gp = {gp} > 3 ic = {3 * ic_rep.value}")
    return p.result(gp, "gp <= 2 ip and gp <= 3 ic", not problems, note="; ".join(problems))


def _instances_mu_balloon(p: SuiteParams) -> list[dict]:
    return [{"k": 2, "budget": p.budget}]


def _check_mu_balloon(payload: dict) -> InstanceResult:
    k = payload["k"]
    key = f"balloon({k})"
    g = generate(FamilySpec("balloon", (k,)))
    mut = max_set(SetProperty.TMV, g, budget=payload["budget"])
    if not mut.exact:
        return InstanceResult(key, SKIPPED, actual="budget exhausted", graph6=graph_to_graph6(g))
    if mut.value != 0:
        return InstanceResult(key, FAIL, "total visibility number 0",
                              str(mut.value), graph6=graph_to_graph6(g))
    sg = shadow(g).graph
    mu = max_set(SetProperty.MV, sg, budget=payload["budget"])
    if not mu.exact:
        return InstanceResult(key, SKIPPED, actual="budget exhausted", graph6=graph_to_graph6(sg))
    target = 6 * k + 1
    ok = mu.value >= target
    return InstanceResult(key, PASS if ok else FAIL, f">= {target}", str(mu.value),
                          graph6=None if ok else graph_to_graph6(sg),
                          witness=mask_to_sorted_list(mu.witness))


@dataclass(frozen=True)
class SuiteDef:
    id: str
    description: str
    make_instances: Callable[[SuiteParams], list]
    check_instance: Callable[..., InstanceResult]
    # The (property, on the shadow) pairs a per-graph fuzz check reads, in
    # reading order; None for suites fuzz() skips.
    reads: Optional[tuple[tuple[SetProperty, bool], ...]] = None

    @property
    def solves(self) -> Optional[tuple[SetProperty, ...]]:
        return None if self.reads is None else tuple(dict.fromkeys(p for p, _ in self.reads))


SUITES: dict[str, SuiteDef] = {s.id: s for s in [
    _closed_form("gp-complete", "gp(S(K_n)) = n",
                 "complete", lambda top, p: [((n,), None) for n in range(2, top + 1)], 8,
                 SetProperty.GP, lambda p, g: expected_gp_shadow_complete(*p), "K_{0}"),
    _closed_form("gp-bipartite", "gp(S(K_{m,n})) = 2 max(m,n)",
                 "complete_bipartite", lambda top, p: [
                     ((m, n), None) for n in range(2, top + 1) for m in range(n, top + 1)], 5,
                 SetProperty.GP, lambda p, g: expected_gp_shadow_bipartite(*p), "K_{{{0},{1}}}"),
    _fuzz_suite("gp-diam3", "diam <= 3 implies gp(S(G)) >= n", 6,
                _bound(lambda p: (p.graph.n, None)), on_shadow=SetProperty.GP,
                outside=("diameter > 3", lambda p: p.summary.diameter > 3)),
    _closed_form("gp-join", "gp(S(K_1 + cliques)) = n + t_1 - 1",
                 "join_k1_cliques", lambda top, p: [(o, None) for o in _multisets(top - 1)], 9,
                 SetProperty.GP, lambda p, g: expected_gp_shadow_join(p), "K_1+{params}"),
    _fuzz_suite("gp-sandwich", "2 igp <= gp(S(G)) <= igp/min-degree upper bound", 6,
                _bound(lambda p, igp: gp_sandwich_bounds(p.graph.n, igp, p.summary.min_degree)),
                on_g=(SetProperty.IGP,), on_shadow=SetProperty.GP),
    _fuzz_suite("gp-regular-tf", "regular triangle-free implies gp(S(G)) <= n", 7,
                _bound(lambda p: (None, p.graph.n)), on_shadow=SetProperty.GP,
                outside=("not regular triangle-free", lambda p: not (
                    p.summary.is_regular and p.summary.is_triangle_free))),
    _closed_form("gp-cycles", "piecewise formula for gp(S(C_n))",
                 "cycle", lambda top, p: [((n,), None) for n in range(3, top + 1)], 10,
                 SetProperty.GP, lambda p, g: expected_gp_shadow_cycle(*p), "C_{0}"),
    _closed_form("gp-trees", "gp(S(T)) = 2 l(T) for diam >= 2",
                 "random_tree", partial(_random_trees, min_diam=2), 10,
                 SetProperty.GP,
                 lambda p, g: expected_gp_shadow_tree(structural_queries(g).leaf_count),
                 "tree(n={0},seed={fseed})"),
    _fuzz_suite("mu-bounds", "max{n, 2 mu_i, 2 max-degree} <= mu(S(G)) <= min{n + mu, 2n - 2}",
                6, _bound(lambda p, mu, mui: mu_shadow_bounds(
                    p.graph.n, mu, mui, p.summary.max_degree)),
                on_g=(SetProperty.MV, SetProperty.IMV), on_shadow=SetProperty.MV),
    _closed_form("mu-multipartite", "mu(S(K_{n_1..n_k})) = 2n - 2",
                 "complete_multipartite", lambda top, p: [(o, None) for o in _multisets(top)], 8,
                 SetProperty.MV, lambda p, g: expected_mu_shadow_multipartite(p), "K_{params}"),
    _fuzz_suite("mu-leaf", "mu(S(G)) >= n + leaf count for n >= 3", 6,
                _bound(lambda p: (p.graph.n + p.summary.leaf_count, None)),
                on_shadow=SetProperty.MV, outside=("n < 3", lambda p: p.graph.n < 3)),
    _fuzz_suite("mu-muit", "triangle-free, no universal vertex: mu(S(G)) >= n + mu_it", 6,
                _bound(lambda p, muit: (p.graph.n + muit, None)),
                on_g=(SetProperty.ITMV,), on_shadow=SetProperty.MV,
                outside=("triangle or universal vertex", lambda p: (
                    not p.summary.is_triangle_free or p.summary.has_universal_vertex))),
    _closed_form("mu-trees", "mu(S(T)) = n + l for diam >= 3",
                 "random_tree", partial(_random_trees, min_diam=3), 9,
                 SetProperty.MV, lambda p, g: expected_mu_shadow_tree(
                     g.n, structural_queries(g).leaf_count),
                 "tree(n={0},seed={fseed})"),
    SuiteDef("mu-balloon", "balloon: mu_t = 0 and mv set of size 6k + 1 in the shadow",
             _instances_mu_balloon, _check_mu_balloon),
    _fuzz_suite("mu-char", "mu(S(G)) small-value characterization", 6, _judge_mu_char,
                on_shadow=SetProperty.MV),
    _closed_form("mu-cycles", "piecewise formula for mu(S(C_n))",
                 "cycle", lambda top, p: [((n,), None) for n in range(3, top + 1)], 9,
                 SetProperty.MV, lambda p, g: expected_mu_shadow_cycle(*p), "C_{0}"),
    _fuzz_suite("lemma-distance", "shadow distance clauses", 7, _judge_lemma_distance),
    _fuzz_suite("lemma-partition", "gp-partition structural clauses", 6,
                _judge_lemma_partition, on_shadow=SetProperty.GP),
    _fuzz_suite("ip-ic-bounds", "gp <= 2 ip and gp <= 3 ic", 7, _judge_ip_ic_bounds,
                on_g=(SetProperty.GP,)),
]}


def _dispatch(item: tuple) -> InstanceResult:
    suite_id, payload = item
    return SUITES[suite_id].check_instance(payload)


def run_suite(suite_id: str, params: SuiteParams = SuiteParams(),
              workers: Optional[int] = None) -> SuiteReport:
    """Run one suite; results are sorted by instance key for determinism."""
    if suite_id not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise GraphError(f"unknown suite {suite_id!r}; available: {known}")
    suite = SUITES[suite_id]
    instances = suite.make_instances(params)
    items = [(suite_id, payload) for payload in instances]
    if workers is None:
        workers = worker_count()
    if workers > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_dispatch, items, chunksize=8))
    else:
        results = [_dispatch(item) for item in items]
    report = SuiteReport(suite_id)
    report.results = sorted(results, key=lambda r: r.key)
    return report


def run_all(params: SuiteParams = SuiteParams(),
            workers: Optional[int] = None) -> list[SuiteReport]:
    return [run_suite(sid, params, workers) for sid in SUITES]


# ---------------------------------------------------------------------------
# Fuzz driver


def fuzz(n_max: int, properties: Optional[Iterable[SetProperty]] = None,
         budget: int = DEFAULT_NODE_BUDGET):
    """Run every applicable per-graph check over all small connected graphs.

    Yields one record per enumerated graph (dedup by isomorphism class);
    counterexamples are serialized in the record immediately.  With
    ``properties``, only the checks that solve one of them run; a property
    that no check solves raises :class:`ValueError`.
    """
    fuzz_suites = [s for s in SUITES.values() if s.solves is not None]
    if properties is None:
        suite_ids = [s.id for s in fuzz_suites]
    else:
        suite_ids = []
        for prop in properties:
            selected = [s.id for s in fuzz_suites if prop in s.solves]
            if not selected:
                raise ValueError(f"no fuzz check solves {prop!r}")
            suite_ids.extend(selected)
        suite_ids = list(dict.fromkeys(suite_ids))
    for g in enumerate_connected(n_max):
        g6 = graph_to_graph6(g)
        profile = _GraphProfile(g6, budget, g)
        # Every check involves the shadow, which needs at least one edge.
        checks = {sid: SUITES[sid].check_instance(profile)
                  for sid in (suite_ids if g.n >= 2 else ())}
        yield {
            "graph6": g6,
            "n": g.n,
            "checks": {sid: r.to_dict() for sid, r in checks.items()},
            "violations": [sid for sid, r in checks.items() if r.status == FAIL],
            "skipped": [sid for sid, r in checks.items() if r.status == SKIPPED],
        }
