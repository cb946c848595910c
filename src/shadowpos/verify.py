"""Statement-replay harness: one named suite per claimed formula or bound.

Every suite is a row of one table and runs through one skeleton.  An
instance is a profile of one graph: a family member, or a small connected
graph up to isomorphism.  A row names a filter (why a graph is outside the
claim), the exact values it reads on G and S(G), each by an invariant code
of :func:`solvers.solve` (covers as well as set maxima), and a judge of
those values; no judge calls a solver.  The closed-form rows read one
invariant on the shadow of each family member and judge it equal to the
claimed formula.  The per-graph rows test a bound or a structural lemma
on every small connected graph; six bound claims share one judge built
from their ``(lo, hi)``.  ``mu-balloon`` reads mu_t of a balloon and mu of
its shadow, and ``ip-ic-bounds`` reads gp, ip and ic of G.  A profile
solves each value once, and :func:`fuzz` hands every per-graph check of a
graph the same profile.

Every value a suite compares is exact.  Failures carry a serialized
counterexample (graph6 plus witness) so they can be replayed in isolation:
the graph for a per-graph row, its shadow for a family row.  Instances
whose search budget runs out are reported SKIPPED, never silently passed.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable, Optional

from .families import FamilySpec, enumerate_connected, generate, random_tree
from .formats import graph_to_graph6
from .graph_core import (
    Graph,
    GraphError,
    StructuralSummary,
    mask_to_sorted_list,
    structural_queries,
)
from .shadow import ShadowGraph, gp_partition_violations, shadow, shadow_distance_violations
from .solvers import DEFAULT_NODE_BUDGET, BudgetExhausted, InvariantReport, solve

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
# Instance sweeps: small connected graphs and family parameter ranges


@lru_cache(maxsize=8)
def _connected_reps(n_max: int) -> tuple[tuple[str, Graph], ...]:
    """(graph6, graph) of one connected graph per isomorphism class, orders 1..n_max,
    enumerated once per process for :func:`fuzz` and the per-graph suites."""
    return tuple((graph_to_graph6(g), g) for g in enumerate_connected(n_max))


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


# ---------------------------------------------------------------------------
# The suite skeleton: rows that declare the exact values their judges read


class _GraphProfile:
    """One instance of a suite: a graph as every check reads it.

    The source is a graph6 string or a :class:`FamilySpec`, and ``graph``
    is the graph it names; ``key`` names the instance and defaults to the
    graph6.  The structural summary and the shadow are built on first use
    and exact :func:`solvers.solve` reports are kept per (invariant code, on
    the shadow) pair, so the checks of one graph share this work.  Nothing
    it caches outlives it; the distance tables of G and S(G) are not its
    own but the solvers', which read them through
    :func:`graph_core.shared_distances`, so the last two stay in that cache
    after the profile is gone.
    """

    def __init__(self, source: str | FamilySpec, graph: Graph, budget: int,
                 key: Optional[str] = None):
        self.source = source
        self.graph = graph
        self.budget = budget
        self.key = source if key is None else key
        self._reports: dict[tuple[str, bool], InvariantReport] = {}

    @cached_property
    def replay(self) -> str:
        """The graph6 that FAIL and SKIPPED records carry: S(G) for a family
        member, whose claim is about the shadow, else G."""
        if isinstance(self.source, FamilySpec):
            return graph_to_graph6(self.shadow.graph)
        return self.source

    @cached_property
    def summary(self) -> StructuralSummary:
        return structural_queries(self.graph)

    @cached_property
    def shadow(self) -> ShadowGraph:
        return shadow(self.graph)

    def exact(self, code: str, on_shadow: bool = False) -> InvariantReport:
        """The exact report of invariant ``code`` on G, or on S(G); raises
        :class:`BudgetExhausted` when the budget does not reach it."""
        r = self._reports.get((code, on_shadow))
        if r is None:
            g = self.shadow.graph if on_shadow else self.graph
            r = self._reports[(code, on_shadow)] = solve(code, g, self.budget)
        if not r.exact:
            raise BudgetExhausted
        return r

    def result(self, actual, expected_desc: str, ok: bool,
               witness: Optional[int] = None, note: str = "") -> InstanceResult:
        """PASS, or FAIL with the graph6 for replay."""
        return InstanceResult(
            self.key, PASS if ok else FAIL, expected_desc, str(actual),
            graph6=None if ok else self.replay,
            witness=None if witness is None else mask_to_sorted_list(witness), note=note)


def _members(kind: str, sweep: Callable, key: str) -> Callable:
    """The members of family ``kind`` that ``sweep(top, p)`` lists as
    ``(params, family seed)`` pairs up to the order cap ``top``.  ``key`` is
    formatted with the params as positional fields, the params list as
    ``{params}`` and the family seed as ``{fseed}``."""
    def members(top: int, p: SuiteParams) -> list[_GraphProfile]:
        return [_GraphProfile(spec := FamilySpec(kind, params, fseed), generate(spec), p.budget,
                              key.format(*params, params=list(params), fseed=fseed))
                for params, fseed in sweep(top, p)]

    return members


def _suite(suite_id: str, description: str, n_max: int,
           judge: Callable[..., InstanceResult], on_g: tuple[str, ...] = (),
           on_shadow: Optional[str] = None,
           outside: Optional[tuple[str, Callable[[_GraphProfile], bool]]] = None,
           members: Optional[Callable] = None) -> SuiteDef:
    """A claim over the ``members(top, p)`` profiles, by default every
    connected graph of order 2..``top``; ``top`` is ``p.n_max`` or else ``n_max``.

    A graph for which ``outside = (reason, test)`` tests true is outside the
    claim and passes as filtered.  On any other graph the exact reports of
    ``on_g`` on G and then of ``on_shadow`` on S(G) are read through the
    profile and passed to ``judge(profile, *reports)``.  These reads are the
    suite's ``reads``.  An instance whose reads the budget does not reach is
    SKIPPED, with its replay graph6.
    """
    reads = tuple((code, False) for code in on_g) + (
        ((on_shadow, True),) if on_shadow is not None else ())

    def instances(p: SuiteParams) -> list[_GraphProfile]:
        top = p.n_max if p.n_max is not None else n_max
        if members is not None:
            return members(top, p)
        return [_GraphProfile(g6, g, p.budget) for g6, g in _connected_reps(top) if g.n >= 2]

    def check(profile: _GraphProfile) -> InstanceResult:
        if outside is not None and outside[1](profile):
            return InstanceResult(profile.key, PASS, note=f"filtered: {outside[0]}")
        try:
            return judge(profile, *(profile.exact(code, s) for code, s in reads))
        except BudgetExhausted:
            return InstanceResult(profile.key, SKIPPED, actual="budget exhausted",
                                  graph6=profile.replay)

    return SuiteDef(suite_id, description, instances, check, reads, members is None)


def _closed_form(suite_id: str, description: str, kind: str, sweep: Callable, n_max: int,
                 code: str, expected: Callable, key: str) -> SuiteDef:
    """A suite that compares exact ``code`` on family shadows with a formula:
    ``expected(params, profile)`` is the claimed value."""
    def judge(p: _GraphProfile, r: InvariantReport) -> InstanceResult:
        exp = expected(p.source.params, p)
        return p.result(r.value, str(exp), r.value == exp, r.witness)

    return _suite(suite_id, description, n_max, judge, on_shadow=code,
                  members=_members(kind, sweep, key))


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


def _judge_ip_ic_bounds(p: _GraphProfile, gp_rep: InvariantReport, ip_rep: InvariantReport,
                        ic_rep: InvariantReport) -> InstanceResult:
    gp = gp_rep.value
    problems = []
    if gp > 2 * ip_rep.value:
        problems.append(f"gp = {gp} > 2 ip = {2 * ip_rep.value}")
    if ic_rep.coverable and gp > 3 * ic_rep.value:
        problems.append(f"gp = {gp} > 3 ic = {3 * ic_rep.value}")
    return p.result(gp, "gp <= 2 ip and gp <= 3 ic", not problems, note="; ".join(problems))


def _judge_mu_balloon(p: _GraphProfile, mut: InvariantReport,
                      mu: InvariantReport) -> InstanceResult:
    if mut.value != 0:
        return p.result(mut.value, "total visibility number 0", False)
    target = 6 * p.source.params[0] + 1
    return p.result(mu.value, f">= {target}", mu.value >= target, mu.witness)


@dataclass(frozen=True)
class SuiteDef:
    id: str
    description: str
    make_instances: Callable[[SuiteParams], list[_GraphProfile]]
    check_instance: Callable[..., InstanceResult]
    # The (invariant code, on the shadow) pairs the check reads, in reading order.
    reads: tuple[tuple[str, bool], ...] = ()
    # True for a claim on every small connected graph, which fuzz() runs.
    per_graph: bool = False


SUITES: dict[str, SuiteDef] = {s.id: s for s in [
    _closed_form("gp-complete", "gp(S(K_n)) = n",
                 "complete", lambda top, p: [((n,), None) for n in range(2, top + 1)], 8,
                 "gp", lambda ps, p: expected_gp_shadow_complete(*ps), "K_{0}"),
    _closed_form("gp-bipartite", "gp(S(K_{m,n})) = 2 max(m,n)",
                 "complete_bipartite", lambda top, p: [
                     ((m, n), None) for n in range(2, top + 1) for m in range(n, top + 1)], 5,
                 "gp", lambda ps, p: expected_gp_shadow_bipartite(*ps), "K_{{{0},{1}}}"),
    _suite("gp-diam3", "diam <= 3 implies gp(S(G)) >= n", 6,
           _bound(lambda p: (p.graph.n, None)), on_shadow="gp",
           outside=("diameter > 3", lambda p: p.summary.diameter > 3)),
    _closed_form("gp-join", "gp(S(K_1 + cliques)) = n + t_1 - 1",
                 "join_k1_cliques", lambda top, p: [(o, None) for o in _multisets(top - 1)], 9,
                 "gp", lambda ps, p: expected_gp_shadow_join(ps), "K_1+{params}"),
    _suite("gp-sandwich", "2 igp <= gp(S(G)) <= igp/min-degree upper bound", 6,
           _bound(lambda p, igp: gp_sandwich_bounds(p.graph.n, igp, p.summary.min_degree)),
           on_g=("igp",), on_shadow="gp"),
    _suite("gp-regular-tf", "regular triangle-free implies gp(S(G)) <= n", 7,
           _bound(lambda p: (None, p.graph.n)), on_shadow="gp",
           outside=("not regular triangle-free", lambda p: not (
               p.summary.is_regular and p.summary.is_triangle_free))),
    _closed_form("gp-cycles", "piecewise formula for gp(S(C_n))",
                 "cycle", lambda top, p: [((n,), None) for n in range(3, top + 1)], 10,
                 "gp", lambda ps, p: expected_gp_shadow_cycle(*ps), "C_{0}"),
    _closed_form("gp-trees", "gp(S(T)) = 2 l(T) for diam >= 2",
                 "random_tree", partial(_random_trees, min_diam=2), 10,
                 "gp",
                 lambda ps, p: expected_gp_shadow_tree(p.summary.leaf_count),
                 "tree(n={0},seed={fseed})"),
    _suite("mu-bounds", "max{n, 2 mu_i, 2 max-degree} <= mu(S(G)) <= min{n + mu, 2n - 2}",
           6, _bound(lambda p, mu, mui: mu_shadow_bounds(
               p.graph.n, mu, mui, p.summary.max_degree)),
           on_g=("mu", "mui"), on_shadow="mu"),
    _closed_form("mu-multipartite", "mu(S(K_{n_1..n_k})) = 2n - 2",
                 "complete_multipartite", lambda top, p: [(o, None) for o in _multisets(top)], 8,
                 "mu", lambda ps, p: expected_mu_shadow_multipartite(ps), "K_{params}"),
    _suite("mu-leaf", "mu(S(G)) >= n + leaf count for n >= 3", 6,
           _bound(lambda p: (p.graph.n + p.summary.leaf_count, None)),
           on_shadow="mu", outside=("n < 3", lambda p: p.graph.n < 3)),
    _suite("mu-muit", "triangle-free, no universal vertex: mu(S(G)) >= n + mu_it", 6,
           _bound(lambda p, muit: (p.graph.n + muit, None)),
           on_g=("muit",), on_shadow="mu",
           outside=("triangle or universal vertex", lambda p: (
               not p.summary.is_triangle_free or p.summary.has_universal_vertex))),
    _closed_form("mu-trees", "mu(S(T)) = n + l for diam >= 3",
                 "random_tree", partial(_random_trees, min_diam=3), 9,
                 "mu", lambda ps, p: expected_mu_shadow_tree(
                     p.graph.n, p.summary.leaf_count),
                 "tree(n={0},seed={fseed})"),
    # One fixed member, balloon(2): no order range applies.
    _suite("mu-balloon", "balloon: mu_t = 0 and mv set of size 6k + 1 in the shadow", 0,
           _judge_mu_balloon, on_g=("mut",), on_shadow="mu",
           members=_members("balloon", lambda top, p: [((2,), None)], "balloon({0})")),
    _suite("mu-char", "mu(S(G)) small-value characterization", 6, _judge_mu_char,
           on_shadow="mu"),
    _closed_form("mu-cycles", "piecewise formula for mu(S(C_n))",
                 "cycle", lambda top, p: [((n,), None) for n in range(3, top + 1)], 9,
                 "mu", lambda ps, p: expected_mu_shadow_cycle(*ps), "C_{0}"),
    _suite("lemma-distance", "shadow distance clauses", 7, _judge_lemma_distance),
    _suite("lemma-partition", "gp-partition structural clauses", 6,
           _judge_lemma_partition, on_shadow="gp"),
    _suite("ip-ic-bounds", "gp <= 2 ip and gp <= 3 ic", 7, _judge_ip_ic_bounds,
           on_g=("gp", "ip", "ic")),
]}


def _dispatch(item: tuple) -> InstanceResult:
    suite_id, profile = item
    return SUITES[suite_id].check_instance(profile)


def run_suite(suite_id: str, params: SuiteParams = SuiteParams(),
              workers: Optional[int] = None) -> SuiteReport:
    """Run one suite; results are sorted by instance key for determinism.

    A range that holds no instance raises :class:`GraphError`: a claim that
    was never checked must not read as confirmed.
    """
    if suite_id not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise GraphError(f"unknown suite {suite_id!r}; available: {known}")
    suite = SUITES[suite_id]
    instances = suite.make_instances(params)
    if not instances:
        raise GraphError(f"suite {suite_id!r} has no instance at n_max = {params.n_max}")
    items = [(suite_id, profile) for profile in instances]
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


# ---------------------------------------------------------------------------
# Fuzz driver


def fuzz(n_max: int):
    """Run every per-graph check over all small connected graphs.

    Yields one record per graph of :func:`_connected_reps`, K_1 included, and
    solves each check afresh; counterexamples are serialized in the record.
    """
    suite_ids = [s.id for s in SUITES.values() if s.per_graph]
    for g6, g in _connected_reps(n_max):
        profile = _GraphProfile(g6, g, DEFAULT_NODE_BUDGET)
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
