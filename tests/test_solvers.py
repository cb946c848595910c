import itertools
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import shadowpos
from shadowpos import solvers
from shadowpos.families import enumerate_connected, generate, parse_family_spec
from shadowpos.graph_core import (
    GraphError,
    build_graph,
    distances,
    iter_bits,
    mask_of,
    mask_to_sorted_list,
    structural_queries,
)
from shadowpos.shadow import shadow, star_shadow
from shadowpos.solvers import (
    DEFAULT_NODE_BUDGET,
    _GpChecker,
    _MaxSetSearch,
    _MvChecker,
    _TmvChecker,
    _make_checker,
    chromatic_number,
    isometric_cycle_cover,
    isometric_path_cover,
    max_set,
    max_set_heuristic,
    property_for_code,
)
from shadowpos.visibility import SetProperty, check as check_property

from conftest import random_connected_graph
from oracles import (
    NaiveOracle,
    all_geodesics,
    matrix_power_distances,
    naive_check,
    naive_chromatic_number,
)

ALL_CODES = ("gp", "igp", "mu", "mui", "mut", "muit")


def _family(text):
    return generate(parse_family_spec(text))


def test_exact_values_match_subset_enumeration_small():
    # Every connected graph of order <= 5 and its shadow (S(K_1) is disconnected).
    bases = list(enumerate_connected(5))
    for g in bases + [shadow(b).graph for b in bases if b.n > 1]:
        oracle = NaiveOracle(g)
        for code in ALL_CODES:
            r = max_set(property_for_code(code), g)
            assert r.exact
            assert r.value == oracle.max_set(code), (g.edges(), code)
            assert check_property(property_for_code(code), g, distances(g), r.witness)
            assert r.witness.bit_count() == r.value


def test_exact_values_match_subset_enumeration_random():
    rng = random.Random(31)
    for _ in range(8):
        g = random_connected_graph(rng.randint(5, 7), rng)
        oracle = NaiveOracle(g)
        for code in ALL_CODES:
            assert max_set(property_for_code(code), g).value == oracle.max_set(code)


def test_rejects_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        max_set(SetProperty.GP, g)
    with pytest.raises(GraphError):
        max_set_heuristic(SetProperty.GP, g)


def test_rejects_unknown_properties_and_codes():
    p3 = _family("path:3")
    with pytest.raises(ValueError) as exc:
        max_set("gp", p3)
    assert str(exc.value) == "unknown property 'gp'"
    with pytest.raises(GraphError) as exc:
        solvers.solve("xx", p3)
    assert str(exc.value) == "unknown set-invariant code 'xx'"


def test_canonical_witness_is_lexicographically_smallest():
    # mut = muit = 0 on C_6, so the empty witness is covered too.
    graphs = {text: _family(text) for text in ["cycle:6", "path:5", "bipartite:2,3", "complete:4"]}
    graphs.update({f"S({text})": shadow(_family(text)).graph
                   for text in ["cycle:5", "star:3", "path:4", "cycle:4"]})
    # Every connected graph of order <= 5 and its shadow (S(K_1) is disconnected).
    for b in enumerate_connected(5):
        graphs[str(b.edges())] = b
        if b.n > 1:
            graphs[f"S({b.edges()})"] = shadow(b).graph
    for text, g in graphs.items():
        for code in ALL_CODES:
            prop = property_for_code(code)
            r = max_set(prop, g)
            # A heuristic run that finishes is the same search.
            h = max_set_heuristic(prop, g, time_budget=60.0)
            assert h.exact and h.witness == r.witness, (text, code)
            t = distances(g)
            best = None
            for combo in itertools.combinations(range(g.n), r.value):
                mask = 0
                for v in combo:
                    mask |= 1 << v
                if check_property(prop, g, t, mask):
                    cand = tuple(combo)
                    if best is None or cand < best:
                        best = cand
            assert tuple(mask_to_sorted_list(r.witness)) == best, (text, code)


def test_forward_check_filters_match_the_certifier():
    # Each checker's survivors() must keep exactly the candidates whose
    # addition the certifier accepts, in the same order, on states the
    # search can reach: from the empty set, and after w joins, with
    # candidates that could each join the set as it was before w.  Every
    # add() must leave a set the certifier accepts.  With ``need``, a filter
    # may stop early only when fewer than ``need`` candidates survive.
    rng = random.Random(606)
    graphs = [shadow(random_connected_graph(rng.randint(2, 6), rng)).graph for _ in range(10)]
    graphs += [random_connected_graph(rng.randint(3, 12), rng) for _ in range(10)]
    for g in graphs:
        t = distances(g)
        for code in ALL_CODES:
            prop = property_for_code(code)
            checker = _make_checker(prop, g, t)
            for _ in range(3):
                cands = list(range(g.n))
                rng.shuffle(cands)
                while True:
                    kept = checker.survivors(cands)
                    assert kept == [x for x in cands
                                    if check_property(prop, g, t, checker.mask | 1 << x)], \
                        (code, g.edges(), checker.members, cands)
                    need = rng.randint(1, len(cands) + 1)
                    early = checker.survivors(cands, need)
                    assert early == kept or (len(kept) < need and len(early) < need
                                             and early == kept[:len(early)])
                    if not kept:
                        break
                    w = rng.choice(kept)
                    cands = [x for x in kept if x != w]
                    rng.shuffle(cands)
                    checker.add(w)
                    assert check_property(prop, g, t, checker.mask), (code, checker.members)
                while checker.members:
                    checker.pop()


def test_clique_bounds_count_at_least_the_largest_joining_subset():
    # On states the search can reach, bounds(cands)[j] is at least the size
    # of the largest subset of cands[j:] that joins the members as a GP,
    # IGP, MV or IMV set, found by the oracle over every feasible extension;
    # the bounds never increase with j and never exceed len(cands) - j.
    rng = random.Random(2103)
    bases = list(enumerate_connected(5))
    for g in bases + [shadow(b).graph for b in bases if b.n > 1]:
        t, d = distances(g), matrix_power_distances(g)
        for code in ("gp", "igp", "mu", "mui"):
            checker = _make_checker(property_for_code(code), g, t)
            for _ in range(2):
                cands = list(range(g.n))
                rng.shuffle(cands)
                while True:
                    cands = checker.survivors(cands)
                    bounds = list(checker.bounds(cands))
                    members = set(checker.members)
                    most = [0] * (len(cands) + 1)  # most[j]: largest subset from j on

                    def grow(chosen, start):
                        # chosen: increasing indices into cands of a joining subset.
                        for i in range(start, len(cands)):
                            s = chosen + (i,)
                            if naive_check(code, g, d, members | {cands[k] for k in s}):
                                most[s[0]] = max(most[s[0]], len(s))
                                grow(s, i + 1)

                    grow((), 0)
                    for j in range(len(cands) - 1, -1, -1):
                        most[j] = max(most[j], most[j + 1])
                    assert len(bounds) == len(cands), (code, g.edges(), members)
                    for j, b in enumerate(bounds):
                        assert most[j] <= b <= len(cands) - j, (code, g.edges(), members, j)
                    assert bounds == sorted(bounds, reverse=True)
                    if not cands:
                        break
                    w = rng.choice(cands)
                    cands.remove(w)
                    checker.add(w)
                while checker.members:
                    checker.pop()


def test_clique_bounds_finish_gp_searches_on_shadows():
    # gp(S(T)) = 2 * leaves(T) for a tree T.  Without the clique bound, GP
    # had no proof after 1,000,000 nodes, IGP took 157,684 and S(C_40) 38,571.
    tree = _family("tree:40:seed=1")
    r = max_set(SetProperty.GP, shadow(tree).graph, budget=1000)
    assert r.exact and r.value == 36 == 2 * structural_queries(tree).leaf_count
    r = max_set(SetProperty.IGP, shadow(_family("tree:30:seed=1")).graph, budget=1000)
    assert r.exact and r.value == 22
    r = max_set(SetProperty.GP, shadow(_family("cycle:40")).graph)
    assert r.exact and r.value == 6 and r.nodes_explored <= 2000


def test_clique_bounds_finish_mv_searches_on_shadows():
    # mu(S(C_n)) = n.  Without the clique bound, MV S(C_22) took 14,438
    # nodes and IMV S(tree:30:seed=1) 212,060.
    r = max_set(SetProperty.MV, shadow(_family("cycle:22")).graph)
    assert r.exact and r.value == 22 and r.nodes_explored <= 1000
    r = max_set(SetProperty.IMV, shadow(_family("tree:30:seed=1")).graph, budget=10_000)
    assert r.exact and r.value == 32


def _certified(checker, prop):
    # The exact forward check, by heredity: x survives exactly when the set
    # with x passes the certifier.  The independent variants keep their edge
    # conflicts, which the clique bounds read.
    class Certified(checker):
        def __init__(self, g, t):
            super().__init__(g, t, independent=prop in (
                SetProperty.IGP, SetProperty.IMV, SetProperty.ITMV))

        def survivors(self, cands, need=0):
            return [x for x in cands if check_property(prop, self.g, self.t, self.mask | 1 << x)]
    return Certified


@pytest.mark.parametrize("prop, spec, checker", [
    (SetProperty.MV, "cycle:14", _MvChecker), (SetProperty.MV, "balloon:2", _MvChecker),
    (SetProperty.GP, "cycle:40", _GpChecker), (SetProperty.IGP, "tree:30:seed=1", _GpChecker),
    (SetProperty.IMV, "cycle:12", _MvChecker), (SetProperty.IMV, "tree:12:seed=1", _MvChecker),
    (SetProperty.TMV, "star:4", _TmvChecker), (SetProperty.ITMV, "tree:12:seed=1", _TmvChecker)])
def test_certifier_replay_visits_the_same_nodes(prop, spec, checker):
    # With the certifier in place of the forward check, the search meets the
    # same value, witness and node count: the filters and the clique bounds
    # agree with the certifier at every node visited.
    g = shadow(_family(spec)).graph
    r = max_set(prop, g)
    certified = _certified(checker, prop)(g, distances(g))
    replay = _MaxSetSearch(certified, DEFAULT_NODE_BUDGET, float("inf"))
    assert replay.exact and r.exact
    assert replay.witness == r.witness and replay.nodes == r.nodes_explored


def test_tmv_root_holds_only_vertices_that_stand_alone():
    # No vertex of balloon(2) is a total mutual-visibility set by itself, so
    # the search's root has no candidate and it branches on none.
    r = max_set(SetProperty.TMV, _family("balloon:2"))
    assert r.exact and r.value == 0 and r.nodes_explored == 0


def test_budget_exhaustion_reports_lower_bound():
    g = shadow(_family("cycle:9")).graph
    r = max_set(SetProperty.MV, g, budget=10)
    assert not r.exact
    full = max_set(SetProperty.MV, g)
    assert full.exact
    assert r.value <= full.value
    assert check_property(SetProperty.MV, g, distances(g), r.witness)
    # One node short of its own count the search runs out, and the report
    # counts only the nodes it ran.
    g = shadow(_family("cycle:7")).graph
    full = max_set(SetProperty.MV, g)
    assert full.exact and full.value == 7
    budget = full.nodes_explored - 1
    r = max_set(SetProperty.MV, g, budget=budget)
    assert r.exact is False
    assert r.nodes_explored == budget
    assert r.value <= full.value
    assert check_property(SetProperty.MV, g, distances(g), r.witness)
    assert r.witness.bit_count() == r.value
    r = max_set(SetProperty.MV, g, budget=full.nodes_explored)
    assert r.exact and r.witness == full.witness
    # The seed is the greedy set in reverse order, the twin set here, so a
    # search cut at its second node still reports the value.
    g = shadow(_family("cycle:9")).graph
    r = max_set(SetProperty.MV, g, budget=1)
    assert not r.exact and r.value == 9
    assert check_property(SetProperty.MV, g, distances(g), r.witness)


def test_a_seed_of_the_whole_root_ends_the_search():
    # The reverse greedy seed takes every root candidate, and only the whole
    # root is a set of its size, so not one node is branched on.
    r = max_set(SetProperty.TMV, shadow(_family("tree:14:seed=3")).graph)
    assert r.exact and r.value == 19 and r.nodes_explored == 0


def test_certification_survives_optimize_flag():
    # `python -O` strips assert statements; the witness check must still run.
    script = """
if __debug__:
    raise SystemExit("not running under -O")
import shadowpos.solvers as solvers
from shadowpos.families import generate, parse_family_spec
from shadowpos.visibility import SetProperty
solvers.check_property = lambda *args: False
try:
    solvers.max_set(SetProperty.GP, generate(parse_family_spec("cycle:5")))
except RuntimeError:
    raise SystemExit(0)
raise SystemExit("max_set returned an uncertified witness")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(shadowpos.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_heuristic_is_valid_deterministic_and_bounded():
    rng = random.Random(8)
    for _ in range(5):
        g = random_connected_graph(rng.randint(5, 8), rng)
        for code in ALL_CODES:
            prop = property_for_code(code)
            exact = max_set(prop, g).value
            # A run that finishes before its deadline repeats.
            h1 = max_set_heuristic(prop, g, time_budget=30.0)
            h2 = max_set_heuristic(prop, g, time_budget=30.0)
            assert h1.value == h2.value and h1.witness == h2.witness, code
            assert h1.nodes_explored == h2.nodes_explored
            assert h1.exact and h1.value == exact
            assert check_property(prop, g, distances(g), h1.witness)


def test_a_finished_heuristic_run_is_the_exact_search():
    # Every connected graph of order 2..6 and its shadow: a heuristic run
    # that finishes is the exact search, with its witness and node count.
    bases = [g for g in enumerate_connected(6) if g.n > 1]
    for g in bases + [shadow(b).graph for b in bases]:
        for code in ALL_CODES:
            prop = property_for_code(code)
            h, r = max_set_heuristic(prop, g, time_budget=60.0), max_set(prop, g)
            assert h.exact and h.value == r.value, (g.edges(), code)
            assert h.witness == r.witness and h.nodes_explored == r.nodes_explored


def _tick_clock(monkeypatch):
    # The solvers' clock reads 0, 1, 2, ...: one tick per read, so a
    # deadline falls between two reads whatever the machine's speed.
    ticks = itertools.count()
    monkeypatch.setattr(solvers, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))


def test_heuristic_deadline_cuts_like_the_node_budget(monkeypatch):
    # The start reads tick 0 and the 40 joins of the seed, the twin set of
    # S(C_40), ticks 1..40.  A deadline at 40.5 lets the seed finish and
    # refuses the search's node 1, as node budget 0 does.  Each node reads
    # the clock, so a deadline at 43.5 refuses node 4, as node budget 3
    # does; neither report counts the node it refused.
    g = shadow(_family("cycle:40")).graph
    for budget in (0, 3):
        _tick_clock(monkeypatch)
        h = max_set_heuristic(SetProperty.MV, g, time_budget=40.5 + budget)
        r = max_set(SetProperty.MV, g, budget=budget)
        assert not h.exact and not r.exact
        assert h.nodes_explored == r.nodes_explored == budget
        assert h.witness == r.witness


def test_heuristic_cut_at_its_first_node_reports_the_seed(monkeypatch):
    # Cut before node 1, so the search never re-finds its seed, the twin set.
    _tick_clock(monkeypatch)
    g = shadow(_family("cycle:40")).graph
    h = max_set_heuristic(SetProperty.MV, g, time_budget=40.5)
    assert not h.exact and h.nodes_explored == 0
    assert h.value == 40 and h.witness == mask_of(range(40, 80))


def test_heuristic_cut_in_its_seed_reports_a_certified_set():
    # At a deadline already past, the greedy seed stops after its first join
    # and the search never starts.
    g = shadow(_family("cycle:40")).graph
    h = max_set_heuristic(SetProperty.MV, g, time_budget=0)
    assert not h.exact and h.nodes_explored == 0
    assert h.value == h.witness.bit_count() >= 1
    assert check_property(SetProperty.MV, g, distances(g), h.witness)


def test_cover_budget_exhaustion_reports_upper_bound():
    g = _family("tree:40:seed=2")
    r = isometric_path_cover(g, budget=2000)
    assert not r.exact and r.nodes_explored == 2000
    assert r.value == len(r.witness) >= 8  # its 15 leaves need 8 paths
    # At budget 0 each cover refuses the first step of its enumeration, and
    # chi its first colour, and counts none.  ip takes every single vertex as a part and
    # chi keeps its seed, one class per vertex; ic has no cycle yet, so it
    # has no witness, and it never claims that C_5 has no cycle cover.
    c5 = _family("cycle:5")
    for cover in (isometric_path_cover, chromatic_number):
        r = cover(c5, budget=0)
        assert not r.exact and r.nodes_explored == 0
        assert r.value == 5 and r.witness == [(v,) for v in range(5)]
    r = isometric_cycle_cover(c5, budget=0)
    assert not r.exact and r.nodes_explored == 0
    assert r.coverable and r.witness is None


def test_isometric_path_cover_cut_in_its_walk():
    # The star K_{1,4} has six maximal geodesics, leaf-centre-leaf.  Three
    # steps walk the first, 1-0-2, and the fourth runs out of budget; every
    # single vertex joins it, so the cover is the upper bound 3, not the
    # exact 2.
    g = _family("star:4")
    r = isometric_path_cover(g, budget=3)
    assert r.exact is False and r.coverable and r.nodes_explored == 3
    assert r.value == 3 and r.witness == [(1, 0, 2), (3,), (4,)]
    assert sorted(v for path in r.witness for v in path) == list(range(g.n))
    assert isometric_path_cover(g).value == 2


@pytest.mark.parametrize("cover, budget, witness", [
    (isometric_path_cover, 3, [(0, 1, 2), (3,), (4,)]),
    (isometric_cycle_cover, 9, [(0, 1, 2, 3, 4)]),
])
def test_covers_cut_in_their_enumeration(monkeypatch, cover, budget, witness):
    # A cover cut in its enumeration takes the greedy cover of the parts it
    # found, with every single vertex for ip; the 5-cycle, found at
    # step 9 of the cycle walk, covers C_5 alone.  The cover start reads
    # clock tick 0 and each step one more, so a deadline half a tick past
    # the budget cuts at the same step.
    c5 = _family("cycle:5")
    r = cover(c5, budget=budget)
    assert not r.exact and r.coverable and r.nodes_explored == budget
    assert r.witness == witness and r.value == len(witness) >= cover(c5).value
    _tick_clock(monkeypatch)
    h = cover(c5, time_budget=budget + 0.5)
    assert not h.exact and h.nodes_explored == budget and h.witness == witness


# The one connected graph of order <= 7 that greedy DSATUR, the first descent
# of the colouring search, colours with 4 colours; its chromatic number is 3.
_GREEDY_MISS = build_graph(7, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 5), (2, 6),
                               (3, 5), (3, 6), (5, 6)])


@pytest.mark.parametrize("budget, witness", [
    (3, [(v,) for v in range(7)]),
    (7, [(0, 3), (1, 2), (4, 5), (6,)]),
])
def test_chromatic_number_cut_in_its_search(monkeypatch, budget, witness):
    # A node is one colour given to one vertex.  Cut before its first full
    # colouring, the search keeps its seed, one class per vertex; cut after
    # the greedy descent's 7 nodes, it keeps that 4-colouring.  The start
    # reads clock tick 0 and each node one more, so a deadline half a tick
    # past the budget cuts at the same node.
    r = chromatic_number(_GREEDY_MISS, budget=budget)
    assert not r.exact and r.nodes_explored == budget
    assert r.witness == witness and r.value == len(witness) > chromatic_number(_GREEDY_MISS).value
    _tick_clock(monkeypatch)
    h = chromatic_number(_GREEDY_MISS, time_budget=budget + 0.5)
    assert not h.exact and h.nodes_explored == budget and h.witness == witness


def test_isometric_path_cover_values():
    assert isometric_path_cover(_family("path:5")).value == 1
    assert isometric_path_cover(_family("cycle:4")).value == 2
    assert isometric_path_cover(_family("complete:4")).value == 2
    assert isometric_path_cover(_family("star:4")).value == 2
    assert isometric_path_cover(shadow(_family("path:2")).graph).value == 1
    assert isometric_path_cover(shadow(_family("star:3")).graph).value == 3
    assert isometric_path_cover(build_graph(8, [(3, v) for v in (0, 1, 2, 4, 5, 6, 7)])).value == 4


def test_isometric_path_cover_is_a_cover_of_geodesics():
    rng = random.Random(23)
    graphs = [g for g in enumerate_connected(6) if g.n > 1]
    graphs += [random_connected_graph(rng.randint(3, 7), rng) for _ in range(10)]
    # Leaves 0, 1, 2 lie on no common geodesic, so no path covers all three.
    graphs.append(build_graph(8, [(3, v) for v in (0, 1, 2, 4, 5, 6, 7)]))
    for g in graphs:
        r = isometric_path_cover(g)
        t = distances(g)
        covered = set()
        for path in r.witness:
            assert t.d[path[0]][path[-1]] == len(path) - 1
            for a, b in zip(path, path[1:]):
                assert g.has_edge(a, b)
            covered.update(path)
        assert covered == set(range(g.n))
        assert len(r.witness) == r.value


def _no_tick():
    pass


def _antichain(masks):
    return not any(a != b and a & b == a for a in masks for b in masks)


def test_covers_take_only_maximal_parts():
    # The path cover walks only the maximal geodesics; isometric cycles never
    # nest.  So no cover needs a filter.
    graphs = list(enumerate_connected(6))
    graphs += [shadow(g).graph for g in enumerate_connected(5) if g.n >= 2]
    for g in graphs:
        t = distances(g)
        geodesic_sets = {mask_of(p) for u in range(g.n) for v in range(g.n)
                         for p in all_geodesics(g, t.d, u, v)}
        maximal = {m for m in geodesic_sets if not any(m != k and m & k == m for k in geodesic_sets)}
        paths = dict(solvers._enumerate_geodesics(g, t, _no_tick))
        assert set(paths) == maximal, g.edges()
        for mask, seq in paths.items():
            assert mask_of(seq) == mask and seq in all_geodesics(g, t.d, seq[0], seq[-1])
        cycles = dict(solvers._enumerate_isometric_cycles(g, t, _no_tick))
        assert _antichain(list(cycles)), g.edges()
    k1 = build_graph(1, [])
    assert list(solvers._enumerate_geodesics(k1, distances(k1), _no_tick)) == [(1, (0,))]
    big = shadow(_family("tree:40:seed=1")).graph
    assert len(list(solvers._enumerate_geodesics(big, distances(big), _no_tick))) == 22_821


def test_isometric_cycle_cover_values():
    assert isometric_cycle_cover(_family("cycle:5")).value == 1
    assert isometric_cycle_cover(_family("complete:4")).value == 2
    r = isometric_cycle_cover(_family("path:3"))
    assert not r.coverable
    assert not isometric_cycle_cover(_family("tree:8:seed=3")).coverable


def test_isometric_cycle_cover_of_dense_graphs_at_the_cap():
    # Paths with a chord are never grown, so these finish at once; walking
    # every simple path of K_14 would take hours.
    assert isometric_cycle_cover(_family("complete:14")).value == 5
    assert isometric_cycle_cover(_family("kpartite:4,5,5")).value == 4


def test_isometric_cycle_cover_certificate():
    g = _family("cycle:6")
    r = isometric_cycle_cover(g)
    assert r.coverable and r.value == 1
    t = distances(g)
    cyc = r.witness[0]
    k = len(cyc)
    for i, u in enumerate(cyc):
        for j, v in enumerate(cyc):
            hop = min(abs(i - j), k - abs(i - j))
            assert t.d[u][v] == hop


# Run in-process and under `python -O`: each broken witness must raise.
_BROKEN_COVERS = """
from shadowpos.graph_core import build_graph, distances
from shadowpos.solvers import InvariantReport, _certify_colouring, _certify_cover, _min_cover

c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
p2 = build_graph(2, [(0, 1)])
c6_chord = build_graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
t4, t6 = distances(c4), distances(c6_chord)
# Near misses of the broken witnesses below, which must pass.
_certify_cover(InvariantReport("ip", 2, [(0, 1), (2, 3)]), c4, t4)
_certify_cover(InvariantReport("ic", 1, [(0, 1, 2, 3)]), c4, t4)
_certify_colouring(InvariantReport("chi", 2, [(0, 2), (1, 3)]), c4)
broken = {
    "non-geodesic path": lambda: _certify_cover(
        InvariantReport("ip", 1, [(0, 1, 2, 3)]), c4, t4),
    "one vertex filed under mask 3": lambda: _min_cover(
        "ip", p2, distances(p2), lambda g, t, tick: [(0b11, (0,))], 0.0, 10, float("inf")),
    "non-isometric cycle": lambda: _certify_cover(
        InvariantReport("ic", 1, [(0, 1, 2, 3, 4, 5)]), c6_chord, t6),
    "class holding an edge": lambda: _certify_colouring(
        InvariantReport("chi", 2, [(0, 1), (2, 3)]), c4),
    "overlapping classes": lambda: _certify_colouring(
        InvariantReport("chi", 3, [(0, 2), (1, 3), (2,)]), c4),
    "empty class": lambda: _certify_colouring(
        InvariantReport("chi", 3, [(0, 2), (1, 3), ()]), c4),
    "colour count not the value": lambda: _certify_colouring(
        InvariantReport("chi", 3, [(0, 2), (1, 3)]), c4),
    "cover missing a vertex": lambda: _certify_cover(
        InvariantReport("ip", 2, [(0, 1), (1, 2)]), c4, t4),
    "value not the witness count": lambda: _certify_cover(
        InvariantReport("ip", 1, [(0, 1), (2, 3)]), c4, t4),
}
accepted = []
for name, certify in broken.items():
    try:
        certify()
    except RuntimeError:
        continue
    accepted.append(name)
"""


def test_cover_certification_rejects_broken_witnesses():
    ns = {}
    exec(_BROKEN_COVERS, ns)
    assert ns["accepted"] == []
    script = ("if __debug__:\n    raise SystemExit('not running under -O')\n" + _BROKEN_COVERS
              + "raise SystemExit(f'accepted {accepted}' if accepted else 0)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(shadowpos.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_chromatic_number_values():
    assert chromatic_number(_family("complete:4")).value == 4
    assert chromatic_number(_family("cycle:5")).value == 3
    assert chromatic_number(_family("cycle:6")).value == 2
    assert chromatic_number(_family("bipartite:3,4")).value == 2
    assert chromatic_number(star_shadow(_family("cycle:5"))).value == 4


def _random_graph(n, rng):
    # Any density, so many of these graphs are disconnected.
    p = rng.random()
    return build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                           if rng.random() < p])


def _assert_proper_coloring(g, classes):
    color = {}
    for c, cls in enumerate(classes):
        assert cls, classes
        for v in cls:
            assert v not in color, classes
            color[v] = c
    assert sorted(color) == list(range(g.n))
    for u, v in g.edges():
        assert color[u] != color[v]


def test_chromatic_number_matches_partition_oracle():
    rng = random.Random(53)
    graphs = list(enumerate_connected(7))
    graphs += [_random_graph(rng.randint(0, 10), rng) for _ in range(60)]
    for g in graphs:
        r = chromatic_number(g)
        assert r.exact
        assert r.value == naive_chromatic_number(g), (g.n, g.edges())
        assert len(r.witness) == r.value
        _assert_proper_coloring(g, r.witness)


def test_chromatic_number_of_a_shadow_is_that_of_its_graph():
    # G is an induced subgraph of S(G), and each shadow vertex v' can take
    # v's colour, since its neighbours are v's.  So chi(S(G)) = chi(G), and
    # the oracle reaches shadows twice its order.
    for g in enumerate_connected(6):
        r = chromatic_number(shadow(g).graph)
        assert r.exact and r.value == naive_chromatic_number(g), g.edges()


def test_chromatic_number_of_a_star_shadow_is_one_more():
    # star_shadow(G) is the Mycielskian of G, so by Mycielski's theorem its
    # chromatic number is chi(G) + 1; these are triangle-free whenever G is.
    graphs = list(enumerate_connected(6))
    assert len(graphs) == 143
    for g in graphs:
        r = chromatic_number(star_shadow(g))
        assert r.exact and r.value == naive_chromatic_number(g) + 1, g.edges()


@pytest.mark.parametrize("spec, value", [
    ("tree:40:seed=2", 2), ("S(cycle:41)", 3), ("S(tree:80:seed=2)", 2), ("S(balloon:3)", 3),
])
def test_chromatic_number_colours_large_graphs_directly(spec, value):
    # The colouring search never lists independent sets, of which
    # tree:40:seed=2 alone has 24,624; each of these takes one node per vertex.
    base = spec.removeprefix("S(").removesuffix(")")
    g = _family(base) if base == spec else shadow(_family(base)).graph
    r = chromatic_number(g, budget=1_000)
    assert r.exact and r.value == value and r.nodes_explored == g.n


def test_chromatic_witness_is_a_proper_coloring():
    g = star_shadow(_family("cycle:5"))
    _assert_proper_coloring(g, chromatic_number(g).witness)


def test_invariant_report_serialization():
    r = max_set(SetProperty.GP, _family("cycle:5"))
    d = r.to_dict()
    assert d["invariant"] == "gp" and d["exact"] is True
    assert d["witness"] == mask_to_sorted_list(r.witness)


def _relabel(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _invariants(g):
    """The nine invariants: six exact set maxima, then ip, ic and chi."""
    sets = {code: max_set(property_for_code(code), g) for code in ALL_CODES}
    ic = isometric_cycle_cover(g)
    return sets, (isometric_path_cover(g).value, ic.coverable, ic.value,
                  chromatic_number(g).value)


def test_relabelling_leaves_invariants_unchanged():
    # Metamorphic check: a random vertex permutation of G, or of S(G), is
    # the same graph, so every value must match and every witness must map
    # through the permutation onto a witness of the relabelled graph.
    rng = random.Random(2024)
    for _ in range(40):
        base = random_connected_graph(rng.randint(2, 6), rng)
        for g in (base, shadow(base).graph):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = _relabel(g, perm)
            sets_g, rest_g = _invariants(g)
            sets_h, rest_h = _invariants(h)
            assert rest_g == rest_h, g.edges()
            t = distances(h)
            for code in ALL_CODES:
                assert sets_g[code].value == sets_h[code].value, (code, g.edges())
                mapped = mask_of(perm[v] for v in iter_bits(sets_g[code].witness))
                assert mapped.bit_count() == sets_g[code].value
                assert check_property(property_for_code(code), h, t, mapped), (code, g.edges())
