import random

import pytest

from shadowpos.families import canonical_key, generate, parse_family_spec
from shadowpos.formats import graph_to_dot
from shadowpos.graph_core import (
    GraphError,
    build_graph,
    is_connected,
    mask_of,
    shared_distances,
    structural_queries,
)
from shadowpos.shadow import (
    gp_partition_violations,
    shadow,
    shadow_distance_violations,
    star_shadow,
)
from shadowpos.solvers import max_set
from shadowpos.visibility import SetProperty

from conftest import random_connected_graph
from oracles import matrix_power_distances


def test_shadow_of_single_edge_is_p4():
    sg = shadow(generate(parse_family_spec("path:2")))
    p4 = generate(parse_family_spec("path:4"))
    assert sg.graph.n == 4 and sg.graph.m == 3
    assert canonical_key(sg.graph) == canonical_key(p4)


def test_shadow_edge_count_and_independent_shadow_side():
    rng = random.Random(2)
    for _ in range(15):
        g = random_connected_graph(rng.randint(2, 8), rng)
        sg = shadow(g)
        dot = graph_to_dot(sg.graph, base_n=g.n)
        assert sg.graph.m == 3 * g.m
        for u in range(g.n, 2 * g.n):
            assert sg.graph.adj[u] & sg.shadow_side_mask() == 0
        for v in range(g.n):
            assert not sg.graph.has_edge(v, v + g.n)
            assert f'{v + g.n} [label="{v}\'"]' in dot
            # Twin neighborhood equals the base neighborhood.
            assert sg.graph.adj[v + g.n] == sg.graph.adj[v] & sg.base_side_mask()


def test_shadow_requires_connected():
    with pytest.raises(GraphError):
        shadow(build_graph(4, [(0, 1), (2, 3)]))


def test_star_shadow_shape():
    g = generate(parse_family_spec("cycle:5"))
    h = star_shadow(g)
    assert h.n == 11 and '10 [label="s*"]' in graph_to_dot(h, base_n=g.n)
    assert h.degree(10) == 5
    s = structural_queries(h)
    assert s.connected and s.is_triangle_free


def test_iterated_star_shadow_stays_triangle_free():
    g = generate(parse_family_spec("cycle:5"))
    h = star_shadow(star_shadow(g))
    assert h.n == 23
    assert structural_queries(h).is_triangle_free


def test_distance_clauses_hold_on_random_graphs():
    rng = random.Random(9)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 8), rng)
        assert shadow_distance_violations(shadow(g)) == []


def _toggled(sg, u, v):
    # The same base graph under a doubled graph with the edge uv added or removed.
    n = sg.graph.n
    edges = {(a, b) for a in range(n) for b in range(a + 1, n) if sg.graph.has_edge(a, b)}
    return type(sg)(build_graph(n, sorted(edges ^ {(u, v)})), sg.base)


def test_distance_clauses_catch_a_corrupted_shadow():
    # Add an illegal twin-twin edge; the clause checker must notice.
    bad = _toggled(shadow(generate(parse_family_spec("path:3"))), 3, 5)
    assert shadow_distance_violations(bad) == [
        "non-adjacent twin pair: d(3,5) = 1, expected 2"]


def test_distance_clauses_catch_a_missing_base_twin_edge():
    # Drop the edge 0-1' (1' is 6).  One message per broken clause, in pair
    # order x < y and, within a pair, d(x,y), d(x,y'), d(y,x'), d(x',y').
    bad = _toggled(shadow(generate(parse_family_spec("cycle:5"))), 0, 6)
    assert shadow_distance_violations(bad) == [
        "adjacent base/twin pair: d(0,6) = 3, expected 1",
        "non-adjacent base/twin pair: d(4,6) = 3, expected 2",
        "non-adjacent twin pair: d(6,9) = 3, expected 2"]


def test_distance_clauses_name_violations_without_filling_a_distance_row():
    # From an empty table cache the violations are named from BFS layers
    # alone: neither the base's nor the shadow's table fills its rows.
    bad = _toggled(shadow(generate(parse_family_spec("cycle:5"))), 0, 6)
    shared_distances.cache_clear()
    assert shadow_distance_violations(bad) == [
        "adjacent base/twin pair: d(0,6) = 3, expected 1",
        "non-adjacent base/twin pair: d(4,6) = 3, expected 2",
        "non-adjacent twin pair: d(6,9) = 3, expected 2"]
    for t in (shared_distances(bad.base), shared_distances(bad.graph)):
        assert "d" not in vars(t)


def test_distance_clauses_compare_against_the_base_graph():
    # Drop the base edge 0-1 from S(C_5) but keep C_5 as the base: the lemma's
    # expectations come from C_5 itself, not from the shadow's base rows.
    bad = _toggled(shadow(generate(parse_family_spec("cycle:5"))), 0, 1)
    assert shadow_distance_violations(bad) == [
        "adjacent base pair: d(0,1) = 3, expected 1",
        "non-adjacent base/twin pair: d(0,7) = 3, expected 2",
        "non-adjacent base/twin pair: d(1,9) = 3, expected 2"]


def _reference_violations(sg):
    # The lemma's messages pair by pair, on matrix-power distances of G and S.
    n, adj = sg.base.n, sg.base.adj
    base, d = matrix_power_distances(sg.base), matrix_power_distances(sg.graph)
    clauses = ("base pair", "base/twin pair", "base/twin pair", "twin pair")
    out = []
    for x in range(n):
        for y in range(x + 1, n):
            if adj[x] >> y & 1:
                kind, want = "adjacent", (1, 1, 1, 2 if adj[x] & adj[y] else 3)
            else:
                kind, want = "non-adjacent", (base[x][y],) * 4
            pairs = ((x, y), (x, y + n), (y, x + n), (x + n, y + n))
            for (u, v), clause, b in zip(pairs, clauses, want):
                if d[u][v] != b:
                    out.append(f"{kind} {clause}: d({u},{v}) = {d[u][v]}, expected {b}")
    return out


def test_distance_clauses_match_a_per_pair_reference_on_corrupted_shadows():
    rng = random.Random(31)
    bases = [random_connected_graph(rng.randint(2, 7), rng) for _ in range(45)]
    bases += [generate(parse_family_spec(spec)) for spec in (
        "path:2", "cycle:9", "path:10", "tree:10:seed=4", "complete:5", "bipartite:2,3")]
    seen = set()
    for trial, g in enumerate(bases):
        sg, n = shadow(g), g.n
        assert shadow_distance_violations(sg) == _reference_violations(sg) == []
        if trial % 3 == 0:  # a few edges anywhere
            pairs = [rng.sample(range(2 * n), 2) for _ in range(rng.randint(1, 3))]
        elif trial % 3 == 1:  # a twin-twin edge, which no shadow has
            pairs = [rng.sample(range(n, 2 * n), 2)]
        else:  # every edge of one vertex, which disconnects S
            v = rng.randrange(2 * n)
            pairs = [(v, w) for w in range(2 * n) if sg.graph.has_edge(v, w)]
        for u, v in pairs:
            sg = _toggled(sg, min(u, v), max(u, v))
        got = shadow_distance_violations(sg)
        assert got == _reference_violations(sg), (g.edges(), pairs)
        assert shadow_distance_violations(sg) == got  # again, on the cached tables
        seen.add("disconnected" if not is_connected(sg.graph) else "connected")
        twin_edge = any(sg.graph.adj[u] >> n for u in range(n, 2 * n))
        seen.add("twin-twin" if twin_edge else "no twin-twin")
        seen.add("flagged" if got else "passed")
    assert seen == {"disconnected", "connected", "twin-twin", "no twin-twin",
                    "flagged", "passed"}


def test_gp_partition_clauses_on_solver_sets():
    for text in ["path:4", "cycle:5", "complete:4", "star:3", "bipartite:2,3"]:
        sg = shadow(generate(parse_family_spec(text)))
        r = max_set(SetProperty.GP, sg.graph)
        assert gp_partition_violations(sg, r.witness) == []


def test_gp_partition_clauses_flag_bad_sets():
    # v1 holds v and v', v2 only v', v3 only v, v4 neither; twin of i is i + n.
    p3 = shadow(generate(parse_family_spec("path:3")))  # twins 3, 4, 5
    cases = [
        # v1 = {0, 1} is not independent.
        ({0, 1, 3, 4}, ["v1 not independent at vertex 0"]),
        # v1 = {0}, v3 = {1}: an edge between them.
        ({0, 1, 3}, ["edge between v1 vertex 0 and v3"]),
        # v3 = {1} sees both of v2 = {0, 2}.
        ({1, 3, 5}, ["vertex 1 of v1|v3 has two neighbors in v2"]),
        # v2 = {1} sees both of v1 = {0, 2}, and v4 is empty.
        ({0, 2, 3, 4, 5}, ["v2 vertex 1 has two neighbors in v1",
                           "v4 empty but v1 nonempty"]),
    ]
    for vertices, want in cases:
        assert gp_partition_violations(p3, mask_of(vertices)) == want, vertices
    p2 = shadow(generate(parse_family_spec("path:2")))  # twins 2, 3
    assert gp_partition_violations(p2, mask_of({0, 2, 3})) == ["v4 empty but v1 nonempty"]
