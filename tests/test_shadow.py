import random

import pytest

from shadowpos.families import canonical_key, generate, parse_family_spec
from shadowpos.formats import graph_to_dot
from shadowpos.graph_core import GraphError, build_graph, structural_queries
from shadowpos.shadow import (
    gp_partition_violations,
    pi_partition,
    shadow,
    shadow_distance_violations,
    star_shadow,
)
from shadowpos.solvers import max_set
from shadowpos.visibility import SetProperty

from conftest import random_connected_graph


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


def test_distance_clauses_compare_against_the_base_graph():
    # Drop the base edge 0-1 from S(C_5) but keep C_5 as the base: the lemma's
    # expectations come from C_5 itself, not from the shadow's base rows.
    bad = _toggled(shadow(generate(parse_family_spec("cycle:5"))), 0, 1)
    assert shadow_distance_violations(bad) == [
        "adjacent base pair: d(0,1) = 3, expected 1",
        "non-adjacent base/twin pair: d(0,7) = 3, expected 2",
        "non-adjacent base/twin pair: d(1,9) = 3, expected 2"]


def test_pi_partition_arithmetic():
    rng = random.Random(4)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 7), rng)
        sg = shadow(g)
        s = rng.getrandbits(2 * g.n)
        p = pi_partition(sg, s)
        full = sg.base_side_mask()
        assert p.v1 | p.v2 | p.v3 | p.v4 == full
        assert p.n1 + p.v2.bit_count() + p.v3.bit_count() + p.n4 == g.n
        assert s.bit_count() == g.n + p.n1 - p.n4


def test_gp_partition_clauses_on_solver_sets():
    for text in ["path:4", "cycle:5", "complete:4", "star:3", "bipartite:2,3"]:
        sg = shadow(generate(parse_family_spec(text)))
        r = max_set(SetProperty.GP, sg.graph)
        assert gp_partition_violations(sg, r.witness) == []


def test_gp_partition_clauses_flag_bad_sets():
    sg = shadow(generate(parse_family_spec("path:3")))
    # {v, its neighbor, both twins}: v1 = {0, 1} is not independent.
    bad = 1 << 0 | 1 << 1 | 1 << 3 | 1 << 4
    assert any("independent" in msg for msg in gp_partition_violations(sg, bad))
