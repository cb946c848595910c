import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from shadowpos import graph_core, solvers
from shadowpos.families import enumerate_connected, generate, parse_family_spec
from shadowpos.graph_core import (
    INF,
    GraphError,
    build_graph,
    distances,
    geodesic_exists_avoiding,
    is_connected,
    iter_bits,
    mask_of,
    mask_to_sorted_list,
    structural_queries,
)
from shadowpos.shadow import shadow, shadow_distance_violations
from shadowpos.verify import fuzz
from shadowpos.visibility import SetProperty

from conftest import random_connected_graph
from oracles import all_geodesics, bfs_distances, interval_vertices, matrix_power_distances


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        build_graph(-1, [])


def test_build_graph_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.edges() == [(0, 1)]


def test_basic_accessors():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.degree(1) == 2
    assert g.adj[1] == 0b101
    assert g.has_edge(2, 3) and not g.has_edge(0, 3)
    assert g.vertex_mask() == 0b1111


@given(st.lists(st.integers(min_value=0, max_value=60), unique=True))
def test_mask_round_trip(vertices):
    assert mask_to_sorted_list(mask_of(vertices)) == sorted(vertices)
    assert list(iter_bits(mask_of(vertices))) == sorted(vertices)


def test_distances_match_matrix_power_oracle():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng)
        t = distances(g)
        ref = matrix_power_distances(g)
        for u in range(n):
            for v in range(n):
                assert t.d[u][v] == ref[u][v]


def _large_metric_cases():
    """The seed-0 lemma-large graphs (order 70) and their shadows, S(C_40),
    S(tree:80:seed=2) and S(K_30), then the empty graph, K_1, a graph with
    isolated vertices and one with three components."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    import workloads
    graphs = [h for _, g in workloads.lemma_inputs(0) for h in (g, shadow(g).graph)]
    graphs += [shadow(generate(parse_family_spec(spec))).graph
               for spec in ("cycle:40", "tree:80:seed=2", "complete:30")]
    graphs += [build_graph(0, []), build_graph(1, []), build_graph(6, [(1, 4), (4, 2)]),
               build_graph(9, [(0, 8), (8, 3), (1, 5), (5, 6), (6, 1), (2, 7)])]
    return graphs


def test_distances_match_queue_bfs_oracle():
    cases = _large_metric_cases()
    assert [g.n for g in cases[:6]] == [70, 140] * 3
    for g in cases:
        t, ref = distances(g), bfs_distances(g)
        assert [list(row) for row in t.d] == ref
        for s, layers in enumerate(t.layers):
            ecc = max(k for k in ref[s] if k != INF)
            assert len(layers) == ecc + 1
            for k, layer in enumerate(layers):
                assert layer == mask_of(v for v in range(g.n) if ref[s][v] == k)


def test_distances_on_disconnected_graph():
    g = build_graph(4, [(0, 1), (2, 3)])
    t = distances(g)
    for u in (0, 1):
        for v in (2, 3):
            assert t.d[u][v] == t.d[v][u] == INF
            assert t.between[u][v] == t.between[v][u] == 0
            assert t.line[u][v] == t.line[v][u] == 0
    assert not is_connected(g)
    with pytest.raises(GraphError):
        geodesic_exists_avoiding(t, g, 0, 2, 0)


def _random_graph(n, rng):
    """Each pair an edge with probability 1/3; often disconnected."""
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < 1 / 3])


def _metric_cases():
    """Connected graphs, disconnected graphs and shadows, up to order 12."""
    rng = random.Random(11)
    graphs = [random_connected_graph(rng.randint(2, 8), rng) for _ in range(25)]
    graphs += [_random_graph(rng.randint(2, 9), rng) for _ in range(15)]
    graphs += [build_graph(5, [(0, 1), (1, 2)]), build_graph(3, [])]
    graphs += [shadow(random_connected_graph(rng.randint(2, 6), rng)).graph
               for _ in range(8)]
    return graphs


def test_between_masks_match_path_enumeration():
    cases = _metric_cases()
    assert any(not is_connected(g) for g in cases)
    for g in cases:
        n = g.n
        t = distances(g)
        ref = matrix_power_distances(g)
        for u in range(n):
            for v in range(n):
                assert t.d[u][v] == ref[u][v]
                if u == v:
                    assert t.between[u][v] == 0
                    continue
                expected = interval_vertices(g, ref, u, v) - {u, v}
                assert set(mask_to_sorted_list(t.between[u][v])) == expected, (g.adj, u, v)


def test_geodesic_layers_partition_the_interval():
    for g in _metric_cases():
        n = g.n
        t = distances(g)
        ref = matrix_power_distances(g)
        for s, layers in enumerate(t.layers):
            # layers[s] partitions the component of s by hop from s.
            union = 0
            for k, layer in enumerate(layers):
                assert layer and not layer & union
                assert all(ref[s][w] == k for w in iter_bits(layer))
                union |= layer
            assert union == mask_of(w for w in range(n) if ref[s][w] != INF)
        for u in range(n):
            for v in range(n):
                d = t.d[u][v]
                if u == v or d == INF:
                    continue
                # For 0 < k < d, layers[u][k] & layers[v][d-k] partition between[u][v].
                union = 0
                for k in range(1, d):
                    part = t.layers[u][k] & t.layers[v][d - k]
                    assert part and not part & union
                    union |= part
                assert union == t.between[u][v]


def test_line_masks_match_path_enumeration():
    for base in enumerate_connected(5):
        for g in (base, shadow(base).graph):
            t = distances(g)
            ref = matrix_power_distances(g)
            on_a_line = [[set() for _ in range(g.n)] for _ in range(g.n)]
            # Every sub-path of a geodesic is a geodesic, so the geodesics
            # between all pairs hold every collinear triple.
            for u, v in itertools.combinations(range(g.n), 2):
                for p in all_geodesics(g, ref, u, v):
                    for a, b in itertools.combinations(p, 2):
                        on_a_line[a][b] |= set(p) - {a, b}
                        on_a_line[b][a] |= set(p) - {a, b}
            for a in range(g.n):
                for b in range(g.n):
                    line = t.line[a][b]
                    assert set(mask_to_sorted_list(line)) == on_a_line[a][b], (g.adj, a, b)
                    assert line == t.line[b][a]
                    assert line & t.between[a][b] == t.between[a][b]


def test_between_is_built_on_first_read_and_kept():
    t = distances(generate(parse_family_spec("cycle:7")))
    assert "between" not in vars(t)
    first = t.between
    assert "between" in vars(t)
    assert t.between is first
    assert first[0][3] == mask_of([1, 2])


@pytest.fixture
def built_tables(monkeypatch):
    """The graphs of the tables built from now on, with an empty table cache.

    Every package module that holds :func:`distances` gets the recorder, so
    a caller that bypasses the cache is counted too.
    """
    built = []
    build = graph_core.distances

    def recording_distances(g):
        built.append(g)
        return build(g)

    graph_core.shared_distances.cache_clear()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "shadowpos" and getattr(module, "distances", None) is build:
            monkeypatch.setattr(module, "distances", recording_distances)
    yield built
    graph_core.shared_distances.cache_clear()


def test_distance_only_callers_build_no_intervals(built_tables):
    g = generate(parse_family_spec("cycle:6"))
    assert shadow_distance_violations(shadow(g)) == []
    assert solvers.isometric_cycle_cover(g).value == 1
    # The shadow's base graph equals g, so the cover reads the table it built.
    assert built_tables == [g, shadow(g).graph]
    tables = [graph_core.shared_distances(h) for h in built_tables]
    assert not any("between" in vars(t) for t in tables)
    solvers.max_set(SetProperty.GP, g)
    assert len(built_tables) == 2 and "between" in vars(tables[0])


def test_lemma_and_structure_leave_the_distance_rows_unfilled(built_tables):
    # C_70 has no triangle, K_{3,3,3} puts every edge in one.
    for spec, diameter in (("cycle:70", 35), ("kpartite:3,3,3", 2)):
        g = generate(parse_family_spec(spec))
        assert shadow_distance_violations(shadow(g)) == []
        s = structural_queries(g)
        assert s.connected and s.diameter == diameter
        assert built_tables[-2:] == [g, shadow(g).graph]
        tables = [graph_core.shared_distances(h) for h in built_tables[-2:]]
        assert not any("d" in vars(t) for t in tables), spec
        assert [list(row) for row in tables[0].d] == bfs_distances(g)
    # Rows with INF entries, read off the layers on first read as well.
    for h in (build_graph(5, [(0, 1), (1, 2)]), build_graph(3, []), build_graph(0, [])):
        t = distances(h)
        assert "d" not in vars(t) and t.connected == (h.n == 0)
        assert [list(row) for row in t.d] == matrix_power_distances(h)


def test_fuzz_builds_one_table_per_graph(built_tables):
    list(fuzz(5))
    solved = [h for g in enumerate_connected(5) if g.n >= 2 for h in (g, shadow(g).graph)]
    assert len(built_tables) == len(set(built_tables)) == len(set(solved))
    assert set(built_tables) == set(solved)


def test_gp_and_igp_share_one_collinearity_table(built_tables):
    g = shadow(generate(parse_family_spec("tree:9:seed=3"))).graph
    solvers.max_set(SetProperty.GP, g)
    line = vars(graph_core.shared_distances(g))["line"]
    solvers.max_set(SetProperty.IGP, g)
    assert built_tables == [g]
    assert vars(graph_core.shared_distances(g))["line"] is line


def test_close_endpoints_always_see_each_other():
    # d(u,v) <= 1 leaves no internal vertex, whatever ``forbidden`` holds.
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    t = distances(g)
    for forbidden in range(1 << g.n):
        for u in range(g.n):
            assert geodesic_exists_avoiding(t, g, u, u, forbidden)
            for v in iter_bits(g.adj[u]):
                assert geodesic_exists_avoiding(t, g, u, v, forbidden)


def test_geodesic_avoidance_matches_path_enumeration():
    rng = random.Random(19)
    for trial in range(20):
        n = rng.randint(3, 7)
        g = random_connected_graph(n, rng)
        t = distances(g)
        ref = matrix_power_distances(g)
        for _ in range(30):
            forbidden = rng.getrandbits(n)
            u, v = rng.sample(range(n), 2)
            fset = set(mask_to_sorted_list(forbidden)) - {u, v}
            expected = any(not (set(p[1:-1]) & fset)
                           for p in all_geodesics(g, ref, u, v))
            assert geodesic_exists_avoiding(t, g, u, v, forbidden) == expected


def test_structural_summary_spot_checks():
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    s = structural_queries(star)
    assert s.connected and s.diameter == 2
    assert s.leaf_count == 4 and s.min_degree == 1 and s.max_degree == 4
    assert s.has_universal_vertex and s.is_triangle_free and not s.is_regular

    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    s = structural_queries(c5)
    assert s.is_regular and s.is_triangle_free and s.diameter == 2
    assert s.leaf_count == 0 and not s.has_universal_vertex

    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    s = structural_queries(k4)
    assert not s.is_triangle_free and s.is_regular and s.diameter == 1


def test_structural_summary_of_disconnected_graph():
    s = structural_queries(build_graph(4, [(0, 1), (2, 3)]))
    assert not s.connected and s.diameter == INF
    assert s.leaf_count == 4 and s.is_regular


def test_structural_diameter_is_largest_distance():
    for g in enumerate_connected(6):
        s = structural_queries(g)
        assert s.connected
        assert s.diameter == max(max(row) for row in distances(g).d), g.edges()
