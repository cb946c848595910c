import hashlib
import itertools
import random
import re

import pytest

from shadowpos import families
from shadowpos.families import (
    ENUMERATION_CAP,
    FamilySpec,
    _canonical_search,
    _refine,
    canonical_key,
    enumerate_connected,
    generate,
    parse_family_spec,
    random_tree,
)
from shadowpos.formats import graph_to_graph6
from shadowpos.graph_core import (
    Graph, GraphError, build_graph, is_connected, iter_bits, structural_queries)

from oracles import naive_automorphism_count, naive_isomorphic


def test_parse_round_trip():
    for text in ["cycle:8", "kpartite:3,2,2", "join:2,2,3", "balloon:2",
                 "tree:9:seed=7", "path:5", "complete:4", "bipartite:3,2",
                 "star:6"]:
        spec = parse_family_spec(text)
        assert spec.text() == text
        assert parse_family_spec(spec.text()) == spec


def test_parse_errors():
    # Each rejection names its rule: one case per arity and least-value rule.
    known = "balloon, bipartite, complete, cycle, join, kpartite, path, star, tree"
    cases = {
        "nope:3": f"unknown family 'nope:3'; expected one of: {known}",
        "cycle": "family 'cycle' is missing size parameters",
        "cycle:": "family 'cycle:' is missing size parameters",
        "join:": "family 'join:' is missing size parameters",
        "cycle:x": "non-integer size parameter in 'cycle:x'",
        "tree:5:sd=1": "bad trailing clause in 'tree:5:sd=1'; expected seed=<int>",
        "tree:5:seed=x": "non-integer seed in 'tree:5:seed=x'",
        "path:3:seed=1": "family path: seed only applies to random trees",
        "cycle:5:seed=2": "family cycle: seed only applies to random trees",
        "star:0": "family star: all size parameters must be >= 1",
        "path:2,3": "family path: expected one size parameter (params=[2, 3])",
        "bipartite:2": "family complete_bipartite: expected two part sizes (params=[2])",
        "kpartite:3": "family complete_multipartite: expected at least two part sizes "
                      "(params=[3])",
        "cycle:2": "family cycle: cycle length must be >= 3 (params=[2])",
        "tree:1": "family random_tree: tree order must be >= 2 (params=[1])",
        "balloon:1": "family balloon: balloon parameter k must be >= 2 (params=[1])",
    }
    for text, message in cases.items():
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            parse_family_spec(text)
    with pytest.raises(GraphError, match=re.escape(
            "family join_k1_cliques: expected at least one clique order (params=[])")):
        FamilySpec("join_k1_cliques", ())


def test_family_shapes():
    c8 = generate(parse_family_spec("cycle:8"))
    assert c8.n == 8 and c8.m == 8 and structural_queries(c8).is_regular

    k5 = generate(parse_family_spec("complete:5"))
    assert k5.n == 5 and k5.m == 10

    k32 = generate(parse_family_spec("bipartite:3,2"))
    assert k32.n == 5 and k32.m == 6 and structural_queries(k32).is_triangle_free

    k322 = generate(parse_family_spec("kpartite:3,2,2"))
    assert k322.n == 7 and k322.m == 16

    star = generate(parse_family_spec("star:6"))
    assert star.n == 7 and star.degree(0) == 6


def test_join_canonical_numbering():
    g = generate(parse_family_spec("join:2,2,3"))
    assert g.n == 8
    assert g.degree(0) == 7  # universal vertex first
    # Cliques are contiguous: {1,2}, {3,4}, {5,6,7}.
    assert g.has_edge(1, 2) and not g.has_edge(2, 3)
    assert g.has_edge(5, 6) and g.has_edge(5, 7) and g.has_edge(6, 7)


def test_balloon_shape():
    g = generate(parse_family_spec("balloon:2"))
    assert g.n == 11 and g.degree(0) == 2
    assert g.has_edge(0, 1) and g.has_edge(0, 6)
    # Each block of five is a cycle.
    for base in (1, 6):
        for i in range(5):
            assert g.has_edge(base + i, base + (i + 1) % 5)


def test_random_tree_is_deterministic_tree():
    for seed in range(20):
        n = 2 + seed % 8
        t1 = random_tree(n, seed)
        t2 = random_tree(n, seed)
        assert t1 == t2
        assert t1.m == n - 1 and is_connected(t1)
    # The seed matters: 20 seeds at n = 6 give more than one tree.
    assert len({random_tree(6, seed) for seed in range(20)}) > 1


def test_random_tree_hits_every_labeled_tree():
    # n=4 has exactly 16 labeled trees; a few hundred seeds should see all.
    seen = set()
    for seed in range(400):
        seen.add(tuple(random_tree(4, seed).edges()))
    assert len(seen) == 16


def test_random_tree_rejects_tiny():
    with pytest.raises(GraphError):
        random_tree(1, 0)


def _relabelled(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_key_is_isomorphism_invariant():
    rng = random.Random(5)
    from conftest import random_connected_graph
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_connected_graph(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(g) == canonical_key(_relabelled(g, perm))


def test_canonical_key_matches_naive_isomorphism():
    # Pairs with equal degree sequences: h is g after random edge switches
    # (uv, xy -> ux, vy), relabelled, so degrees cannot tell them apart.
    rng = random.Random(11)
    verdicts = []
    for _ in range(200):
        n = rng.randint(6, 7)
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2)
                            if rng.random() < 0.5])
        h = g
        switches = rng.randint(0, 3)
        for _ in range(20 * switches):
            edges = h.edges()
            if len(edges) < 2 or not switches:
                break
            (u, v), (x, y) = rng.sample(edges, 2)
            if len({u, v, x, y}) == 4 and not h.has_edge(u, x) and not h.has_edge(v, y):
                h = build_graph(n, [e for e in edges if e not in ((u, v), (x, y))]
                                + [(u, x), (v, y)])
                switches -= 1
        perm = list(range(n))
        rng.shuffle(perm)
        h = _relabelled(h, perm)
        assert sorted(map(g.degree, range(n))) == sorted(map(h.degree, range(n)))
        same = naive_isomorphic(g, h)
        assert (canonical_key(g) == canonical_key(h)) == same
        verdicts.append(same)
    assert 50 <= sum(verdicts) <= 150


def _cayley(n, steps, coords):
    """The graph on ``coords`` (tuples mod n) joining each c to c + s for each step s."""
    index = {c: i for i, c in enumerate(coords)}
    return build_graph(len(coords), [(index[c], index[tuple((a + b) % n for a, b in zip(c, s))])
                                     for c in coords for s in steps])


def test_canonical_key_separates_what_refinement_cannot():
    # Each pair is regular of one degree and order, so the refined partition
    # is one cell for both, and only individualisation tells them apart.
    grid = list(itertools.product(range(4), repeat=2))
    pairs = [
        (_cayley(6, [(2,), (3,)], [(i,) for i in range(6)]),  # the prism K_3 x K_2
         generate(parse_family_spec("bipartite:3,3"))),
        (_cayley(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], list(itertools.product(range(2), repeat=3))),
         _cayley(8, [(1,), (4,)], [(i,) for i in range(8)])),  # Q_3, the Wagner graph
        (_cayley(4, [(1, 0), (0, 1), (1, 1)], grid),  # Shrikhande, the 4 x 4 rook's graph
         build_graph(16, [(4 * a + b, 4 * c + d) for (a, b), (c, d)
                          in itertools.combinations(grid, 2) if a == c or b == d])),
    ]
    for g, h in pairs:
        full = (1 << g.n) - 1
        assert g.n == h.n and g.m == h.m
        assert _refine(g.adj, [full], [full]) == _refine(h.adj, [full], [full]) == [full]
        assert canonical_key(g) != canonical_key(h)
    assert canonical_key(Graph(0, ())) == (0, 0)
    assert canonical_key(Graph(1, (0,))) == (1, 0)


def test_canonical_key_separates_non_isomorphic():
    p4 = generate(parse_family_spec("path:4"))
    star = generate(parse_family_spec("star:3"))
    c4 = generate(parse_family_spec("cycle:4"))
    keys = {canonical_key(p4), canonical_key(star), canonical_key(c4)}
    assert len(keys) == 3


def test_refinement_is_equitable_and_commutes_with_relabelling():
    rng = random.Random(7)
    for g in enumerate_connected(6):
        full = (1 << g.n) - 1
        cells = _refine(g.adj, [full], [full])
        assert all(len({(g.adj[v] & other).bit_count() for v in iter_bits(cell)}) == 1
                   for cell in cells for other in cells)
        perm = list(range(g.n))
        rng.shuffle(perm)
        moved = [sum(1 << perm[v] for v in iter_bits(cell)) for cell in cells]
        assert _refine(_relabelled(g, perm).adj, [full], [full]) == moved


def test_generators_generate_the_automorphism_group():
    for g in enumerate_connected(6):
        n = g.n
        _, generators = _canonical_search(g)
        for perm in generators:
            assert sorted(perm) == list(range(n))
            assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())
        group = {tuple(range(n))}
        todo = list(group)
        while todo:
            p = todo.pop()
            for perm in generators:
                q = tuple(perm[p[v]] for v in range(n))
                if q not in group:
                    group.add(q)
                    todo.append(q)
        assert len(group) == naive_automorphism_count(g), g


def test_dedup_enumeration_counts():
    # Connected graphs up to isomorphism: 1, 1, 2, 6, 21, 112, 853 for
    # n = 1..7 (OEIS A001349), the first of each class met, in the order
    # the enumeration has always yielded them.
    graphs = list(enumerate_connected(7))
    counts = {}
    for g in graphs:
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    keys = [canonical_key(g) for g in graphs]
    assert len(keys) == len(set(keys))
    sequence = "\n".join(graph_to_graph6(g) for g in graphs)
    assert hashlib.sha256(sequence.encode()).hexdigest() == (
        "b189084ab307f9f29b4f1ae39db2570182af02bbe82ef4d08ed035473aa9a883")


def test_enumeration_searches_each_candidate_once(monkeypatch):
    # One canonical search per candidate gives its key and, for a graph
    # kept, the generators its children's orbits come from: 388 candidates
    # (orbit representatives of neighbourhoods) extend the graphs of n <= 5.
    calls = []
    search = families._canonical_search
    monkeypatch.setattr(families, "_canonical_search", lambda g: calls.append(g) or search(g))
    assert len(list(enumerate_connected(6))) == 143
    assert len(calls) == 388
    assert len({(g.n, g.adj) for g in calls}) == 388


def test_enumeration_cap():
    with pytest.raises(GraphError):
        list(enumerate_connected(ENUMERATION_CAP + 1))
    assert list(enumerate_connected(0)) == []


def test_spec_validation():
    with pytest.raises(GraphError):
        FamilySpec("cycle", (2,))
    with pytest.raises(GraphError):
        FamilySpec("path", (3,), seed=1)
    with pytest.raises(GraphError):
        FamilySpec("frob", (3,))
