"""Naive reference implementations used only by the tests.

Everything here is deliberately independent of the package's bitmask and
branch-and-bound machinery: distances come from adjacency-matrix powers or
a queue BFS over adjacency lists, geodesics from explicit path enumeration,
and maximum sets from full subset enumeration.  Slow but obviously correct.
"""

from __future__ import annotations

import itertools
from collections import deque

from shadowpos.graph_core import Graph

INF = float("inf")


def matrix_power_distances(g: Graph) -> list[list[float]]:
    """All-pairs distances via boolean matrix powers of the adjacency matrix."""
    n = g.n
    a = [[1 if g.adj[u] >> v & 1 else 0 for v in range(n)] for u in range(n)]
    d = [[0 if u == v else (1 if a[u][v] else INF) for v in range(n)]
         for u in range(n)]
    reach = [row[:] for row in a]
    for u in range(n):
        reach[u][u] = 1
    for k in range(2, n):
        nxt = [[0] * n for _ in range(n)]
        for u in range(n):
            for w in range(n):
                if reach[u][w]:
                    for v in range(n):
                        if a[w][v]:
                            nxt[u][v] = 1
        changed = False
        for u in range(n):
            for v in range(n):
                if nxt[u][v] and d[u][v] == INF and u != v:
                    d[u][v] = k
                    changed = True
                nxt[u][v] = nxt[u][v] or reach[u][v]
        reach = nxt
        if not changed:
            break
    return d


def bfs_distances(g: Graph) -> list[list[float]]:
    """All-pairs distances by one queue BFS per source over adjacency lists."""
    n = g.n
    nbrs = [[v for v in range(n) if g.has_edge(u, v)] for u in range(n)]
    d = [[INF] * n for _ in range(n)]
    for s in range(n):
        d[s][s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if d[s][v] == INF:
                    d[s][v] = d[s][u] + 1
                    queue.append(v)
    return d


def all_geodesics(g: Graph, d, u: int, v: int) -> list[tuple[int, ...]]:
    """Every shortest u-v path, by DFS descending the distance-to-v gradient."""
    if d[u][v] == INF:
        return []
    out = []

    def rec(path):
        cur = path[-1]
        if cur == v:
            out.append(tuple(path))
            return
        for w in range(g.n):
            if g.adj[cur] >> w & 1 and d[w][v] == d[cur][v] - 1:
                rec(path + [w])

    rec([u])
    return out


def interval_vertices(g: Graph, d, u: int, v: int) -> set[int]:
    return {w for p in all_geodesics(g, d, u, v) for w in p}


def naive_is_independent(g: Graph, s: set[int]) -> bool:
    return all(not (g.adj[u] >> v & 1) for u in s for v in s if u < v)


def naive_is_gp(g: Graph, d, s: set[int]) -> bool:
    """No geodesic between two members carries a third member internally."""
    for u, v in itertools.combinations(sorted(s), 2):
        for p in all_geodesics(g, d, u, v):
            if set(p[1:-1]) & s:
                return False
    return True


def naive_pair_visible(g: Graph, d, u: int, v: int, s: set[int]) -> bool:
    return any(not (set(p[1:-1]) & s) for p in all_geodesics(g, d, u, v))


def naive_is_mv(g: Graph, d, s: set[int]) -> bool:
    return all(naive_pair_visible(g, d, u, v, s)
               for u, v in itertools.combinations(sorted(s), 2))


def naive_is_tmv(g: Graph, d, s: set[int]) -> bool:
    return all(naive_pair_visible(g, d, u, v, s)
               for u, v in itertools.combinations(range(g.n), 2))


def naive_check(code: str, g: Graph, d, s: set[int]) -> bool:
    if code == "gp":
        return naive_is_gp(g, d, s)
    if code == "igp":
        return naive_is_independent(g, s) and naive_is_gp(g, d, s)
    if code == "mu":
        return naive_is_mv(g, d, s)
    if code == "mui":
        return naive_is_independent(g, s) and naive_is_mv(g, d, s)
    if code == "mut":
        return naive_is_tmv(g, d, s)
    if code == "muit":
        return naive_is_independent(g, s) and naive_is_tmv(g, d, s)
    raise ValueError(code)


class NaiveOracle:
    """Per-graph cache of all geodesics, for bulk subset enumeration.

    Geodesic internals are stored as frozensets so each subset test is a
    handful of set intersections.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.d = matrix_power_distances(g)
        self.internals = {}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                self.internals[(u, v)] = [frozenset(p[1:-1])
                                          for p in all_geodesics(g, self.d, u, v)]

    def is_gp(self, s: set[int]) -> bool:
        for u, v in itertools.combinations(sorted(s), 2):
            if any(inner & s for inner in self.internals[(u, v)]):
                return False
        return True

    def pair_visible(self, u: int, v: int, s: set[int]) -> bool:
        return any(not (inner & s) for inner in self.internals[(u, v)])

    def is_mv(self, s: set[int]) -> bool:
        return all(self.pair_visible(u, v, s)
                   for u, v in itertools.combinations(sorted(s), 2))

    def is_tmv(self, s: set[int]) -> bool:
        return all(self.pair_visible(u, v, s)
                   for u, v in itertools.combinations(range(self.g.n), 2))

    def check(self, code: str, s: set[int]) -> bool:
        if code in ("igp", "mui", "muit") and not naive_is_independent(self.g, s):
            return False
        base = {"gp": self.is_gp, "igp": self.is_gp, "mu": self.is_mv,
                "mui": self.is_mv, "mut": self.is_tmv, "muit": self.is_tmv}
        return base[code](s)

    def max_set(self, code: str) -> int:
        best = 0
        verts = list(range(self.g.n))
        # Descend by size so the first feasible size wins.
        for size in range(self.g.n, -1, -1):
            if size <= best:
                break
            for combo in itertools.combinations(verts, size):
                if self.check(code, set(combo)):
                    best = size
                    break
        return best


def naive_max_set(code: str, g: Graph) -> int:
    """Maximum size over all 2^n subsets (the independent oracle)."""
    return NaiveOracle(g).max_set(code)


def naive_chromatic_number(g: Graph) -> int:
    """Fewest blocks over all partitions of V into independent sets."""
    best = g.n
    blocks: list[int] = []

    # Vertex v joins an earlier block or opens a new one, so every set
    # partition arises exactly once.
    def place(v: int) -> None:
        nonlocal best
        if v == g.n:
            best = min(best, len(blocks))
            return
        for i, block in enumerate(blocks):
            if not block & g.adj[v]:
                blocks[i] = block | 1 << v
                place(v + 1)
                blocks[i] = block
        blocks.append(1 << v)
        place(v + 1)
        blocks.pop()

    place(0)
    return best


def _isomorphisms(g: Graph, h: Graph):
    """Every bijection f of V(g) onto V(h) with uv an edge of g exactly when
    f(u)f(v) is an edge of h, each as the list of images, by extending a
    partial map one vertex at a time."""
    if g.n != h.n:
        return
    image: list[int] = []

    def extend():
        u = len(image)
        if u == g.n:
            yield list(image)
            return
        for x in range(h.n):
            if x not in image and all((g.adj[u] >> w & 1) == (h.adj[x] >> image[w] & 1)
                                      for w in range(u)):
                image.append(x)
                yield from extend()
                image.pop()

    yield from extend()


def naive_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some bijection maps the edges of g exactly onto those of h."""
    return next(_isomorphisms(g, h), None) is not None


def naive_automorphism_count(g: Graph) -> int:
    """The order of Aut(g): the bijections of V(g) that keep every edge and non-edge."""
    return sum(1 for _ in _isomorphisms(g, g))
