"""Immutable bit-vector graphs and metric primitives.

Vertices are dense integers ``0..n-1``.  Adjacency is stored as one Python
int per vertex, used as a fixed-width bit vector, so neighborhood unions and
intersections are single integer operations.  Vertex subsets are plain int
bitmasks throughout the package (see :data:`VertexMask`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

INF = float("inf")

# A vertex subset: bit i set <=> vertex i is in the set.
VertexMask = int


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> VertexMask:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def mask_to_sorted_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


class GraphError(ValueError):
    """Raised on malformed graph input (bad endpoints, loops, arity)."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with bitmask adjacency rows.

    Immutable after construction; safe to share between workers.
    """

    n: int
    adj: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise GraphError(f"adjacency has {len(self.adj)} rows, expected {self.n}")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"adjacency row {u} has bits outside 0..{self.n - 1}")
            if row >> u & 1:
                raise GraphError(f"loop at vertex {u}")
        for u in range(self.n):
            for v in iter_bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> list[int]:
        return list(iter_bits(self.adj[u]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u]):
                if u < v:
                    out.append((u, v))
        return out

    def vertex_mask(self) -> VertexMask:
        return (1 << self.n) - 1

    def label(self, u: int) -> str:
        if self.labels is not None:
            return self.labels[u]
        return str(u)


def build_graph(n: int, edges: Iterable[tuple[int, int]],
                labels: Optional[Sequence[str]] = None) -> Graph:
    """Build a :class:`Graph` from an edge list; duplicate edges collapse.

    Raises :class:`GraphError` for out-of-range endpoints or loops, naming
    the offending pair.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"edge ({u}, {v}) is a loop")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    lab = tuple(labels) if labels is not None else None
    if lab is not None and len(lab) != n:
        raise GraphError(f"{len(lab)} labels for {n} vertices")
    return Graph(n, tuple(rows), lab)


def _bfs_distances(adj: Sequence[int], n: int, source: int) -> list:
    dist = [INF] * n
    dist[source] = 0
    visited = 1 << source
    frontier = 1 << source
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj[v]
        nxt &= ~visited
        for v in iter_bits(nxt):
            dist[v] = d
        visited |= nxt
        frontier = nxt
    return dist


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs BFS hop distances plus geodesic-interval oracles.

    ``d[u][v]`` is the hop distance, with :data:`INF` for disconnected pairs.
    ``between[u][v]`` is the bitmask of vertices strictly between ``u`` and
    ``v`` on some geodesic (excluding the endpoints themselves).
    """

    graph: Graph
    d: tuple[tuple, ...]
    between: tuple[tuple[int, ...], ...] = field(repr=False)
    _layers: dict[tuple[int, int], tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def connected(self) -> bool:
        if self.graph.n == 0:
            return True
        return all(x != INF for x in self.d[0])

    def geodesic_layer_masks(self, u: int, v: int) -> tuple[int, ...]:
        """Masks of on-geodesic vertices at hop k from ``u``, k = 0..d(u,v).

        Memoized per unordered pair: ``(v, u)`` gets the same layers reversed.
        """
        if u > v:
            return self.geodesic_layer_masks(v, u)[::-1]
        layers = self._layers.get((u, v))
        if layers is None:
            duv = self.d[u][v]
            if duv == INF:
                raise GraphError(f"no path between {u} and {v}")
            out = [0] * (duv + 1)
            out[0] = 1 << u
            out[duv] = 1 << v
            for w in iter_bits(self.between[u][v]):
                out[self.d[u][w]] |= 1 << w
            layers = self._layers[(u, v)] = tuple(out)
        return layers


def distances(g: Graph) -> DistanceTable:
    """Exact BFS distances and between-masks, computed eagerly once."""
    n = g.n
    d = [_bfs_distances(g.adj, n, s) for s in range(n)]
    between = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            duv = d[u][v]
            if u == v or duv == INF:
                continue
            m = 0
            du, dv = d[u], d[v]
            for w in range(n):
                if w != u and w != v and du[w] != INF and dv[w] != INF \
                        and du[w] + dv[w] == duv:
                    m |= 1 << w
            between[u][v] = m
    return DistanceTable(g, tuple(tuple(row) for row in d),
                         tuple(tuple(row) for row in between))


@dataclass(frozen=True)
class StructuralSummary:
    connected: bool
    diameter: object  # int, or INF when disconnected
    min_degree: int
    max_degree: int
    leaf_set: VertexMask
    is_regular: bool
    is_triangle_free: bool
    has_universal_vertex: bool

    @property
    def leaf_count(self) -> int:
        return self.leaf_set.bit_count()


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == g.vertex_mask()


def structural_queries(g: Graph) -> StructuralSummary:
    """Exact basic structure: connectivity, diameter, degrees, leaves, etc."""
    n = g.n
    degs = [g.degree(u) for u in range(n)]
    diameter = max((max(_bfs_distances(g.adj, n, s)) for s in range(n)), default=0)
    leaves = mask_of(u for u in range(n) if degs[u] == 1)
    tri_free = True
    for u in range(n):
        for v in iter_bits(g.adj[u]):
            if v > u and g.adj[u] & g.adj[v]:
                tri_free = False
                break
        if not tri_free:
            break
    return StructuralSummary(
        connected=diameter != INF,
        diameter=diameter,
        min_degree=min(degs) if n else 0,
        max_degree=max(degs) if n else 0,
        leaf_set=leaves,
        is_regular=n > 0 and min(degs) == max(degs),
        is_triangle_free=tri_free,
        has_universal_vertex=any(degs[u] == n - 1 for u in range(n)) if n > 1 else n == 1,
    )


def geodesic_exists_avoiding(t: DistanceTable, g: Graph, u: int, v: int,
                             forbidden: VertexMask) -> bool:
    """True iff some ``u,v``-geodesic has all internal vertices outside ``forbidden``.

    Layered dynamic programming over the geodesic DAG: a vertex at hop k is
    reachable when it has a reachable neighbor at hop k-1.  The endpoints are
    exempt from ``forbidden``.  This sits in the innermost loop of the
    visibility searches, so once a pair's layers are cached it costs one
    dict lookup before the sweep.
    """
    if u > v:
        u, v = v, u
    layers = t._layers.get((u, v))
    if layers is None:
        layers = t.geodesic_layer_masks(u, v)
    if len(layers) <= 2:
        return True
    blocked = forbidden & ~(1 << u) & ~(1 << v)
    adj = g.adj
    reach = 1 << u
    for k in range(1, len(layers)):
        nxt = 0
        for x in iter_bits(reach):
            nxt |= adj[x]
        reach = nxt & layers[k] & ~blocked
        if not reach:
            return False
    return True
