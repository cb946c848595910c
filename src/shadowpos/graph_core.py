"""Immutable bit-vector graphs and metric primitives.

Vertices are dense integers ``0..n-1``.  Adjacency is stored as one Python
int per vertex, used as a fixed-width bit vector, so neighborhood unions and
intersections are single integer operations.  Vertex subsets are plain int
bitmasks throughout the package (see :data:`VertexMask`).

The one metric primitive is the per-source BFS layer mask: the vertices at
hop k from s.  Distances, geodesic intervals, collinearity, the layers of
each geodesic DAG, connectivity and the diameter are all read off these
masks (see :class:`DistanceTable`); the distance rows, the intervals and
collinearity only when first read.  :func:`distances` builds a fresh table
of layers on every call, growing the BFS balls of all sources together, one
hop per round; :func:`shared_distances` keeps the last two, so the solvers
that read one graph in turn share one table and what is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

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


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
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
    return Graph(n, tuple(rows))


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs hop distances and geodesic intervals, from BFS layer masks.

    ``layers[s][k]`` is the mask of the vertices at hop k from ``s``; it is
    the table's one field, and :attr:`connected` reads only ``layers[0]``.
    ``d[u][v]`` is the hop distance, with :data:`INF` for disconnected pairs.
    Like ``between`` and ``line`` below, ``d`` is built on first read and
    kept, so a reader of connectivity, eccentricities or layers alone never
    fills its n^2 entries.
    ``between[u][v]`` is the mask of the vertices strictly inside some
    ``u,v``-geodesic.  A vertex lies on such a geodesic at hop k from ``u``
    exactly when it is at hop k from ``u`` and at hop d - k from ``v``, so
    with d = d(u,v)::

        between[u][v] = OR over 0 < k < d of layers[u][k] & layers[v][d - k]

    and each term of that OR is the k-th layer of the geodesic DAG.  That is
    O(n^2 * diameter) work, so ``between`` is built on first read and kept.

    ``line[a][b]`` holds the vertices x other than a and b that lie on one
    geodesic with them, in any position: between them, beyond b seen from a
    (d(a, x) = d(a, b) + d(b, x)), or beyond a seen from b.  A set is in
    general position exactly when no member is on the line of two others.
    It is 0 for a disconnected pair.  It extends ``between`` and is likewise
    built on first read and kept.
    """

    layers: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def connected(self) -> bool:
        """True when source 0's layers hold every vertex; the empty graph is connected."""
        return not self.layers or sum(map(int.bit_count, self.layers[0])) == len(self.layers)

    @cached_property
    def d(self) -> tuple[tuple, ...]:
        # d is symmetric, so row u copies its entries before u from the rows
        # already built and extracts only the layer bits v >= u.
        n, d = len(self.layers), []
        for u, row_layers in enumerate(self.layers):
            row = [r[u] for r in d]
            row += [INF] * (n - u)
            for k, layer in enumerate(row_layers):
                layer >>= u
                while layer:
                    row[u + (layer & -layer).bit_length() - 1] = k
                    layer &= layer - 1
            d.append(tuple(row))
        return tuple(d)

    @cached_property
    def between(self) -> tuple[tuple[int, ...], ...]:
        d, layers, n = self.d, self.layers, len(self.d)
        between = [[0] * n for _ in range(n)]
        for u, lu in enumerate(layers):
            for v in range(u + 1, n):
                duv = d[u][v]
                if duv == INF:
                    continue
                lv = layers[v]
                m = 0
                for k in range(1, duv):
                    m |= lu[k] & lv[duv - k]
                between[u][v] = between[v][u] = m
        return tuple(tuple(row) for row in between)

    @cached_property
    def line(self) -> tuple[tuple[int, ...], ...]:
        d, layers, between, n = self.d, self.layers, self.between, len(self.d)
        line = [[0] * n for _ in range(n)]
        # x is beyond b seen from a when it is at hop d(a, b) + k from a and
        # at hop k from b; ecc(a) <= d(a, b) + ecc(b), so b's layer exists.
        for a, la in enumerate(layers):
            for b in range(a + 1, n):
                lb, dab = layers[b], d[a][b]
                if dab == INF:
                    continue
                m = between[a][b]
                for k in range(dab + 1, len(la)):
                    m |= la[k] & lb[k - dab]
                for k in range(dab + 1, len(lb)):
                    m |= lb[k] & la[k - dab]
                line[a][b] = line[b][a] = m
        return tuple(tuple(row) for row in line)


def _ball_layers(adj: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Masks of the vertices at hop 0, 1, 2, ... from each source, all grown together.

    Round k sets ball_k(s) = ball_{k-1}(s) | OR of ball_{k-1}(t) over the
    neighbours t of s, read from a snapshot of round k-1 (updating in place
    would let a ball grow by two hops in one round).  The new layer is
    ball_k & ~ball_{k-1}, and a source whose ball stops growing, having
    reached its whole component, leaves the active sources: deg(s) ORs in
    each of ecc(s) + 1 rounds per source.
    """
    nbrs = []  # extracted inline: a generator per vertex costs ~10% on small graphs
    for row in adj:
        vs = []
        while row:
            vs.append((row & -row).bit_length() - 1)
            row &= row - 1
        nbrs.append(vs)
    balls = [1 << s for s in range(len(adj))]
    layers = [[ball] for ball in balls]
    active = range(len(adj))
    while active:
        prev, growing = balls[:], []
        for s in active:
            ball = last = prev[s]
            for t in nbrs[s]:
                ball |= prev[t]
            if ball != last:
                balls[s] = ball
                layers[s].append(ball & ~last)
                growing.append(s)
        active = growing
    return tuple(map(tuple, layers))


def distances(g: Graph) -> DistanceTable:
    """All sources' BFS layers at once; distances and intervals are read off them on first read."""
    return DistanceTable(_ball_layers(g.adj))


@lru_cache(maxsize=2)
def shared_distances(g: Graph) -> DistanceTable:
    """The :func:`distances` table of ``g``, kept for the next caller.

    Graphs equal by value share one table, and with it the ``between`` and
    ``line`` masks built on it.  Two slots, because the checks of one graph
    read G and its shadow in turn; at most two tables stay alive.
    """
    return distances(g)


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
    seen = frontier = 1
    while frontier:
        reach = 0
        while frontier:
            reach |= g.adj[(frontier & -frontier).bit_length() - 1]
            frontier &= frontier - 1
        frontier = reach & ~seen
        seen |= frontier
    return seen == g.vertex_mask()


def structural_queries(g: Graph) -> StructuralSummary:
    """Exact basic structure: connectivity, diameter, degrees, leaves, etc."""
    n, t = g.n, shared_distances(g)
    degs = [g.degree(u) for u in range(n)]
    connected = t.connected
    diameter = max((len(ls) - 1 for ls in t.layers), default=0) if connected else INF
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
        connected=connected,
        diameter=diameter,
        min_degree=min(degs) if n else 0,
        max_degree=max(degs) if n else 0,
        leaf_set=leaves,
        is_regular=n > 0 and min(degs) == max(degs),
        is_triangle_free=tri_free,
        has_universal_vertex=any(degs[u] == n - 1 for u in range(n)) if n > 1 else n == 1,
    )


def avoidance_test(t: DistanceTable, g: Graph) -> Callable[[int, int, VertexMask], bool]:
    """``sees(u, v, forbidden)``, bound to ``t`` and ``g``: True iff some
    ``u,v``-geodesic has all internal vertices outside ``forbidden``.

    Layered dynamic programming over the geodesic DAG: a vertex of the DAG's
    layer k, ``layers[u][k] & layers[v][d - k]``, is reachable when it has a
    reachable neighbor in layer k-1; the sweep runs from layer 1, all next
    to ``u``, to layer d-1, all next to ``v``.  The endpoints are exempt
    from ``forbidden``, so a pair at distance 0 or 1 always sees each other;
    a disconnected pair raises :class:`GraphError`.
    """
    d, layers, adj = t.d, t.layers, g.adj

    def sees(u: int, v: int, forbidden: VertexMask) -> bool:
        duv = d[u][v]
        if duv == INF:
            raise GraphError(f"no path between {u} and {v}")
        if duv <= 1:
            return True
        lu, lv, allowed = layers[u], layers[v], ~forbidden
        reach = lu[1] & lv[duv - 1] & allowed
        for k in range(2, duv):
            if not reach:
                return False
            nxt = 0
            while reach:
                nxt |= adj[(reach & -reach).bit_length() - 1]
                reach &= reach - 1
            reach = nxt & lu[k] & lv[duv - k] & allowed
        return reach != 0

    return sees
