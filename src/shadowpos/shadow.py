"""Shadow-graph constructions and the partition bookkeeping around them.

The shadow graph doubles a graph: each vertex ``v`` gains a twin ``v'``
adjacent to all neighbors of ``v`` but not to ``v`` itself.  The index
convention is fixed package-wide: vertex ``i`` of the base graph has its
twin at ``i + n``.  All serialized witness sets use this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import (
    DistanceTable,
    Graph,
    GraphError,
    VertexMask,
    is_connected,
    iter_bits,
    mask_of,
    shared_distances,
)


@dataclass(frozen=True)
class ShadowGraph:
    """A doubled graph together with the graph it doubles.

    ``graph`` has ``2 * base.n`` vertices; twin of ``i`` is ``i + base.n``.
    """

    graph: Graph
    base: Graph

    def shadow_side_mask(self) -> VertexMask:
        return ((1 << self.base.n) - 1) << self.base.n

    def base_side_mask(self) -> VertexMask:
        return (1 << self.base.n) - 1


def shadow(g: Graph) -> ShadowGraph:
    """Construct the shadow graph of a connected graph; twin of ``i`` is ``i + n``."""
    if not is_connected(g):
        raise GraphError("shadow graph requires a connected base graph")
    n = g.n
    rows = [0] * (2 * n)
    for u in range(n):
        row = g.adj[u]
        # Edges uv, u'v, uv' for every base edge uv; never u'v'.
        rows[u] = row | (row << n)
        rows[u + n] = row
        for v in iter_bits(row):
            rows[v + n] |= 1 << u
    return ShadowGraph(Graph(2 * n, tuple(rows)), g)


def star_shadow(g: Graph) -> Graph:
    """Shadow graph plus an apex vertex adjacent to all twins.

    The apex gets index ``2n``.  Iterating this construction from a 5-cycle
    produces the classical triangle-free graphs of growing chromatic number.
    """
    sg = shadow(g)
    n = g.n
    shadow_mask = sg.shadow_side_mask()
    rows = [sg.graph.adj[u] | ((shadow_mask >> u & 1) << (2 * n))
            for u in range(2 * n)]
    rows.append(shadow_mask)
    return Graph(2 * n + 1, tuple(rows))


_DISTANCE_CLAUSES = ("base pair", "base/twin pair", "base/twin pair", "twin pair")


def _trimmed(layers: list[VertexMask]) -> tuple[VertexMask, ...]:
    """``layers`` without its trailing empty masks, as a table holds them."""
    while not layers[-1]:
        layers.pop()
    return tuple(layers)


def _layers_agree(sg: ShadowGraph, tg: DistanceTable, ts: DistanceTable, x: int) -> bool:
    """Whether the BFS layers of x and x' in S(G) (table ``ts``) are those the
    distance clauses predict from the layers of x in G (table ``tg``)."""
    n, adj = sg.base.n, sg.base.adj
    near, bit, twin = adj[x], 1 << x, 1 << x + n
    in_triangle = mask_of(y for y in iter_bits(near) if near & adj[y])
    of_x = [layer | layer << n for layer in tg.layers[x]] + [0, 0, 0]
    of_twin = of_x[:]
    of_x[0], of_x[2] = bit, of_x[2] | twin
    of_twin[0], of_twin[1] = twin, near
    of_twin[2] |= bit | in_triangle << n
    of_twin[3] |= (near & ~in_triangle) << n
    return _trimmed(of_x) == ts.layers[x] and _trimmed(of_twin) == ts.layers[x + n]


def shadow_distance_violations(sg: ShadowGraph) -> list[str]:
    """Check the six distance clauses tying d_{S(G)} to d_G.

    For non-adjacent x, y: d(x,y), d(x,y') and d(x',y') all equal the base
    distance.  For adjacent x, y: d(x,y) = d(x,y') = 1, and d(x',y') is 2
    when the edge xy lies in a triangle and 3 otherwise.  Returns a list of
    human-readable violations (empty when all clauses hold).  Adjacency and
    the base distances are read from ``sg.base``, the graph that was doubled.

    The clauses are checked on BFS layer masks first, one base vertex x at
    a time against all y: by them, y and y' lie at hop d(x,y) from x and
    from x', except that from x' the twin of a neighbour of x lies at hop 2
    (edge in a triangle) or 3, and x' lies at hop 2 from x.  A vertex lies
    in one layer only, so equal masks mean equal distances.  Only an x
    whose layers differ reads the distance rows, to name the broken clauses
    of its pairs x < y; when all clauses hold, no row is filled.
    """
    n, base_adj = sg.base.n, sg.base.adj
    tg, ts = shared_distances(sg.base), shared_distances(sg.graph)
    out = []
    for x in range(n):
        if _layers_agree(sg, tg, ts, x):
            continue
        base, d = tg.d, ts.d
        dx, dtx = d[x], d[x + n]
        for y in range(x + 1, n):
            # d(x,y), d(x,y'), d(y,x'), d(x',y') against the lemma, in one test.
            got = (dx[y], dx[y + n], d[y][x + n], dtx[y + n])
            if base_adj[x] >> y & 1:
                kind = "adjacent"
                want = (1, 1, 1, 2 if base_adj[x] & base_adj[y] else 3)
            else:
                kind = "non-adjacent"
                want = (base[x][y],) * 4
            if got != want:
                pairs = ((x, y), (x, y + n), (y, x + n), (x + n, y + n))
                for (u, v), clause, a, b in zip(pairs, _DISTANCE_CLAUSES, got, want):
                    if a != b:
                        out.append(f"{kind} {clause}: d({u},{v}) = {a}, expected {b}")
    return out


@dataclass(frozen=True)
class PiPartition:
    """Classification of base vertices by which of {v, v'} a set contains.

    ``v1``: both in the set, ``v2``: only the twin, ``v3``: only the base
    vertex, ``v4``: neither.  For any set S over V(S(G)) this forces
    ``|S| = n + n1 - n4``.
    """

    v1: VertexMask
    v2: VertexMask
    v3: VertexMask
    v4: VertexMask

    @property
    def n1(self) -> int:
        return self.v1.bit_count()

    @property
    def n4(self) -> int:
        return self.v4.bit_count()


def pi_partition(sg: ShadowGraph, s: VertexMask) -> PiPartition:
    """Split base vertices by membership pattern of (v, v') in ``s``."""
    n = sg.base.n
    base_bits = s & sg.base_side_mask()
    twin_bits = (s >> n) & sg.base_side_mask()
    full = sg.base_side_mask()
    part = PiPartition(
        v1=base_bits & twin_bits,
        v2=~base_bits & twin_bits & full,
        v3=base_bits & ~twin_bits & full,
        v4=~base_bits & ~twin_bits & full,
    )
    if s.bit_count() != n + part.n1 - part.n4:
        raise RuntimeError(f"pi partition of {s:#x} breaks |S| = n + n1 - n4")
    return part


def gp_partition_violations(sg: ShadowGraph, s: VertexMask) -> list[str]:
    """Check the structural clauses every gp-set's partition must satisfy.

    Assumes the caller verified that ``s`` is a general position set of the
    shadow graph; violated clauses are returned as strings.
    """
    base_adj = sg.base.adj
    p = pi_partition(sg, s)
    out = []
    for u in iter_bits(p.v1):
        if base_adj[u] & p.v1:
            out.append(f"v1 not independent at vertex {u}")
            break
    for u in iter_bits(p.v1):
        if base_adj[u] & p.v3:
            out.append(f"edge between v1 vertex {u} and v3")
            break
    for u in iter_bits(p.v1 | p.v3):
        if (base_adj[u] & p.v2).bit_count() > 1:
            out.append(f"vertex {u} of v1|v3 has two neighbors in v2")
            break
    # Matching between v1 and v2: additionally no v2 vertex sees two v1 vertices.
    for w in iter_bits(p.v2):
        if (base_adj[w] & p.v1).bit_count() > 1:
            out.append(f"v2 vertex {w} has two neighbors in v1")
            break
    if p.v4 == 0 and p.v1 != 0:
        out.append("v4 empty but v1 nonempty")
    return out
