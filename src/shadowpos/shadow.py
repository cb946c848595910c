"""Shadow-graph constructions and the lemma checks on them.

The shadow graph doubles a graph: each vertex ``v`` gains a twin ``v'``
adjacent to all neighbors of ``v`` but not to ``v`` itself.  The index
convention is fixed package-wide: vertex ``i`` of the base graph has its
twin at ``i + n``.  All serialized witness sets use this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import (
    INF,
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


def _predicted_layers(sg: ShadowGraph, tg: DistanceTable,
                      x: int) -> tuple[tuple[VertexMask, ...], tuple[VertexMask, ...]]:
    """The trimmed BFS layers of x and of x' in S(G) that the distance
    clauses predict from the layers of x in G (table ``tg``)."""
    n, adj = sg.base.n, sg.base.adj
    near, bit, twin = adj[x], 1 << x, 1 << x + n
    in_triangle = mask_of(y for y in iter_bits(near) if near & adj[y])
    of_x = [layer | layer << n for layer in tg.layers[x]] + [0, 0, 0]
    of_twin = of_x[:]
    of_x[0], of_x[2] = bit, of_x[2] | twin
    of_twin[0], of_twin[1] = twin, near
    of_twin[2] |= bit | in_triangle << n
    of_twin[3] |= (near & ~in_triangle) << n
    return _trimmed(of_x), _trimmed(of_twin)


def shadow_distance_violations(sg: ShadowGraph) -> list[str]:
    """Check the six distance clauses tying d_{S(G)} to d_G.

    For non-adjacent x, y: d(x,y), d(x,y') and d(x',y') all equal the base
    distance.  For adjacent x, y: d(x,y) = d(x,y') = 1, and d(x',y') is 2
    when the edge xy lies in a triangle and 3 otherwise.  Returns a list of
    human-readable violations (empty when all clauses hold).  Adjacency and
    the base distances are read from ``sg.base``, the graph that was doubled.

    The clauses are checked on BFS layer masks, one base vertex x at a time
    against all y: by them, y and y' lie at hop d(x,y) from x and from x',
    except that from x' the twin of a neighbour of x lies at hop 2 (edge in
    a triangle) or 3, and x' lies at hop 2 from x.  A vertex lies in one
    layer only, so equal masks mean equal distances.  An x whose layers
    differ names the broken clauses of its pairs x < y from the hops of
    their far ends, actual and predicted; no distance row is ever read.
    """
    n, base_adj = sg.base.n, sg.base.adj
    tg, ts = shared_distances(sg.base), shared_distances(sg.graph)
    out = []
    for x in range(n):
        want = _predicted_layers(sg, tg, x)
        got = ts.layers[x], ts.layers[x + n]
        if got == want:
            continue
        # Hops from x and x', actual then predicted; a vertex in no layer is at INF.
        hop = [{v: k for k, layer in enumerate(ls) for v in iter_bits(layer)} for ls in got + want]
        for y in range(x + 1, n):
            kind = "adjacent" if base_adj[x] >> y & 1 else "non-adjacent"
            # d(x,y), d(x,y'), d(y,x') = d(x',y), d(x',y'): far ends in the layers of x or x'.
            pairs = ((x, y), (x, y + n), (y, x + n), (x + n, y + n))
            ends = ((0, y), (0, y + n), (1, y), (1, y + n))
            for (u, v), clause, (side, end) in zip(pairs, _DISTANCE_CLAUSES, ends):
                a, b = hop[side].get(end, INF), hop[side + 2].get(end, INF)
                if a != b:
                    out.append(f"{kind} {clause}: d({u},{v}) = {a}, expected {b}")
    return out


def gp_partition_violations(sg: ShadowGraph, s: VertexMask) -> list[str]:
    """Check the structural clauses every gp-set's partition must satisfy.

    The base vertices split by which of v, v' the set ``s`` holds: ``v1``
    both, ``v2`` only the twin, ``v3`` only v, ``v4`` neither; so
    |s| = n + |v1| - |v4| for every set over V(S(G)).  Assumes the caller
    verified that ``s`` is a general position set of the shadow graph;
    violated clauses are returned as strings.
    """
    base_adj = sg.base.adj
    full = sg.base_side_mask()
    on, twin = s & full, s >> sg.base.n & full
    v1, v2, v3, v4 = on & twin, twin & ~on, on & ~twin, full & ~(on | twin)
    out = []
    for u in iter_bits(v1):
        if base_adj[u] & v1:
            out.append(f"v1 not independent at vertex {u}")
            break
    for u in iter_bits(v1):
        if base_adj[u] & v3:
            out.append(f"edge between v1 vertex {u} and v3")
            break
    for u in iter_bits(v1 | v3):
        if (base_adj[u] & v2).bit_count() > 1:
            out.append(f"vertex {u} of v1|v3 has two neighbors in v2")
            break
    # Matching between v1 and v2: additionally no v2 vertex sees two v1 vertices.
    for w in iter_bits(v2):
        if (base_adj[w] & v1).bit_count() > 1:
            out.append(f"v2 vertex {w} has two neighbors in v1")
            break
    if v4 == 0 and v1 != 0:
        out.append("v4 empty but v1 nonempty")
    return out
