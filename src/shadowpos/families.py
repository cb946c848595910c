"""Deterministic graph-family generators and small-graph enumeration.

Small connected graphs are enumerated up to isomorphism by extending each
graph of one order less with a new vertex, one neighbourhood per orbit of
that graph's automorphisms, and keeping the first graph of each canonical
key.  The key and the automorphisms come from one
individualisation-refinement search, :func:`_canonical_search`.

Each family is one row of a table: its flat-text alias (``kpartite`` in
``kpartite:3,2,2``), how many size parameters it takes, the least first
parameter, and its builder.  :class:`FamilySpec` validation, its
``text()``, :func:`parse_family_spec` and :func:`generate` all read it.

Canonical vertex numbering per family:

* ``path``/``cycle``: vertices consecutive along the path/cycle.
* ``complete_bipartite``/``complete_multipartite``: parts contiguous, in
  the given order.
* ``star``: center is vertex 0.
* ``join_k1_cliques``: the universal vertex is 0, cliques contiguous after.
* ``balloon``: hub is 0, then k blocks of 5 (each a 5-cycle); the hub is
  joined to the first vertex of each block.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from .graph_core import Graph, GraphError, build_graph, iter_bits

ENUMERATION_CAP = 7


def _multipartite(parts: tuple[int, ...], seed) -> Graph:
    n = sum(parts)
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    return build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                           if part[u] != part[v]])


def _join_k1_cliques(orders: tuple[int, ...], seed) -> Graph:
    n = 1 + sum(orders)
    edges = [(0, v) for v in range(1, n)]
    start = 1
    for size in orders:
        edges.extend(itertools.combinations(range(start, start + size), 2))
        start += size
    return build_graph(n, edges)


def _balloon(p: tuple[int, ...], seed) -> Graph:
    edges = []
    for b in range(p[0]):
        base = 1 + 5 * b
        edges.extend((base + i, base + (i + 1) % 5) for i in range(5))
        edges.append((0, base))
    return build_graph(1 + 5 * p[0], edges)


class _Family(NamedTuple):
    """One family: its flat-text alias, the least and most number of size
    parameters (None: no most), the least first parameter, and its builder
    ``build(params, seed)``.  A rule that fails raises its message."""
    alias: str
    build: Callable[[tuple[int, ...], Optional[int]], Graph]
    sizes: tuple[int, Optional[int]] = (1, 1)
    sizes_rule: str = "expected one size parameter"
    least: tuple[int, str] = (1, "")


_FAMILIES = {
    "path": _Family("path", lambda p, s: build_graph(p[0], [(i, i + 1) for i in range(p[0] - 1)])),
    "cycle": _Family("cycle", lambda p, s: build_graph(p[0], [(i, (i + 1) % p[0])
                                                             for i in range(p[0])]),
                     least=(3, "cycle length must be >= 3")),
    "complete": _Family("complete", lambda p, s: build_graph(
        p[0], itertools.combinations(range(p[0]), 2))),
    "complete_bipartite": _Family("bipartite", _multipartite, (2, 2), "expected two part sizes"),
    "complete_multipartite": _Family("kpartite", _multipartite, (2, None),
                                     "expected at least two part sizes"),
    "star": _Family("star", lambda p, s: build_graph(p[0] + 1, [(0, i) for i in range(1, p[0] + 1)])),
    "random_tree": _Family("tree", lambda p, s: random_tree(p[0], s if s is not None else 0),
                           least=(2, "tree order must be >= 2")),
    "join_k1_cliques": _Family("join", _join_k1_cliques, (1, None),
                               "expected at least one clique order"),
    "balloon": _Family("balloon", _balloon, sizes_rule="expected the number of cycle blocks",
                       least=(2, "balloon parameter k must be >= 2")),
}
FAMILY_KINDS = tuple(_FAMILIES)


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: tuple[int, ...]
    seed: Optional[int] = None

    def __post_init__(self):
        kind, params = self.kind, self.params
        if kind not in FAMILY_KINDS:
            raise GraphError(f"unknown family kind {kind!r}")
        if any(p < 1 for p in params):
            raise GraphError(f"family {kind}: all size parameters must be >= 1")
        family = _FAMILIES[kind]
        fewest, most = family.sizes
        rule = None
        if not fewest <= len(params) <= (len(params) if most is None else most):
            rule = family.sizes_rule
        elif params[0] < family.least[0]:
            rule = family.least[1]
        if rule is not None:
            raise GraphError(f"family {kind}: {rule} (params={list(params)})")
        if self.seed is not None and kind != "random_tree":
            raise GraphError(f"family {kind}: seed only applies to random trees")

    def text(self) -> str:
        base = f"{_FAMILIES[self.kind].alias}:{','.join(str(p) for p in self.params)}"
        if self.seed is not None:
            base += f":seed={self.seed}"
        return base


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the flat CLI syntax, e.g. ``cycle:8`` or ``tree:9:seed=7``."""
    kinds = {family.alias: kind for kind, family in _FAMILIES.items()}
    parts = text.strip().split(":")
    if parts[0] not in kinds:
        known = ", ".join(sorted(kinds))
        raise GraphError(f"unknown family {text!r}; expected one of: {known}")
    if len(parts) < 2 or not parts[1]:
        raise GraphError(f"family {text!r} is missing size parameters")
    try:
        params = tuple(int(p) for p in parts[1].split(","))
    except ValueError:
        raise GraphError(f"non-integer size parameter in {text!r}") from None
    seed = None
    if len(parts) >= 3:
        if len(parts) > 3 or not parts[2].startswith("seed="):
            raise GraphError(f"bad trailing clause in {text!r}; expected seed=<int>")
        try:
            seed = int(parts[2][len("seed="):])
        except ValueError:
            raise GraphError(f"non-integer seed in {text!r}") from None
    return FamilySpec(kinds[parts[0]], params, seed)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by ``spec``."""
    return _FAMILIES[spec.kind].build(spec.params, spec.seed)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via sequence decoding; deterministic per seed.

    Decodes a random length n-2 sequence over [n] through the classical
    bijection between such sequences and labeled trees.
    """
    if n < 2:
        raise GraphError(f"random tree needs n >= 2, got {n}")
    if n == 2:
        return build_graph(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    count = [0] * n
    for x in seq:
        count[x] += 1
    edges = []
    # Repeatedly attach the smallest current leaf to the next code symbol.
    leaves = [v for v in range(n) if count[v] == 0]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        count[x] -= 1
        if count[x] == 0:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return build_graph(n, edges)


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Split the ordered cells (vertex masks) until the partition is equitable.

    Each splitter W, and each fragment made after it, splits every cell by
    neighbour counts in W, the fragments in order of count, never of vertex
    index, so the result commutes with relabelling.  ``splitters`` are the
    cells the partition may not be equitable against: all at the root, and
    ``[v]`` once v leaves an equitable partition's cell.
    """
    splitters = list(splitters)
    for w in splitters:
        out = []
        for cell in cells:
            if not cell & (cell - 1):  # a singleton cannot split
                out.append(cell)
                continue
            parts: dict[int, int] = {}
            for v in iter_bits(cell):
                count = (adj[v] & w).bit_count()
                parts[count] = parts.get(count, 0) | 1 << v
            fragments = [parts[count] for count in sorted(parts)]
            out.extend(fragments)
            if len(fragments) > 1:
                splitters.extend(fragments)
        cells = out
    return cells


def _orbit_roots(size: int, maps: list[list[int]]) -> list[int]:
    """The least point of each point's orbit under ``maps`` of ``range(size)``."""
    root = list(range(size))

    def find(s: int) -> int:
        while root[s] != s:
            root[s] = s = root[root[s]]
        return s

    for image in maps:
        for s, t in enumerate(image):
            a, b = find(s), find(t)
            root[max(a, b)] = min(a, b)
    return [find(s) for s in range(size)]


def _canonical_search(g: Graph) -> tuple[int, list[list[int]]]:
    """The least leaf key of the individualisation-refinement tree of ``g``,
    and automorphisms (``perm[v]`` is v's image) that generate Aut(g).

    A node refines its partition and branches on each vertex of the first
    non-singleton cell, put before the rest of the cell.  A leaf's key is
    the adjacency bitstring under its vertex order: an edge uv sets bits
    ``n*pos[u] + pos[v]`` and ``n*pos[v] + pos[u]``.  A leaf with the first
    or the best leaf's key gives the automorphism between their orders, and
    the search backs up to where their paths part: the rest of that branch
    maps onto an explored one.  A child in the orbit of an explored sibling,
    under the automorphisms found that fix the node's path, is skipped for
    the same reason (McKay 1981; McKay and Piperno 2014).
    """
    n, adj = g.n, g.adj
    leaves: list[tuple[int, list[int], list[int]]] = []  # the first leaf, then the best
    generators: list[list[int]] = []

    def visit(cells: list[int], path: list[int]) -> int:
        """Explore a node; the depth of the ancestor whose next child comes next."""
        cells = _refine(adj, cells, [1 << path[-1]] if path else cells)
        at = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), None)
        if at is None:
            order = [cell.bit_length() - 1 for cell in cells]
            bit = [0] * n
            for i, v in enumerate(order):
                bit[v] = 1 << i
            key = sum(sum(bit[w] for w in iter_bits(adj[v])) << n * i for i, v in enumerate(order))
            for seen_key, seen, seen_path in leaves:
                if key == seen_key:
                    generators.append([v for _, v in sorted(zip(seen, order))])
                    return next(d for d, (u, v) in enumerate(zip(path, seen_path)) if u != v)
            if not leaves or key < leaves[-1][0]:
                leaves[1:] = [(key, order, path)]  # sets the first leaf, later the best
            return len(path)
        explored: list[int] = []
        for v in iter_bits(cells[at]):
            fixing = [p for p in generators if all(p[u] == u for u in path)]
            if fixing and explored:
                roots = _orbit_roots(n, fixing)
                if any(roots[u] == roots[v] for u in explored):
                    continue
            explored.append(v)
            back = visit(cells[:at] + [1 << v, cells[at] ^ 1 << v] + cells[at + 1:], path + [v])
            if back < len(path):
                return back
        return len(path)

    visit([(1 << n) - 1] if n else [], [])
    return leaves[-1][0], generators


def canonical_key(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key ``(n, bits)``: equal keys <=> isomorphic graphs.

    ``bits`` is the least leaf key of :func:`_canonical_search`, whose tree
    and leaf keys commute with relabelling.
    """
    return (g.n, _canonical_search(g)[0])


def enumerate_connected(n_max: int) -> Iterator[Graph]:
    """Yield one connected graph on 1..n_max vertices per isomorphism class.

    Hard-capped at ``n_max <= 7``.
    """
    if n_max > ENUMERATION_CAP:
        raise GraphError(
            f"enumeration capped at n <= {ENUMERATION_CAP}, got {n_max}")
    if n_max < 1:
        return
    # Orderly extension: every connected graph on n >= 2 vertices arises from
    # a connected graph on n-1 vertices by adding one vertex with a nonempty
    # neighborhood (delete any non-cut vertex to see this).  A neighborhood
    # that an automorphism of the parent maps to a smaller one gives a graph
    # isomorphic to an earlier candidate, so it is skipped and the first
    # candidate of each class, the one kept, is the same.
    level = [(Graph(1, (0,)), [])]
    yield level[0][0]
    for n in range(2, n_max + 1):
        seen = set()
        nxt = []
        size = 1 << (n - 1)
        for g, generators in level:
            images = [[0] * size for _ in generators]
            for image, perm in zip(images, generators):
                for nb in range(1, size):
                    low = nb & -nb
                    image[nb] = image[nb ^ low] | 1 << perm[low.bit_length() - 1]
            roots = _orbit_roots(size, images)
            for nb in range(1, size):
                if roots[nb] != nb:
                    continue
                rows = [g.adj[u] | ((nb >> u & 1) << (n - 1)) for u in range(n - 1)]
                rows.append(nb)
                cand = Graph(n, tuple(rows))
                key, generators = _canonical_search(cand)
                if key not in seen:
                    seen.add(key)
                    nxt.append((cand, generators))
                    yield cand
        level = nxt
