"""Deterministic graph-family generators and small-graph enumeration.

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


def _refined_classes(g: Graph) -> list[list[int]]:
    """Partition vertices into isomorphism-invariant classes (1-dim refinement)."""
    color = [g.degree(v) for v in range(g.n)]
    while True:
        sig = [(color[v], tuple(sorted(color[w] for w in iter_bits(g.adj[v]))))
               for v in range(g.n)]
        order = sorted(set(sig))
        new = [order.index(s) for s in sig]
        if new == color:
            break
        color = new
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_key(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key: minimum adjacency bitstring over all
    class-respecting vertex orders.

    Classes come from degree-based refinement, so only permutations within
    refinement classes are tried; equal keys <=> isomorphic graphs.  Under
    the order ``pos`` an edge uv sets bits ``n*pos[u] + pos[v]`` and
    ``n*pos[v] + pos[u]`` of the n x n adjacency matrix.
    """
    n = g.n
    classes = _refined_classes(g)
    best = None
    edges = g.edges()
    for orders in itertools.product(*(itertools.permutations(c) for c in classes)):
        perm_old = [v for group in orders for v in group]
        pos = [0] * n
        for new, old in enumerate(perm_old):
            pos[old] = new
        key = 0
        for u, v in edges:
            key |= 1 << (n * pos[u] + pos[v]) | 1 << (n * pos[v] + pos[u])
        if best is None or key < best:
            best = key
    return (n, best if best is not None else 0)


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
    # neighborhood (delete any non-cut vertex to see this).
    level = [Graph(1, (0,))]
    yield level[0]
    for n in range(2, n_max + 1):
        seen = set()
        nxt = []
        for g in level:
            for nb in range(1, 1 << (n - 1)):
                rows = [g.adj[u] | ((nb >> u & 1) << (n - 1)) for u in range(n - 1)]
                rows.append(nb)
                cand = Graph(n, tuple(rows))
                key = canonical_key(cand)
                if key not in seen:
                    seen.add(key)
                    nxt.append(cand)
                    yield cand
        level = nxt
