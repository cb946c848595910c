"""Exact maximum-set search and the other desk-scale exact solvers.

One branch-and-bound engine drives all six hereditary set properties; each
property contributes an incremental feasibility checker.  Adding a vertex
``w`` to a partial set only affects pairs whose geodesics can pass through
``w``, so the incremental checks are exact, not merely a filter.  The search
branches over candidate lists: its root holds the vertices that form a
one-vertex set, after ``w`` joins the checker's forward check drops the
candidates that can no longer join (for all six properties a test of only
what ``w`` can break), and a subtree is pruned by its size plus a bound on
how many of its candidates can still join: their number, or for GP, IGP,
MV and IMV the cliques of a greedy partition of the candidates' pairwise
conflicts, the colouring bound of max-clique solvers.  Where only the set
with every candidate left can beat the best, one test of that set decides
the subtree.  Its seed is the greedy set in reverse order, which on a
shadow reaches the twins, the last vertices, first; the search starts one
below it.  It takes the vertices in order ``0..n-1``, so every exact
witness is the lexicographically smallest maximum set.

Two other searches are exact: a minimum set cover serves the isometric
path and cycle covers, and a DSATUR colouring search the chromatic number.

All three searches, and the enumeration of a cover's parts, have the same
two stopping rules, a node budget and a wall-clock deadline; a stopped search
reports the best set, cover or colouring it holds, a certified bound, with
``exact`` False.  The heuristic is nothing
more than the exact search under a deadline.  :func:`solve` is the one
exact entry by invariant code over the three searches.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .graph_core import (
    DistanceTable,
    Graph,
    GraphError,
    INF,
    VertexMask,
    avoidance_test,
    iter_bits,
    mask_of,
    mask_to_sorted_list,
    shared_distances,
)
from .visibility import SetProperty, check as check_property

DEFAULT_NODE_BUDGET = 10**8

_PROPERTY_CODE = {
    SetProperty.GP: "gp",
    SetProperty.IGP: "igp",
    SetProperty.MV: "mu",
    SetProperty.IMV: "mui",
    SetProperty.TMV: "mut",
    SetProperty.ITMV: "muit",
}

_CODE_PROPERTY = {v: k for k, v in _PROPERTY_CODE.items()}

SET_INVARIANT_CODES = tuple(_PROPERTY_CODE.values())
INVARIANT_CODES = SET_INVARIANT_CODES + ("ip", "ic", "chi")


def property_for_code(code: str) -> SetProperty:
    try:
        return _CODE_PROPERTY[code]
    except KeyError:
        raise GraphError(f"unknown set-invariant code {code!r}") from None


def solve(code: str, g: Graph, budget: int = DEFAULT_NODE_BUDGET,
          time_budget: float = INF) -> InvariantReport:
    """The report of ``code``, one of ``INVARIANT_CODES``, on ``g``: a
    :func:`max_set`, a cover or the colouring search, under a node ``budget``
    and a ``time_budget`` in seconds.  The others are looked up per call, so
    a function put in place of one of this module's solvers sees every call."""
    others = {"ip": isometric_path_cover, "ic": isometric_cycle_cover, "chi": chromatic_number}
    if code in others:
        return others[code](g, budget=budget, time_budget=time_budget)
    return max_set(property_for_code(code), g, budget=budget, time_budget=time_budget)


@dataclass
class InvariantReport:
    """Outcome of one invariant computation.

    ``witness`` is a vertex mask for set invariants, a list of vertex
    sequences for covers, and a list of color classes for the chromatic
    number.  ``exact`` is False when a node/time budget ran out, in which
    case ``value`` is a certified bound (lower for max problems, upper for
    covers and the chromatic number).  ``coverable`` only matters for cycle
    covers; a cycle cover cut before its cycles cover V has no witness and
    stays ``coverable``.
    """

    invariant: str
    value: int
    witness: object = None
    exact: bool = True
    nodes_explored: int = 0
    elapsed: float = 0.0
    coverable: bool = True

    def witness_vertices(self) -> Optional[list]:
        if self.witness is None:
            return None
        if isinstance(self.witness, int):
            return mask_to_sorted_list(self.witness)
        return [list(w) for w in self.witness]

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "value": self.value,
            "witness": self.witness_vertices(),
            "exact": self.exact,
            "nodes_explored": self.nodes_explored,
            "elapsed": self.elapsed,
            "coverable": self.coverable,
        }


class BudgetExhausted(Exception):
    """Internal signal: a node budget or a deadline ran out mid-search."""


class _Search:
    """The two stopping rules of every search: at most ``budget`` nodes, and
    no node once the clock reads past ``deadline`` (a
    :func:`time.perf_counter` reading).  With a finite deadline the clock is
    read at every node, so only the work of one node runs past it.
    ``nodes`` counts only the nodes both rules let run, never the one refused.
    ``exact`` is False when either rule stopped the search.
    """

    def __init__(self, budget: int, deadline: float):
        self.budget = budget
        self.deadline = deadline
        self.nodes = 0
        self.exact = False

    def _node(self) -> None:
        if self.nodes >= self.budget or self.deadline < INF and time.perf_counter() > self.deadline:
            raise BudgetExhausted
        self.nodes += 1

    def _run(self, *args) -> None:
        try:
            self._extend(*args)
            self.exact = True
        except BudgetExhausted:
            pass


def _connected_table(g: Graph, search: str) -> tuple[float, DistanceTable]:
    """The clock at the start of a ``search`` on ``g``, and ``g``'s shared
    table; a graph whose vertex 0 does not reach every vertex in its BFS
    layers raises, before any distance row is filled."""
    start = time.perf_counter()
    t = shared_distances(g)
    if not t.connected:
        raise GraphError(f"{search} requires a connected graph")
    return start, t


# ---------------------------------------------------------------------------
# Incremental feasibility checkers


class _Checker:
    """The set under construction, with an undo stack for the search.

    ``blocked`` holds the vertices that can no longer join the set: those on
    one geodesic with two members (GP) and, for the independent variants, the
    members' neighbours.

    A subclass's :meth:`survivors` is its property's only feasibility test.
    On the empty set it returns, in order, the candidates that form a
    one-vertex set.  After ``w`` joins, it takes candidates that could each
    join the set as it was before ``w`` and returns, in order, those that can
    still join it; every property is hereditary, so it tests only what ``w``
    can break.  It may stop early, with fewer than ``need`` of them, once
    fewer than ``need`` can remain.  Having passed that check, a candidate
    joins through :meth:`add`, which does not test again.  :meth:`holds`
    tests a whole set at once with the subclass's ``sees``; it is exact on
    any mask, and the search calls it only where every candidate left must
    join the set to beat the best.

    :meth:`bounds` caps, for each suffix of a candidate list, how many of its
    candidates can join the set together, from the :meth:`conflicts` a
    subclass names.  The search prunes with it, so two candidates that some
    superset of the set holds together must never conflict.
    """

    total = False  # TMV and ITMV: every pair of G, not only the members, must see

    def __init__(self, g: Graph, t: DistanceTable, independent: bool = False):
        self.g = g
        self.t = t
        self.adj = g.adj
        self.independent = independent
        self.members: list[int] = []
        self.mask = 0
        self.blocked = 0
        self._stack: list[int] = []

    def _push(self, w: int, newly_blocked: VertexMask) -> None:
        self._stack.append(self.blocked)
        if self.independent:
            newly_blocked |= self.adj[w]
        self.blocked |= newly_blocked
        self.members.append(w)
        self.mask |= 1 << w

    def pop(self) -> None:
        w = self.members.pop()
        self.mask &= ~(1 << w)
        self.blocked = self._stack.pop()

    def add(self, w: int) -> None:
        self._push(w, 0)

    def holds(self, mask: VertexMask) -> bool:
        """True iff ``mask`` is a set: no edge inside it (IGP, IMV, ITMV),
        and every pair of members (of G, for TMV and ITMV) with a member
        between its ends passes :meth:`sees` around it.  Exact on any mask."""
        adj, btw, sees = self.adj, self.t.between, self.sees
        members = list(iter_bits(mask))
        if self.independent and any(adj[u] & mask for u in members):
            return False
        ends = range(self.g.n) if self.total else members
        for u, v in itertools.combinations(ends, 2):
            if btw[u][v] & mask and not sees(u, v, mask):
                return False
        return True

    def conflicts(self, cands: Sequence[int]) -> Optional[dict[int, VertexMask]]:
        """Each candidate's conflicts: the candidates no superset of the set
        holds together with it.  None here, where none are known."""
        return None

    def bounds(self, cands: Sequence[int], need: int = 0) -> Sequence[int]:
        """For each j, at most how many of ``cands[j:]`` can still join the
        set together: the cliques of pairwise :meth:`conflicts` in a greedy
        partition of the suffix, built from the last candidate back, since
        each clique adds at most one (the colouring bound of max-clique
        solvers); ``common`` holds each clique's shared conflicts.  It is
        ``len(cands) - j`` with no conflicts, on the empty set, and when
        ``cands`` holds no more than ``need``, the number that must join to
        beat the best; a smaller count would then spare at most the one
        whole-set test of all of them."""
        conflicts = self.members and len(cands) > need and self.conflicts(cands)
        if not conflicts:
            return range(len(cands), 0, -1)
        common: list[int] = []
        counts = [0] * len(cands)
        for j in range(len(cands) - 1, -1, -1):
            x = cands[j]
            for i, c in enumerate(common):
                if c >> x & 1:
                    common[i] = c & conflicts[x]
                    break
            else:
                common.append(conflicts[x])
            counts[j] = len(common)
        return counts


class _GpChecker(_Checker):
    """GP and IGP read the collinearity table ``t.line`` (see
    :class:`DistanceTable`), built once per table and shared by both: a set
    is in general position exactly when no member is on the line of two others.
    """

    @staticmethod
    def sees(u: int, v: int, forbidden: VertexMask) -> bool:
        # A member between u and v is on their line.
        return False

    def add(self, w: int) -> None:
        line_w = self.t.line[w]
        newly_blocked = 0
        for y in self.members:
            newly_blocked |= line_w[y]
        self._push(w, newly_blocked)

    def survivors(self, cands: Sequence[int], need: int = 0) -> list[int]:
        # Every line through two members is in ``blocked``, and so, for IGP,
        # is every member's neighbourhood.
        blocked = self.blocked
        return [x for x in cands if not blocked >> x & 1]

    def conflicts(self, cands: Sequence[int]) -> dict[int, VertexMask]:
        # x and y conflict when a member m has x on the line of m and y (or,
        # for IGP, x and y are adjacent).
        line, adj, independent = self.t.line, self.adj, self.independent
        out = {}
        for x in cands:
            line_x = line[x]
            conflicts = adj[x] if independent else 0
            for m in self.members:
                conflicts |= line_x[m]
            out[x] = conflicts
        return out


class _MvChecker(_Checker):
    """MV and IMV test pairs with ``sees``, :func:`avoidance_test` bound once.

    After ``w`` joins, a candidate x that passed with the set before ``w``
    is rechecked on three kinds of pair: x and a member with w between
    them; x and w; and each watched pair (w and a member, or two members
    with w between) with x between its ends.  The recheck stops once fewer
    than ``need`` can remain.  Every u,v-geodesic meets each layer of the
    u,v geodesic DAG in one vertex, so two candidates conflict when a layer
    of a member's DAG with one of them is, outside the set, the other
    alone; when a layer of their own DAG lies inside the set; or, for IMV,
    when they are adjacent.
    """

    def __init__(self, g: Graph, t: DistanceTable, independent: bool):
        super().__init__(g, t, independent)
        self.sees = avoidance_test(t, g)

    def conflicts(self, cands: Sequence[int]) -> dict[int, VertexMask]:
        d, layers, btw = self.t.d, self.t.layers, self.t.between
        mask, free = self.mask, ~self.mask
        out = ({x: self.adj[x] for x in cands} if self.independent
               else dict.fromkeys(cands, 0))
        for m in self.members:
            lm, dm = layers[m], d[m]
            for y in cands:
                ly, dmy = layers[y], dm[y]
                for k in range(1, dmy):
                    rest = lm[k] & ly[dmy - k] & free
                    if not rest & (rest - 1):  # one vertex, as y can join
                        x = rest.bit_length() - 1
                        if x in out:
                            out[x] |= 1 << y
                            out[y] |= rest
        for x, y in itertools.combinations(cands, 2):
            if btw[x][y] & mask:
                lx, ly, dxy = layers[x], layers[y], d[x][y]
                for k in range(1, dxy):
                    if not lx[k] & ly[dxy - k] & free:
                        out[x] |= 1 << y
                        out[y] |= 1 << x
                        break
        return out

    def survivors(self, cands: Sequence[int], need: int = 0) -> list[int]:
        if not self.members:
            return list(cands)
        *members, w = self.members
        sees, btw = self.sees, self.t.between
        mask, blocked = self.mask, self.blocked
        watch = [(w, y) for y in members if btw[w][y]]
        watch += [(y, z) for y, z in itertools.combinations(members, 2) if btw[y][z] >> w & 1]
        watched = 0
        for u, v in watch:
            watched |= btw[u][v]
        out = []
        spare = len(cands) - need
        for x in cands:
            if not blocked >> x & 1:
                btw_x = btw[x]
                forbidden = mask | 1 << x
                for y in members:
                    if btw_x[y] >> w & 1 and not sees(x, y, forbidden):
                        break
                else:
                    if not btw_x[w] & mask or sees(x, w, forbidden):
                        for u, v in watch if watched >> x & 1 else ():
                            if btw[u][v] >> x & 1 and not sees(u, v, forbidden):
                                break
                        else:
                            out.append(x)
                            continue
            spare -= 1
            if spare < 0:
                break
        return out


class _TmvChecker(_Checker):
    total = True

    def __init__(self, g: Graph, t: DistanceTable, independent: bool):
        super().__init__(g, t, independent)
        self.sees = avoidance_test(t, g)
        n = g.n
        self.pairs_through: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                for w in iter_bits(t.between[u][v]):
                    self.pairs_through[w].append((u, v))

    def survivors(self, cands: Sequence[int], need: int = 0) -> list[int]:
        # Every pair of G must see each other around the set.  x already
        # passed with the set before w, so a pair needs a new geodesic only
        # when both w and x lie between its ends.
        sees = self.sees
        if not self.members:
            return [x for x in cands
                    if all(sees(u, v, 1 << x) for u, v in self.pairs_through[x])]
        btw, mask = self.t.between, self.mask
        live = mask_of(cands) & ~self.blocked
        for u, v in self.pairs_through[self.members[-1]]:
            for x in iter_bits(btw[u][v] & live):
                if not sees(u, v, mask | 1 << x):
                    live &= ~(1 << x)
        return [x for x in cands if live >> x & 1]


def _make_checker(prop: SetProperty, g: Graph, t: DistanceTable) -> _Checker:
    if prop in (SetProperty.GP, SetProperty.IGP):
        return _GpChecker(g, t, prop is SetProperty.IGP)
    if prop in (SetProperty.MV, SetProperty.IMV):
        return _MvChecker(g, t, prop is SetProperty.IMV)
    if prop in (SetProperty.TMV, SetProperty.ITMV):
        return _TmvChecker(g, t, prop is SetProperty.ITMV)
    raise ValueError(f"unknown property {prop!r}")


# ---------------------------------------------------------------------------
# Exact maximum-set search


class _MaxSetSearch(_Search):
    """Depth-first branch and bound over candidate lists, include before skip.

    Its root candidates are the vertices, in order ``0..n-1``, that form a
    one-vertex set.  The search seeds itself with the greedy set over them
    in reverse order: the last of them, then the last survivor after each
    join.  The clock is read after each join, and once it reads past
    ``deadline`` the seed keeps the set it has (every prefix of a greedy set
    is a set) and the search is skipped, with no node explored.  The seed is
    the witness, and the search must beat one below its size, so it still
    meets the first set of the seed's size and replaces the seed with it.
    The one exception is a seed of the whole root, the only set of its
    size, which the search must beat outright.  A node is one candidate
    branched on, or one whole-set test of the candidates left: where only
    the set with all of them can beat the best, :meth:`_Checker.holds`
    decides it, and include before skip would meet that set first.  After
    a vertex joins, :meth:`_Checker.survivors` returns the later candidates
    that can still join: the property is hereditary, so a vertex that
    cannot join at a node cannot join anywhere below it.  That forward
    check makes at most one test per candidate per node, none of them
    counted as nodes, and it stops once too few candidates are left to beat
    the best.  A node's subtree is pruned when its size plus
    :meth:`_Checker.bounds` of its candidates cannot beat the best.  For GP,
    IGP, MV and IMV that bound is a partition of the candidates into cliques
    of pairwise conflicts, each of which can add at most one vertex: a
    member's line through both (GP); a layer of a member's geodesic DAG
    with one of them that, outside the set, is the other alone, or a layer
    of their own geodesic DAG inside the set (MV); an edge (IGP, IMV).  The
    partition, with each conflict's member or pair and layer, is the bound's
    justification.

    Dropping only vertices and subtrees that hold no larger set, the search
    meets its improvements in the same order as a plain include-before-skip
    enumeration of ``0..n-1``, which visits the sets of each size in
    lexicographic order.  So the witness of a finished search is the
    lexicographically smallest maximum set: the first one met, or a seed of
    the whole root.  ``best`` may sit one below the size of ``witness``, so
    readers take the witness's size.
    """

    def __init__(self, checker: _Checker, budget: int, deadline: float):
        super().__init__(budget, deadline)
        self.checker = checker
        root = checker.survivors(range(checker.g.n))
        cands = root[::-1]
        cut = False
        while cands and not cut:
            checker.add(cands[0])
            cands = checker.survivors(cands[1:])
            cut = time.perf_counter() > deadline
        self.witness = checker.mask
        # One below the seed, so the search still meets the first set of the
        # seed's size; only the whole root is a set of the root's size.
        self.best = len(checker.members) - (len(checker.members) < len(root))
        while checker.members:  # the search starts from the empty set
            checker.pop()
        if not cut:
            self._run(root, 0)

    def _extend(self, cands: list[int], size: int) -> None:
        # Every candidate has passed the forward check, so it joins as it is.
        checker = self.checker
        bounds = checker.bounds(cands, self.best + 1 - size)
        for j, w in enumerate(cands):
            if size + bounds[j] <= self.best:
                return
            self._node()
            if size + len(cands) - j == self.best + 1:
                # Only the set with every candidate left can beat the best.
                whole = checker.mask | mask_of(cands[j:])
                if checker.holds(whole):
                    self.best, self.witness = self.best + 1, whole
                return
            checker.add(w)
            if size + 1 > self.best:
                self.best = size + 1
                self.witness = checker.mask
            rest = checker.survivors(cands[j + 1:], self.best - size)
            if size + 1 + len(rest) > self.best:
                self._extend(rest, size + 1)
            checker.pop()


def max_set(prop: SetProperty, g: Graph, budget: int = DEFAULT_NODE_BUDGET,
            time_budget: float = INF) -> InvariantReport:
    """Maximum-cardinality set with the given hereditary property.

    One branch and bound with forward checking (:class:`_MaxSetSearch`),
    its candidates taken in order ``0..n-1``, so an exact witness is the
    lexicographically smallest maximum set.  The root's candidates are
    pre-filtered to the vertices that form a one-vertex set, which every
    vertex does for GP and MV.  ``nodes_explored`` counts the candidates
    branched on, each that joins also paying for at most one forward-check
    test per later candidate, and the whole-set tests, one where only the
    set with every candidate left can beat the best.  The search stops
    after ``budget`` nodes or once the clock reads ``time_budget`` seconds
    past the call's start.  A stopped search returns the largest set it
    found, at least a prefix of the reverse-order greedy seed, with
    ``exact=False``; that value is still a certified lower bound.  Every
    witness is checked before it is returned, by a check that raises rather
    than asserts, so it still runs under ``python -O``.
    """
    start, t = _connected_table(g, "maximum-set search")
    search = _MaxSetSearch(_make_checker(prop, g, t), budget, start + time_budget)
    if not check_property(prop, g, t, search.witness):
        raise RuntimeError(f"{_PROPERTY_CODE[prop]} witness failed the {prop.value} certification")
    return InvariantReport(invariant=_PROPERTY_CODE[prop], value=search.witness.bit_count(),
                           witness=search.witness, exact=search.exact,
                           nodes_explored=search.nodes, elapsed=time.perf_counter() - start)


def max_set_heuristic(prop: SetProperty, g: Graph, time_budget: float = 1.0) -> InvariantReport:
    """:func:`max_set` stopped at a wall-clock deadline ``time_budget``
    seconds after its start: an anytime lower bound.

    A run that finishes before it reports ``exact=True`` with the same value,
    witness and node count as :func:`max_set`.  A run cut by the deadline
    returns the largest set found, a certified lower bound, with
    ``exact=False``; what it finds depends on the machine's speed.  A run
    can still overrun ``time_budget`` by the distance table, a started
    forward check or whole-set test, the set-up of the TMV and ITMV
    checker, or the final certificate.
    """
    return max_set(prop, g, time_budget=time_budget)


# ---------------------------------------------------------------------------
# Isometric path / cycle covers

# A part a cover may take: its vertex mask and a vertex sequence on it.
Part = tuple[VertexMask, tuple[int, ...]]


def _enumerate_geodesics(g: Graph, t: DistanceTable, tick: Callable[[], None]) -> Iterator[Part]:
    """Every inclusion-maximal geodesic vertex set, with one geodesic on it.

    A geodesic's vertex set lies inside another's exactly when one of its
    ends has a neighbour one step further from the other end.  So only the
    pairs u <= v with no such neighbour are walked: each of their geodesics
    is maximal, and no two share a vertex set.  K_1's pair (0, 0) gives its
    one vertex.  ``tick`` is called at each step of the walk.
    """
    for u in range(g.n):
        lu = t.layers[u]
        for v in range(u, g.n):
            duv = t.d[u][v]
            lv = t.layers[v]
            if (duv + 1 < len(lv) and g.adj[u] & lv[duv + 1]
                    or duv + 1 < len(lu) and g.adj[v] & lu[duv + 1]):
                continue
            stack = [(u, (u,))]
            while stack:
                tick()
                x, seq = stack.pop()
                if x == v:
                    yield mask_of(seq), seq
                    continue
                # y extends the path to hop k = len(seq) of the u,v-geodesic DAG.
                k = len(seq)
                for y in iter_bits(g.adj[x] & lu[k] & lv[duv - k]):
                    stack.append((y, seq + (y,)))


class _SetCoverSearch(_Search):
    """Branch and bound for the fewest ``masks`` covering ``universe``.

    :meth:`search` seeds it with the greedy cover, which it must then beat
    unless the enumeration of the parts was ``cut``.  A node is one
    branching on a still uncovered vertex, or one step of that enumeration
    (see :func:`_min_cover`).  When the search stops early, ``best`` is the
    smallest cover found, an upper bound.
    """

    def search(self, universe: int, masks: list[int], cut: bool) -> None:
        self.masks = masks
        self.best = self._greedy(universe)
        if not cut:
            # holders[v]: the indices of the parts that hold v, in ``masks`` order.
            self.holders: list[list[int]] = [[] for _ in range(universe.bit_length())]
            for i, m in enumerate(masks):
                for v in iter_bits(m):
                    self.holders[v].append(i)
            self._run(universe, [])

    def _greedy(self, uncovered: int) -> list[int]:
        chosen = []
        while uncovered:
            pick = max(range(len(self.masks)),
                       key=lambda i: (self.masks[i] & uncovered).bit_count())
            chosen.append(pick)
            uncovered &= ~self.masks[pick]
        return chosen

    def _extend(self, uncovered: int, chosen: list[int]) -> None:
        if not uncovered:
            if len(chosen) < len(self.best):
                self.best = chosen[:]
            return
        self._node()
        max_gain = max((m & uncovered).bit_count() for m in self.masks)
        lb = -(-uncovered.bit_count() // max_gain)
        if len(chosen) + lb >= len(self.best):
            return
        # Branch on the uncovered vertex with fewest covering sets.
        pivot_sets = min((self.holders[v] for v in iter_bits(uncovered)), key=len)
        for i in sorted(pivot_sets, key=lambda i: -(self.masks[i] & uncovered).bit_count()):
            chosen.append(i)
            self._extend(uncovered & ~self.masks[i], chosen)
            chosen.pop()


def _min_cover(invariant: str, g: Graph, t: DistanceTable,
               parts: Callable[[Graph, DistanceTable, Callable[[], None]], Iterator[Part]],
               start: float, budget: int, time_budget: float) -> InvariantReport:
    """Fewest of the parts ``parts(g, t, tick)`` yields that cover every vertex.

    No part lies inside another (geodesics are maximal, isometric cycles
    induced), so the search takes them all.  ``tick`` counts each step of
    the enumeration as a search node.  A cut enumeration leaves the greedy
    cover of the parts found, with every single vertex added for ip.  A cut
    ic whose cycles miss a vertex has no witness; a finished one flags the
    instance as not coverable.  The cover is certified by
    :func:`_certify_cover`, and is an upper bound with ``exact=False`` when
    cut.
    """
    cover = _SetCoverSearch(budget, start + time_budget)
    sets: dict[VertexMask, tuple] = {}
    cut = False
    try:
        for mask, seq in parts(g, t, cover._node):
            sets[mask] = seq
    except BudgetExhausted:
        cut = True
        if invariant == "ip":  # a single vertex is a geodesic
            sets.update((1 << v, (v,)) for v in range(g.n))
    # Largest first.  This exact expression fixes the order of ties, and so every
    # witness and node count; ``set(sets)`` sizes its hash table differently.
    masks = sorted(set(list(sets)), key=lambda m: -m.bit_count())
    covered = 0
    for m in masks:
        covered |= m
    if covered != g.vertex_mask():
        return InvariantReport(invariant, 0, exact=not cut, nodes_explored=cover.nodes,
                               coverable=cut, elapsed=time.perf_counter() - start)
    cover.search(g.vertex_mask(), masks, cut)
    witness = [sets[masks[i]] for i in cover.best]
    report = InvariantReport(invariant=invariant, value=len(witness), witness=witness,
                             exact=cover.exact, nodes_explored=cover.nodes,
                             elapsed=time.perf_counter() - start)
    return _certify_cover(report, g, t)


def _is_geodesic(g: Graph, t: DistanceTable, seq: Sequence[int]) -> bool:
    # A walk as long as the distance between its ends has distinct vertices.
    return (len(seq) > 0 and t.d[seq[0]][seq[-1]] == len(seq) - 1
            and all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])))


def _is_isometric_cycle(g: Graph, t: DistanceTable, cycle: Sequence[int]) -> bool:
    # Distance 1 between cyclic neighbours and >= 1 elsewhere: a simple cycle.
    k = len(cycle)
    return k >= 3 and all(t.d[cycle[i]][cycle[j]] == min(j - i, k - j + i)
                          for i, j in itertools.combinations(range(k), 2))


_COVER_PART = {"ip": _is_geodesic, "ic": _is_isometric_cycle}


def _certify_cover(report: InvariantReport, g: Graph, t: DistanceTable) -> InvariantReport:
    """Return ``report`` once its witness is checked: ``value`` parts that
    cover V, each a geodesic (ip) or an isometric cycle (ic).  The check
    raises rather than asserts, so it still runs under ``python -O``.
    """
    part_ok = _COVER_PART[report.invariant]
    covered = 0
    for part in report.witness:
        if not part_ok(g, t, part):
            raise RuntimeError(f"{report.invariant} witness part {list(part)} failed certification")
        covered |= mask_of(part)
    if covered != g.vertex_mask() or report.value != len(report.witness):
        raise RuntimeError(f"{report.invariant} witness is no cover of V by {report.value} parts")
    return report


def isometric_path_cover(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                         time_budget: float = INF) -> InvariantReport:
    """Fewest geodesics covering all vertices: a set cover over the maximal ones."""
    start, t = _connected_table(g, "path cover")
    return _min_cover("ip", g, t, _enumerate_geodesics, start, budget, time_budget)


def _enumerate_isometric_cycles(g: Graph, t: DistanceTable,
                                tick: Callable[[], None]) -> Iterator[Part]:
    """All isometric cycles, each with one vertex sequence around it.

    Cycles are enumerated with the smallest vertex first and orientation
    fixed by second < last, so each cycle appears once.  An isometric cycle
    has no chord, so a path never takes a vertex next to one of its inner
    vertices, and stops growing once its last vertex neighbours the first.
    ``tick`` is called at each step of the walk.
    """
    for s in range(g.n):
        allowed = g.vertex_mask() & ~((1 << (s + 1)) - 1)
        stack = [((s,), 1 << s)]
        while stack:
            tick()
            path, mask = stack.pop()
            last = path[-1]
            closed = len(path) >= 3 and g.adj[last] >> s & 1
            inner = mask & ~(1 << s | 1 << last)
            for y in iter_bits(0 if closed else g.adj[last] & allowed & ~mask):
                if not g.adj[y] & inner:
                    stack.append((path + (y,), mask | (1 << y)))
            if closed and path[1] < path[-1] and _is_isometric_cycle(g, t, path):
                yield mask, path


def isometric_cycle_cover(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                          time_budget: float = INF) -> InvariantReport:
    """Minimum number of isometric cycles covering all vertices.

    If some vertex lies on no isometric cycle the instance is not
    coverable; the report flags that instead of inventing a value.
    """
    start, t = _connected_table(g, "cycle cover")
    return _min_cover("ic", g, t, _enumerate_isometric_cycles, start, budget, time_budget)


# ---------------------------------------------------------------------------
# Chromatic number


class _ColourSearch(_Search):
    """DSATUR branch and bound (Brelaz, *CACM* 1979; San Segundo, *Computers
    & OR* 2012).  A node gives one colour to the uncoloured vertex with the
    most distinct colours among its neighbours, ties to the most uncoloured
    neighbours, then the lowest index.  Each colour it can take is tried in
    order, a new one last, while the colouring uses fewer than ``best``.
    ``best`` starts as one class per vertex, so the first descent is greedy
    DSATUR and a stopped search still holds a proper colouring.
    """

    def __init__(self, g: Graph, budget: int, deadline: float):
        super().__init__(budget, deadline)
        self.adj = g.adj
        self.classes = [0] * g.n  # the first ``used`` are the colour classes
        self.best = [1 << v for v in range(g.n)]
        self._run(g.vertex_mask(), 0)

    def _extend(self, uncoloured: VertexMask, used: int) -> None:
        adj, classes = self.adj, self.classes
        if not uncoloured:
            self.best = classes[:used]
            return
        v = max(iter_bits(uncoloured), key=lambda u: (
            sum(1 for m in classes[:used] if adj[u] & m), (adj[u] & uncoloured).bit_count(), -u))
        for c in range(used + 1):
            # A child may have lowered ``best``, so it is read at every colour.
            if max(c + 1, used) >= len(self.best):
                return
            if not adj[v] & classes[c]:
                self._node()
                classes[c] |= 1 << v
                self._extend(uncoloured & ~(1 << v), max(c + 1, used))
                classes[c] &= ~(1 << v)


def _certify_colouring(report: InvariantReport, g: Graph) -> InvariantReport:
    """Return ``report`` once its witness is checked: ``value`` non-empty
    independent classes that partition V.  The check raises rather than
    asserts, so it still runs under ``python -O``."""
    coloured = 0
    for cls in report.witness:
        mask = mask_of(cls)
        if not cls or mask & coloured or any(g.adj[v] & mask for v in cls):
            raise RuntimeError(f"chi witness class {list(cls)} failed certification")
        coloured |= mask
    if coloured != g.vertex_mask() or report.value != len(report.witness):
        raise RuntimeError(f"chi witness is no colouring of V by {report.value} classes")
    return report


def chromatic_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                     time_budget: float = INF) -> InvariantReport:
    """Exact chromatic number by :class:`_ColourSearch`; the witness lists
    the colour classes, each in vertex order.  A stopped search returns the
    fewest colours it found, an upper bound, with ``exact=False``."""
    start = time.perf_counter()
    search = _ColourSearch(g, budget, start + time_budget)
    witness = [tuple(iter_bits(m)) for m in search.best]
    return _certify_colouring(InvariantReport("chi", len(witness), witness, search.exact,
                                              search.nodes, time.perf_counter() - start), g)
