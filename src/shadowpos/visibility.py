"""Decision predicates for position/visibility set properties.

Six properties are covered: general position (GP), mutual visibility (MV),
total mutual visibility (TMV), and their independent variants (IGP, IMV,
ITMV).  All are hereditary: every subset of a satisfying set satisfies the
same property, which is what makes branch-and-bound maximization sound.
"""

from __future__ import annotations

import enum
import itertools

from .graph_core import (
    DistanceTable,
    Graph,
    VertexMask,
    avoidance_test,
    iter_bits,
)


class SetProperty(enum.Enum):
    GP = "gp"
    IGP = "igp"
    MV = "mv"
    IMV = "imv"
    TMV = "tmv"
    ITMV = "itmv"


def is_independent(g: Graph, s: VertexMask) -> bool:
    """True iff no edge of ``g`` has both ends in ``s``."""
    for u in iter_bits(s):
        if g.adj[u] & s:
            return False
    return True


def is_gp_set(t: DistanceTable, s: VertexMask) -> bool:
    """True iff no vertex of ``s`` lies strictly between two others of ``s``.

    Reads the interval masks ``t.between``: no pair of members may have a
    third member strictly inside its interval, so no geodesic carries three.
    """
    members = list(iter_bits(s))
    for u, v in itertools.combinations(members, 2):
        if t.between[u][v] & s:
            return False
    return True


def is_mv_set(g: Graph, t: DistanceTable, s: VertexMask) -> bool:
    """True iff every pair of set members sees each other around ``s``.

    A pair sees each other when some geodesic between them has all internal
    vertices outside ``s``.
    """
    sees = avoidance_test(t, g)
    for u, v in itertools.combinations(list(iter_bits(s)), 2):
        if not sees(u, v, s):
            return False
    return True


def is_total_mv_set(g: Graph, t: DistanceTable, s: VertexMask) -> bool:
    """True iff *every* vertex pair of the graph sees each other around ``s``."""
    sees = avoidance_test(t, g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not sees(u, v, s):
                return False
    return True


def check(prop: SetProperty, g: Graph, t: DistanceTable, s: VertexMask) -> bool:
    """Dispatch: evaluate ``prop`` on the subset ``s``."""
    if prop is SetProperty.GP:
        return is_gp_set(t, s)
    if prop is SetProperty.IGP:
        return is_independent(g, s) and is_gp_set(t, s)
    if prop is SetProperty.MV:
        return is_mv_set(g, t, s)
    if prop is SetProperty.IMV:
        return is_independent(g, s) and is_mv_set(g, t, s)
    if prop is SetProperty.TMV:
        return is_total_mv_set(g, t, s)
    if prop is SetProperty.ITMV:
        return is_independent(g, s) and is_total_mv_set(g, t, s)
    raise ValueError(f"unknown property {prop!r}")
