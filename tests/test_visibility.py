import random

import pytest

from shadowpos.families import enumerate_connected
from shadowpos.graph_core import distances, mask_of
from shadowpos.shadow import shadow
from shadowpos.visibility import SetProperty, check, is_independent

from conftest import random_connected_graph
from oracles import NaiveOracle

_ORACLE_CODE = {
    SetProperty.GP: "gp", SetProperty.IGP: "igp", SetProperty.MV: "mu",
    SetProperty.IMV: "mui", SetProperty.TMV: "mut", SetProperty.ITMV: "muit",
}


def test_predicates_agree_with_path_enumeration_exhaustively():
    # Every subset of every connected graph up to n = 4, all six properties.
    for g in enumerate_connected(4):
        t = distances(g)
        oracle = NaiveOracle(g)
        for mask in range(1 << g.n):
            s = {v for v in range(g.n) if mask >> v & 1}
            for prop, code in _ORACLE_CODE.items():
                assert check(prop, g, t, mask) == oracle.check(code, s), \
                    (g.edges(), s, prop)


def test_predicates_agree_on_random_graphs():
    rng = random.Random(77)
    for _ in range(15):
        g = random_connected_graph(rng.randint(5, 7), rng)
        t = distances(g)
        oracle = NaiveOracle(g)
        for _ in range(100):
            mask = rng.getrandbits(g.n)
            s = {v for v in range(g.n) if mask >> v & 1}
            for prop, code in _ORACLE_CODE.items():
                assert check(prop, g, t, mask) == oracle.check(code, s)


def test_predicates_on_a_shadow_graph():
    rng = random.Random(13)
    g = random_connected_graph(5, rng)
    sg = shadow(g).graph
    t = distances(sg)
    oracle = NaiveOracle(sg)
    for _ in range(200):
        mask = rng.getrandbits(sg.n)
        s = {v for v in range(sg.n) if mask >> v & 1}
        for prop, code in _ORACLE_CODE.items():
            assert check(prop, g=sg, t=t, s=mask) == oracle.check(code, s)


def test_small_and_degenerate_sets():
    g = next(iter(enumerate_connected(1)))
    t = distances(g)
    for prop in SetProperty:
        assert check(prop, g, t, 0)
        assert check(prop, g, t, 1)
    with pytest.raises(ValueError):
        check("gp", g, t, 0)


def test_independence_predicate():
    rng = random.Random(1)
    g = random_connected_graph(6, rng)
    assert is_independent(g, 0)
    for u, v in g.edges():
        assert not is_independent(g, mask_of([u, v]))


def test_heredity_spot_check():
    rng = random.Random(42)
    for _ in range(10):
        g = random_connected_graph(rng.randint(4, 7), rng)
        t = distances(g)
        for _ in range(50):
            mask = rng.getrandbits(g.n)
            sub = mask & rng.getrandbits(g.n)
            for prop in SetProperty:
                if check(prop, g, t, mask):
                    assert check(prop, g, t, sub)
