"""Acceptance gate: one test per stated criterion, integer-exact throughout.

Each test prints a single PASS/FAIL line for its criterion.  Four stated
closed forms and bounds are false on small instances: the multipartite
formula (06), the join formula (07), and the leaf bound and the sandwich
upper bound (09).  Those tests assert each statement wherever it holds and
pin every deviation to its documented structure: each predicted deviation
must occur, no other may appear, and every deviating value and witness is
confirmed by independent subset enumeration (tests/oracles.py).
``shadowpos verify`` still replays the statements as stated and reports
these instances as FAIL with exit status 1.
"""

import random
import time

from shadowpos.families import (
    FamilySpec,
    canonical_key,
    enumerate_connected,
    generate,
    random_tree,
)
from shadowpos.formats import graph_to_graph6
from shadowpos.graph_core import distances, structural_queries
from shadowpos.shadow import gp_partition_violations, shadow, shadow_distance_violations, star_shadow
from shadowpos.solvers import (
    chromatic_number,
    isometric_cycle_cover,
    isometric_path_cover,
    max_set,
    max_set_heuristic,
    property_for_code,
)
from shadowpos.verify import (
    expected_gp_shadow_join,
    expected_mu_shadow_multipartite,
    gp_sandwich_bounds,
    mu_shadow_bounds,
)
from shadowpos.visibility import SetProperty, check as check_property

from conftest import random_connected_graph
from oracles import NaiveOracle

ALL_CODES = ("gp", "igp", "mu", "mui", "mut", "muit")


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}" + (f" | {detail}" if detail else "")
    print(line)
    assert ok, line


def _gp_shadow(g) -> int:
    return max_set(SetProperty.GP, shadow(g).graph).value


def _mu_shadow(g) -> int:
    return max_set(SetProperty.MV, shadow(g).graph).value


def _oracle_confirms(host, code, report) -> bool:
    """Subset enumeration agrees with the solver's value and its witness."""
    oracle = NaiveOracle(host)
    return (oracle.max_set(code) == report.value
            and oracle.check(code, set(report.witness_vertices())))


def test_c01_gp_shadow_complete():
    start = time.perf_counter()
    values = {n: _gp_shadow(generate(FamilySpec("complete", (n,))))
              for n in range(2, 9)}
    bad = [(n, got) for n, got in values.items() if got != n]
    elapsed = time.perf_counter() - start
    _report("C01 gp(S(K_n)) = n, n in [2,8]",
            not bad and elapsed < 5, f"{elapsed:.1f}s {bad}")


def test_c02_gp_shadow_bipartite():
    start = time.perf_counter()
    bad = []
    for n in range(2, 6):
        for m in range(n, 6):
            got = _gp_shadow(generate(FamilySpec("complete_bipartite", (m, n))))
            if got != 2 * m:
                bad.append((m, n, got))
    elapsed = time.perf_counter() - start
    _report("C02 gp(S(K_{m,n})) = 2m, 2 <= n <= m <= 5",
            not bad and elapsed < 30, f"{elapsed:.1f}s {bad}")


def test_c03_gp_shadow_cycles():
    start = time.perf_counter()
    bad = []
    for n in range(3, 11):
        want = n if n <= 7 else 6
        got = _gp_shadow(generate(FamilySpec("cycle", (n,))))
        if got != want:
            bad.append((n, got, want))
    elapsed = time.perf_counter() - start
    _report("C03 gp(S(C_n)) piecewise, n in [3,10]",
            not bad and elapsed < 60, f"{elapsed:.1f}s {bad}")


def test_c04_mu_shadow_cycles():
    start = time.perf_counter()
    bad = []
    for n in range(3, 10):
        want = 6 if n == 4 else (n + 1 if n in (3, 5, 6) else n)
        got = _mu_shadow(generate(FamilySpec("cycle", (n,))))
        if got != want:
            bad.append((n, got, want))
    elapsed = time.perf_counter() - start
    _report("C04 mu(S(C_n)) piecewise, n in [3,9]",
            not bad and elapsed < 180, f"{elapsed:.1f}s {bad}")


def test_c05_tree_formulas():
    start = time.perf_counter()
    rng = random.Random(2026)
    bad = []
    for i in range(50):
        n = rng.randint(2, 9)
        t = random_tree(n, seed=1000 + i)
        s = structural_queries(t)
        if s.diameter >= 2:
            got = _gp_shadow(t)
            if got != 2 * s.leaf_count:
                bad.append(("gp", i, got, 2 * s.leaf_count))
        if s.diameter >= 3:
            got = _mu_shadow(t)
            if got != t.n + s.leaf_count:
                bad.append(("mu", i, got, t.n + s.leaf_count))
    elapsed = time.perf_counter() - start
    _report("C05 tree formulas gp = 2l, mu = n + l on 50 seeded trees, n <= 9",
            not bad and elapsed < 180, f"{elapsed:.1f}s {bad}")


def _part_multisets(total_max, min_part):
    out = []

    def rec(prefix, lo, rem):
        if len(prefix) >= 2:
            out.append(tuple(prefix))
        for s in range(lo, rem + 1):
            rec(prefix + [s], s, rem - s)

    rec([], min_part, total_max)
    return out


def test_c06_mu_shadow_multipartite():
    # The stated 2n-2 holds for two parts; with three or more parts the
    # value is exactly one below it.
    start = time.perf_counter()
    bad, documented, unconfirmed = [], [], []
    for parts in _part_multisets(7, 2):
        n = sum(parts)
        sg = shadow(generate(FamilySpec("complete_multipartite", parts))).graph
        r = max_set(SetProperty.MV, sg)
        want = expected_mu_shadow_multipartite(parts)
        if r.value != want:
            bad.append((parts, r.value, want))
            if not _oracle_confirms(sg, "mu", r):
                unconfirmed.append(parts)
        if len(parts) >= 3:
            documented.append((parts, 2 * n - 3, 2 * n - 2))
    elapsed = time.perf_counter() - start
    _report("C06 mu(S(K_{n_1..n_k})) = 2n-2 for two parts and 2n-3 "
            "(oracle-confirmed) for >= 3 parts, parts >= 2, n <= 7",
            bad == documented and not unconfirmed and elapsed < 120,
            f"{elapsed:.1f}s deviations={bad} documented={documented} "
            f"unconfirmed={unconfirmed}")


def test_c07_gp_shadow_join():
    # The stated n + t_1 - 1 holds when some clique has order two; with
    # t_1 = 0 the value is n.
    start = time.perf_counter()
    bad, documented, unconfirmed = [], [], []
    for orders in _part_multisets(8, 2):  # n = 1 + sum <= 9
        n = 1 + sum(orders)
        sg = shadow(generate(FamilySpec("join_k1_cliques", orders))).graph
        r = max_set(SetProperty.GP, sg)
        want = expected_gp_shadow_join(orders)
        if r.value != want:
            bad.append((orders, r.value, want))
            if not _oracle_confirms(sg, "gp", r):
                unconfirmed.append(orders)
        if orders.count(2) == 0:
            documented.append((orders, n, n - 1))
    elapsed = time.perf_counter() - start
    _report("C07 gp(S(K_1 v cliques)) = n + t_1 - 1 for t_1 >= 1 and n "
            "(oracle-confirmed) for t_1 = 0, orders >= 2, n <= 9",
            bad == documented and not unconfirmed and elapsed < 120,
            f"{elapsed:.1f}s deviations={bad} documented={documented} "
            f"unconfirmed={unconfirmed}")


def test_c08_characterization_fuzz():
    start = time.perf_counter()
    p2 = canonical_key(generate(FamilySpec("path", (2,))))
    p3 = canonical_key(generate(FamilySpec("path", (3,))))
    c3 = canonical_key(generate(FamilySpec("cycle", (3,))))
    bad = []
    for g in enumerate_connected(6):
        if g.n < 2:
            continue  # S(K_1) is disconnected; mu is undefined there
        mu = _mu_shadow(g)
        ck = canonical_key(g)
        if mu in (3, 5) or (mu == 2) != (ck == p2) or (mu == 4) != (ck in (p3, c3)):
            bad.append((graph_to_graph6(g), mu))
    elapsed = time.perf_counter() - start
    _report("C08 mu(S(G)) small-value characterization, all connected n <= 6",
            not bad and elapsed < 300, f"{elapsed:.1f}s {bad}")


def test_c09_bound_fuzz():
    # Two stated bounds fail: the leaf bound exactly on stars, and the
    # sandwich upper bound exactly where it is below n.  K_4..K_6 are
    # listed as upper-bound deviations independently of the bound formula,
    # so a change to that formula cannot empty both sides.
    start = time.perf_counter()
    stars = {canonical_key(generate(FamilySpec("star", (k,))))
             for k in range(2, 6)}
    cliques = {canonical_key(generate(FamilySpec("complete", (k,))))
               for k in range(4, 7)}
    bad, documented, unconfirmed = [], [], []
    for g in enumerate_connected(6):
        if g.n < 2:
            continue
        g6 = graph_to_graph6(g)
        ck = canonical_key(g)
        s = structural_queries(g)
        sg = shadow(g).graph
        gp_r = max_set(SetProperty.GP, sg)
        mu_r = max_set(SetProperty.MV, sg)
        gp_s, mu_s = gp_r.value, mu_r.value
        mu = max_set(SetProperty.MV, g).value
        mui = max_set(SetProperty.IMV, g).value
        igp_r = max_set(SetProperty.IGP, g)
        igp = igp_r.value
        gp = max_set(SetProperty.GP, g).value
        lo, hi = mu_shadow_bounds(g.n, mu, mui, s.max_degree)
        if not lo <= mu_s <= hi:
            bad.append(("mu-sandwich", g6, mu_s, (lo, hi)))
        slo, shi = gp_sandwich_bounds(g.n, igp, s.min_degree)
        if gp_s < slo:
            bad.append(("gp-sandwich-lower", g6, gp_s, slo))
        if gp_s > shi:
            bad.append(("gp-sandwich", g6, gp_s, shi))
            if not (_oracle_confirms(sg, "gp", gp_r)
                    and _oracle_confirms(g, "igp", igp_r)):
                unconfirmed.append(("gp-sandwich", g6))
        if shi < g.n or ck in cliques:
            documented.append(("gp-sandwich", g6))
        if g.n >= 3 and mu_s < g.n + s.leaf_count:
            bad.append(("mu-leaf", g6, mu_s, g.n + s.leaf_count))
            if not _oracle_confirms(sg, "mu", mu_r):
                unconfirmed.append(("mu-leaf", g6))
        if ck in stars:
            documented.append(("mu-leaf", g6))
        if s.is_triangle_free and not s.has_universal_vertex:
            muit = max_set(SetProperty.ITMV, g).value
            if mu_s < g.n + muit:
                bad.append(("mu-muit", g6, mu_s, g.n + muit))
        if s.diameter <= 3 and gp_s < g.n:
            bad.append(("gp-diam3", g6, gp_s, g.n))
        if s.is_regular and s.is_triangle_free and gp_s > g.n:
            bad.append(("gp-regular-tf", g6, gp_s, g.n))
        ip = isometric_path_cover(g)
        if ip.exact and gp > 2 * ip.value:
            bad.append(("gp-2ip", g6, gp, 2 * ip.value))
        ic = isometric_cycle_cover(g)
        if ic.coverable and gp > 3 * ic.value:
            bad.append(("gp-3ic", g6, gp, 3 * ic.value))
    elapsed = time.perf_counter() - start
    found = [b[:2] for b in bad]
    _report("C09 bound fuzz over all connected n <= 6: violations are exactly "
            "mu-leaf on stars and the gp-sandwich upper bound where it is "
            "below n, all oracle-confirmed",
            found == documented and not unconfirmed and elapsed < 300,
            f"{elapsed:.1f}s violations={bad} documented={documented} "
            f"unconfirmed={unconfirmed}")


def test_c10_lemma_clauses():
    start = time.perf_counter()
    bad = []
    for g in enumerate_connected(7):
        if g.n < 2:
            continue
        if shadow_distance_violations(shadow(g)):
            bad.append(("distance", graph_to_graph6(g)))
    for g in enumerate_connected(6):
        if g.n < 2:
            continue
        sg = shadow(g)
        r = max_set(SetProperty.GP, sg.graph)
        if gp_partition_violations(sg, r.witness):
            bad.append(("partition", graph_to_graph6(g)))
    elapsed = time.perf_counter() - start
    _report("C10 distance clauses (n <= 7) and gp-partition clauses (n <= 6)",
            not bad and elapsed < 300, f"{elapsed:.1f}s {bad}")


def test_c11_star_shadow_c5():
    start = time.perf_counter()
    g = star_shadow(generate(FamilySpec("cycle", (5,))))
    chi = chromatic_number(g).value
    tri_free = structural_queries(g).is_triangle_free
    elapsed = time.perf_counter() - start
    _report("C11 chi(star_shadow(C_5)) = 4 and triangle-free",
            chi == 4 and tri_free and elapsed < 1,
            f"{elapsed:.2f}s chi={chi} triangle_free={tri_free}")


def test_c12_balloon():
    start = time.perf_counter()
    g = generate(FamilySpec("balloon", (2,)))
    mut = max_set(SetProperty.TMV, g)
    sg = shadow(g).graph
    heur = max_set_heuristic(SetProperty.MV, sg, time_budget=60.0)
    elapsed = time.perf_counter() - start
    detail = f"{elapsed:.1f}s mu_t={mut.value} heuristic_mv={heur.value}"
    if heur.value < 13:
        detail += " | discrepancy: no witness of size 13 found within 60 s"
    _report("C12 balloon k=2: mu_t = 0 exact, heuristic mv >= 13 in S(G)",
            mut.exact and mut.value == 0 and heur.value >= 13, detail)


def test_c13_oracle_equivalence():
    start = time.perf_counter()
    bad = []
    for g in enumerate_connected(5):
        hosts = [g] + ([shadow(g).graph] if g.n >= 2 else [])
        for h in hosts:
            oracle = NaiveOracle(h)
            for code in ALL_CODES:
                solver = max_set(property_for_code(code), h).value
                naive = oracle.max_set(code)
                if solver != naive:
                    bad.append((graph_to_graph6(h), code, solver, naive))
    elapsed = time.perf_counter() - start
    _report("C13 solver equals naive 2^n enumeration, all connected n <= 5 and shadows",
            not bad and elapsed < 300, f"{elapsed:.1f}s {bad}")


def test_c14_heredity():
    start = time.perf_counter()
    rng = random.Random(99)
    bad = []
    for code in ALL_CODES:
        prop = property_for_code(code)
        g = None
        for i in range(10_000):
            if i % 100 == 0:
                g = random_connected_graph(rng.randint(3, 8), rng)
                t = distances(g)
            mask = rng.getrandbits(g.n)
            sub = mask & rng.getrandbits(g.n)
            if check_property(prop, g, t, mask) and \
                    not check_property(prop, g, t, sub):
                bad.append((code, graph_to_graph6(g), mask, sub))
                break
    elapsed = time.perf_counter() - start
    _report("C14 heredity: 10^4 (set, subset) pairs per property, n <= 8",
            not bad and elapsed < 300, f"{elapsed:.1f}s {bad}")
