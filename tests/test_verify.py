import dataclasses
import os
import subprocess
import sys
from collections import Counter, defaultdict

import pytest

from shadowpos import verify
from shadowpos.families import FamilySpec, generate
from shadowpos.formats import graph6_to_graph, graph_to_graph6
from shadowpos.graph_core import GraphError
from shadowpos.shadow import shadow
from shadowpos.solvers import InvariantReport, max_set
from shadowpos.visibility import SetProperty
from shadowpos.verify import (
    FAIL,
    PASS,
    SKIPPED,
    SUITES,
    SuiteParams,
    expected_gp_shadow_bipartite,
    expected_gp_shadow_complete,
    expected_gp_shadow_cycle,
    expected_gp_shadow_join,
    expected_gp_shadow_tree,
    expected_mu_shadow_cycle,
    expected_mu_shadow_multipartite,
    expected_mu_shadow_tree,
    fuzz,
    gp_sandwich_bounds,
    mu_shadow_bounds,
    run_suite,
    worker_count,
)


def test_closed_forms():
    assert [expected_gp_shadow_cycle(n) for n in range(3, 11)] == \
        [3, 4, 5, 6, 7, 6, 6, 6]
    assert [expected_mu_shadow_cycle(n) for n in range(3, 10)] == \
        [4, 6, 6, 7, 7, 8, 9]
    assert expected_gp_shadow_complete(5) == 5
    assert expected_gp_shadow_bipartite(5, 3) == 10
    assert expected_gp_shadow_join([2, 2, 3]) == 9   # n=8, two order-2 cliques
    assert expected_gp_shadow_join([3, 3]) == 6      # t_1 = 0 case as stated
    assert expected_mu_shadow_multipartite([3, 2]) == 8
    assert expected_gp_shadow_tree(4) == 8
    assert expected_mu_shadow_tree(7, 3) == 10
    assert gp_sandwich_bounds(5, 2, 1) == (4, 7)
    # The stated upper bound goes below n on dense graphs; kept as stated.
    assert gp_sandwich_bounds(4, 1, 3) == (2, 3)
    assert mu_shadow_bounds(5, 3, 2, 2) == (5, 8)


def test_all_suite_ids_present():
    # `verify --suite all` runs and prints the suites in this order.
    assert list(SUITES) == [
        "gp-complete", "gp-bipartite", "gp-diam3", "gp-join", "gp-sandwich",
        "gp-regular-tf", "gp-cycles", "gp-trees", "mu-bounds",
        "mu-multipartite", "mu-leaf", "mu-muit", "mu-trees", "mu-balloon",
        "mu-char", "mu-cycles", "lemma-distance", "lemma-partition",
        "ip-ic-bounds",
    ]
    # Default ranges of the closed-form suites: instance count and the
    # largest sum of family parameters.
    ranges = {sid: [sum(p.source.params) for p in SUITES[sid].make_instances(SuiteParams())]
              for sid in ("gp-complete", "gp-bipartite", "gp-join", "gp-cycles",
                          "mu-multipartite", "mu-cycles", "gp-trees", "mu-trees")}
    assert {sid: (len(s), max(s)) for sid, s in ranges.items()} == {
        "gp-complete": (7, 8), "gp-bipartite": (10, 10), "gp-join": (14, 8),
        "gp-cycles": (8, 10), "mu-multipartite": (14, 8), "mu-cycles": (7, 9),
        "gp-trees": (50, 10), "mu-trees": (50, 9),
    }


def test_unknown_suite_raises():
    with pytest.raises(GraphError):
        run_suite("no-such-suite")


def test_gp_complete_suite_passes():
    rep = run_suite("gp-complete", SuiteParams(n_max=5), workers=1)
    assert rep.failed == 0 and rep.skipped == 0 and rep.passed == 4


def test_budget_exhaustion_reports_skipped():
    rep = run_suite("gp-cycles", SuiteParams(n_max=8, budget=5), workers=1)
    assert rep.skipped > 0
    assert all(r.status in (PASS, SKIPPED) for r in rep.results)


_FUZZ_SUITES = ("gp-diam3", "gp-sandwich", "gp-regular-tf", "mu-bounds", "mu-leaf",
                "mu-muit", "mu-char", "lemma-distance", "lemma-partition", "ip-ic-bounds")


def test_budget_exhaustion_has_one_skipped_shape():
    # A SKIPPED record carries the graph6 that FAIL would: G on a per-graph
    # row, S(G) on a family row.  lemma-distance runs no search, so it has
    # no budget to exhaust.
    assert [sid for sid, s in SUITES.items() if s.per_graph] == list(_FUZZ_SUITES)
    for sid, suite in SUITES.items():
        if sid == "lemma-distance":
            continue
        params = SuiteParams(n_max=5, budget=1)
        replay = {p.key: p.key if suite.per_graph
                  else graph_to_graph6(shadow(generate(p.source)).graph)
                  for p in suite.make_instances(params)}
        skipped = [r for r in run_suite(sid, params, workers=1).results if r.status == SKIPPED]
        assert skipped, sid
        for r in skipped:
            assert r.actual == "budget exhausted" and r.expected == "", (sid, r)
            assert r.graph6 == replay[r.key], (sid, r)


def test_ip_ic_bounds_spends_the_suite_budget_on_the_covers():
    # GP on Fsb~w takes 7 nodes, its ip cover 49 and its ic cover 76, the
    # steps of their enumerations included, so only the ic cover runs out.
    check = SUITES["ip-ic-bounds"].check_instance
    assert check(verify._GraphProfile("Fsb~w", graph6_to_graph("Fsb~w"), 76)).status == PASS
    r = check(verify._GraphProfile("Fsb~w", graph6_to_graph("Fsb~w"), 75))
    assert r.status == SKIPPED and r.actual == "budget exhausted" and r.graph6 == "Fsb~w"


def test_multipartite_suite_documents_three_part_deviation():
    # Two-part instances match the stated formula; instances with >= 3 parts
    # come out exactly one below it (independently brute-force confirmed).
    rep = run_suite("mu-multipartite", SuiteParams(n_max=6), workers=1)
    by_key = {r.key: r for r in rep.results}
    # Every multiset of >= 2 part sizes >= 2 with total order <= 6.
    assert set(by_key) == {"K_[2, 2]", "K_[2, 3]", "K_[2, 4]", "K_[3, 3]",
                           "K_[2, 2, 2]"}
    assert by_key["K_[2, 2]"].status == PASS
    assert by_key["K_[3, 3]"].status == PASS
    bad = by_key["K_[2, 2, 2]"]
    assert bad.status == FAIL
    assert bad.actual == "9" and bad.expected == "10"
    assert bad.graph6 is not None and bad.witness is not None


def test_join_suite_documents_t1_zero_deviation():
    rep = run_suite("gp-join", SuiteParams(n_max=7), workers=1)
    by_key = {r.key: r for r in rep.results}
    # Every multiset of >= 2 clique orders >= 2 with 1 + total order <= 7.
    assert set(by_key) == {"K_1+[2, 2]", "K_1+[2, 3]", "K_1+[2, 4]", "K_1+[3, 3]",
                           "K_1+[2, 2, 2]"}
    assert by_key["K_1+[2, 2]"].status == PASS
    assert by_key["K_1+[2, 4]"].status == PASS
    bad = by_key["K_1+[3, 3]"]
    assert bad.status == FAIL and bad.actual == "7" and bad.expected == "6"


def test_mu_leaf_suite_fails_exactly_on_stars():
    from shadowpos.families import canonical_key, generate, FamilySpec
    from shadowpos.formats import graph6_to_graph
    rep = run_suite("mu-leaf", SuiteParams(n_max=5), workers=1)
    star_keys = {canonical_key(generate(FamilySpec("star", (k,))))
                 for k in (2, 3, 4)}
    fail_keys = {canonical_key(graph6_to_graph(r.graph6))
                 for r in rep.results if r.status == FAIL}
    assert fail_keys == star_keys


def test_sandwich_suite_fails_only_when_stated_bound_dips_below_n():
    from shadowpos.formats import graph6_to_graph
    from shadowpos.graph_core import structural_queries
    from shadowpos.solvers import max_set
    from shadowpos.visibility import SetProperty
    from shadowpos.verify import gp_sandwich_bounds
    rep = run_suite("gp-sandwich", SuiteParams(n_max=5), workers=1)
    failing = [r for r in rep.results if r.status == FAIL]
    assert failing
    for r in failing:
        g = graph6_to_graph(r.graph6)
        igp = max_set(SetProperty.IGP, g).value
        _, hi = gp_sandwich_bounds(g.n, igp, structural_queries(g).min_degree)
        assert hi < g.n  # only the dense regime where the bound is defective


def test_tree_suites_pass():
    p = SuiteParams(n_max=7, tree_count=10, seed=3)
    assert run_suite("gp-trees", p, workers=1).failed == 0
    assert run_suite("mu-trees", p, workers=1).failed == 0


def test_balloon_suite():
    rep = run_suite("mu-balloon", SuiteParams(), workers=1)
    assert rep.failed == 0 and rep.results[0].status == PASS


def test_balloon_suite_honours_the_budget():
    # Enough budget for exact mu_t on balloon(2), too little for mu of its
    # shadow: the instance is SKIPPED, not decided.
    g = generate(FamilySpec("balloon", (2,)))
    budget = max_set(SetProperty.TMV, g).nodes_explored
    [r] = run_suite("mu-balloon", SuiteParams(budget=budget), workers=1).results
    assert r.status == SKIPPED and r.actual == "budget exhausted"
    assert r.graph6 == graph_to_graph6(shadow(g).graph)


def test_parallel_matches_serial():
    serial = run_suite("mu-cycles", SuiteParams(n_max=7), workers=1)
    parallel = run_suite("mu-cycles", SuiteParams(n_max=7), workers=2)
    assert [r.to_dict() for r in serial.results] == \
        [r.to_dict() for r in parallel.results]



@pytest.mark.parametrize("module", ["shadowpos", "shadowpos.cli"])
def test_import_loads_no_process_pool(module):
    # A fresh interpreter: only a run_suite call that starts a pool may pay for it.
    code = (f"import sys, {module}\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(verify.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"

def test_fuzz_driver_yields_records():
    records = list(fuzz(4))
    assert len(records) == 10  # connected graphs up to iso, n <= 4
    for rec in records:
        assert set(rec) == {"graph6", "n", "checks", "violations", "skipped"}
    # Violations at this size: the defective stated bounds only.
    flagged = {sid for rec in records for sid in rec["violations"]}
    assert flagged <= {"gp-sandwich", "mu-leaf"}
    assert "gp-sandwich" in flagged  # K_4 instance


def test_fuzz_records_match_suite_runs():
    records = list(fuzz(5))
    for sid in _FUZZ_SUITES:
        from_fuzz = {rec["graph6"]: rec["checks"][sid] for rec in records if rec["checks"]}
        rep = run_suite(sid, SuiteParams(n_max=5), workers=1)
        assert from_fuzz == {r.key: r.to_dict() for r in rep.results}, sid


def test_fuzz_and_suites_enumerate_once_per_process(monkeypatch):
    # The enumeration is the one thing cached across calls: two fuzz passes
    # and a suite run at the same n_max read one enumeration.
    calls = []
    enumerate_connected = verify.enumerate_connected
    monkeypatch.setattr(verify, "enumerate_connected",
                        lambda n: calls.append(n) or enumerate_connected(n))
    verify._connected_reps.cache_clear()
    first, second = list(fuzz(4)), list(fuzz(4))
    rep = run_suite("mu-bounds", SuiteParams(n_max=4), workers=1)
    assert calls == [4]
    assert first == second
    assert [rec["n"] for rec in first] == [1, 2, 3, 3, 4, 4, 4, 4, 4, 4]
    assert first[0]["checks"] == {}
    assert {r.key: r.to_dict() for r in rep.results} == {
        rec["graph6"]: rec["checks"]["mu-bounds"] for rec in first if rec["n"] >= 2}


def test_fuzz_solves_each_pair_once_per_call(monkeypatch):
    # Every exact read goes through solve(), the covers ip and ic included.
    calls = Counter()
    solve = verify.solve

    def counting(code, g, budget):
        calls[(code, g.adj)] += 1
        return solve(code, g, budget)

    monkeypatch.setattr(verify, "solve", counting)
    list(fuzz(5))
    assert calls and max(calls.values()) == 1
    assert {code for code, _ in calls} == {"gp", "igp", "mu", "mui", "muit", "ip", "ic"}
    first = sum(calls.values())
    calls.clear()
    list(fuzz(5))
    # Nothing is cached across calls: a second pass solves everything again.
    assert sum(calls.values()) == first


def test_fuzz_checks_read_what_their_rows_declare(monkeypatch):
    # Each row's judge gets exactly the exact values the row declares, in
    # fuzz() and in a suite run alike.  fuzz() runs the per-graph rows only.
    seen = {"fuzz": defaultdict(set), "suite": defaultdict(set)}
    now = {}
    exact = verify._GraphProfile.exact

    def recording(self, code, on_shadow=False):
        seen[now["run"]][now["sid"]].add((code, on_shadow))
        return exact(self, code, on_shadow)

    monkeypatch.setattr(verify._GraphProfile, "exact", recording)
    for sid in SUITES:
        def tagged(profile, sid=sid, check=SUITES[sid].check_instance):
            now["sid"] = sid
            return check(profile)

        monkeypatch.setitem(SUITES, sid, dataclasses.replace(SUITES[sid], check_instance=tagged))
    now["run"] = "fuzz"
    list(fuzz(5))
    now["run"] = "suite"
    for sid in SUITES:
        run_suite(sid, SuiteParams(n_max=5), workers=1)
    assert set(seen["fuzz"]) == set(_FUZZ_SUITES) - {"lemma-distance"}
    for run, reads in seen.items():
        for sid in _FUZZ_SUITES if run == "fuzz" else SUITES:
            assert reads[sid] == set(SUITES[sid].reads), (run, sid)
    assert SUITES["lemma-distance"].reads == ()
    assert SUITES["mu-bounds"].reads == (("mu", False), ("mui", False), ("mu", True))
    assert SUITES["ip-ic-bounds"].reads == (("gp", False), ("ip", False), ("ic", False))
    closed_forms = {"gp-complete": "gp", "gp-bipartite": "gp", "gp-join": "gp",
                    "gp-cycles": "gp", "gp-trees": "gp", "mu-multipartite": "mu",
                    "mu-trees": "mu", "mu-cycles": "mu"}
    for sid, code in closed_forms.items():
        assert SUITES[sid].reads == ((code, True),), sid
    assert SUITES["mu-balloon"].reads == (("mut", False), ("mu", True))


def test_bound_rows_state_their_bounds():
    # The six bound claims share one judge; an open end drops out of the
    # text.  Cr is C_4 and C~ is K_4.
    rows = ("gp-diam3", "gp-sandwich", "gp-regular-tf", "mu-bounds", "mu-leaf", "mu-muit")
    checks = {rec["graph6"]: rec["checks"] for rec in fuzz(4)}
    c4 = {sid: (checks["Cr"][sid]["expected"], checks["Cr"][sid]["status"]) for sid in rows}
    assert c4 == {
        "gp-diam3": (">= 4", PASS), "gp-sandwich": ("4 <= gp(S(G)) <= 5", PASS),
        "gp-regular-tf": ("<= 4", PASS), "mu-bounds": ("4 <= mu(S(G)) <= 6", PASS),
        "mu-leaf": (">= 4", PASS), "mu-muit": (">= 5", PASS),
    }
    k4 = checks["C~"]
    assert (k4["gp-sandwich"]["expected"], k4["gp-sandwich"]["status"]) == \
        ("2 <= gp(S(G)) <= 3", FAIL)
    assert k4["gp-regular-tf"]["note"] == "filtered: not regular triangle-free"
    assert k4["mu-muit"]["note"] == "filtered: triangle or universal vertex"


def test_judges_name_the_broken_claims():
    # Synthetic reports at values no small graph reaches: the FAIL records a
    # real counterexample would print, with the graph6 that replays it.
    def fail(judge, source, g, *reports):
        p = verify._GraphProfile(source, g, 0, "key")
        r = judge(p, *reports)
        assert r.status == FAIL and r.graph6 == p.replay
        return r

    p3, k2 = generate(FamilySpec("path", (3,))), generate(FamilySpec("path", (2,)))
    mu_char = verify._judge_mu_char
    assert fail(mu_char, "Bg", p3, InvariantReport("mu", 5)).note == (
        "mu(S(G)) = 5 should never occur; "
        "mu(S(G)) = 4 should hold exactly for the 3-path/3-cycle")
    assert fail(mu_char, "A_", k2, InvariantReport("mu", 4)).note == (
        "mu(S(G)) = 2 should hold exactly for the single edge; "
        "mu(S(G)) = 4 should hold exactly for the 3-path/3-cycle")
    ip_ic = verify._judge_ip_ic_bounds
    gp, ip = InvariantReport("gp", 7), InvariantReport("ip", 3)
    r = fail(ip_ic, "Bg", p3, gp, ip, InvariantReport("ic", 2))
    assert (r.actual, r.note) == ("7", "gp = 7 > 2 ip = 6; gp = 7 > 3 ic = 6")
    r = fail(ip_ic, "Bg", p3, gp, ip, InvariantReport("ic", 2, coverable=False))
    assert r.note == "gp = 7 > 2 ip = 6"
    balloon = FamilySpec("balloon", (2,))
    g = generate(balloon)
    r = fail(verify._judge_mu_balloon, balloon, g, InvariantReport("mut", 1),
             InvariantReport("mu", 13))
    assert (r.expected, r.actual) == ("total visibility number 0", "1")
    assert r.graph6 == graph_to_graph6(shadow(g).graph)


def test_worker_count_env(monkeypatch):
    assert worker_count() >= 1
    # The CPUs this process may run on count, not all CPUs of the machine.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert worker_count() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 8
