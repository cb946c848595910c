import json

import pytest
from click.testing import CliRunner

from shadowpos.cli import main
from shadowpos.solvers import DEFAULT_NODE_BUDGET
from shadowpos.formats import graph6_to_graph, text_to_edges


@pytest.fixture
def runner():
    return CliRunner()


def _compute(runner, *args):
    result = runner.invoke(main, ["compute", *args])
    payload = json.loads(result.output) if result.output.startswith("{") else None
    return result, payload


def test_compute_examples(runner):
    result, payload = _compute(runner, "--invariant", "gp",
                               "--graph", "cycle:8", "--op", "shadow")
    assert result.exit_code == 0 and payload["value"] == 6 and payload["exact"]
    assert payload["graph"] == "cycle:8" and payload["op"] == "shadow" and payload["n"] == 16

    result, payload = _compute(runner, "--invariant", "chi",
                               "--graph", "cycle:5", "--op", "star-shadow")
    assert result.exit_code == 0 and payload["value"] == 4
    assert payload["op"] == "star-shadow" and payload["n"] == 11

    result, payload = _compute(runner, "--invariant", "mu",
                               "--graph", "path:2", "--op", "shadow")
    assert result.exit_code == 0 and payload["value"] == 2
    assert sorted(payload["witness"]) == payload["witness"]
    assert "index_convention" in payload


def test_compute_heuristic(runner):
    result, payload = _compute(runner, "--invariant", "mu", "--graph",
                               "balloon:2", "--op", "shadow", "--time", "0.3")
    assert result.exit_code == (0 if payload["exact"] else 4)
    assert payload["value"] >= 11
    assert payload["value"] == 13 or not payload["exact"]


def test_compute_canonical_witness(runner):
    result, payload = _compute(runner, "--invariant", "gp", "--graph", "path:4")
    assert result.exit_code == 0
    # P_4: every pair is in general position and no triple is, so the
    # lexicographically smallest maximum set is [0, 1].
    assert payload["witness"] == [0, 1]
    assert payload["op"] is None and payload["n"] == 4


def test_compute_heuristic_gives_the_canonical_witness(runner):
    # A --time run that finishes is the exact search, so it gives the
    # lexicographically smallest set.
    result, payload = _compute(runner, "--invariant", "gp", "--graph", "path:4", "--time", "1")
    assert result.exit_code == 0
    assert payload["exact"] is True and payload["witness"] == [0, 1]


def test_compute_reads_files_and_literals(runner, tmp_path):
    edge_file = tmp_path / "g.edges"
    edge_file.write_text("3\n0 1\n1 2\n")
    result, payload = _compute(runner, "--invariant", "gp",
                               "--graph", str(edge_file))
    assert result.exit_code == 0 and payload["value"] == 2

    g6_file = tmp_path / "g.g6"
    g6_file.write_text("C~\n")
    result, payload = _compute(runner, "--invariant", "chi",
                               "--graph", str(g6_file))
    assert result.exit_code == 0 and payload["value"] == 4

    result, payload = _compute(runner, "--invariant", "chi", "--graph", "C~")
    assert result.exit_code == 0 and payload["value"] == 4

    # A file with no edge line is read as graph6, whose size byte '#' is refused.
    comment_file = tmp_path / "comment.edges"
    comment_file.write_text("# no edges\n")
    result, payload = _compute(runner, "--invariant", "gp", "--graph", str(comment_file))
    assert result.exit_code == 2 and payload is None
    assert result.stderr == "error: invalid graph6 byte 35\n"


def test_compute_parse_error_exit_2(runner):
    result, _ = _compute(runner, "--invariant", "gp", "--graph", "wat?!")
    assert result.exit_code == 2
    # A directory exists as a path but cannot be read as a file.
    result, payload = _compute(runner, "--invariant", "gp", "--graph", ".")
    assert result.exit_code == 2 and payload is None
    assert result.stderr.startswith("error: cannot read .: ")
    result, payload = _compute(runner, "--invariant", "gp", "--graph", "cycle:6",
                               "--canonical-witness")
    assert result.exit_code == 2 and payload is None
    assert "Error: No such option '--canonical-witness'." in result.stderr
    result, payload = _compute(runner, "--invariant", "mu", "--graph", "cycle:6",
                               "--time", "1", "--seed", "1")
    assert result.exit_code == 2 and payload is None
    assert "Error: No such option '--seed'" in result.stderr
    # --time alone sets the deadline and --op names the construction; the
    # old mode and construction flags are unknown options.
    for flag in ("--heuristic", "--exact", "--shadow", "--star-shadow"):
        result, payload = _compute(runner, "--invariant", "gp", "--graph", "cycle:6", flag)
        assert result.exit_code == 2 and payload is None
        assert f"Error: No such option '{flag}'" in result.stderr


def test_compute_precondition_exit_3(runner, tmp_path):
    edge_file = tmp_path / "disc.edges"
    edge_file.write_text("4\n0 1\n2 3\n")
    result, _ = _compute(runner, "--invariant", "gp", "--graph", str(edge_file))
    assert result.exit_code == 3


def test_compute_budget_exit_4(runner):
    result, payload = _compute(runner, "--invariant", "mu", "--graph",
                               "cycle:9", "--op", "shadow", "--budget", "10")
    assert result.exit_code == 4
    assert payload is not None and payload["exact"] is False


def test_compute_cover_cut_in_its_walk_exit_4(runner):
    result, payload = _compute(runner, "--invariant", "ip", "--graph", "star:4",
                               "--budget", "3")
    assert result.exit_code == 4
    assert payload["exact"] is False and payload["coverable"] is True
    assert payload["value"] == 3 and payload["witness"] == [[1, 0, 2], [3], [4]]


def test_compute_cover_budget_exit_4(runner):
    result, payload = _compute(runner, "--invariant", "ip", "--graph", "tree:40:seed=2",
                               "--budget", "2000")
    assert result.exit_code == 4
    assert payload["exact"] is False and payload["nodes_explored"] == 2000
    assert {v for path in payload["witness"] for v in path} == set(range(40))


def test_compute_heuristic_cover_stops_at_its_deadline(runner):
    result, payload = _compute(runner, "--invariant", "ip", "--graph", "tree:40:seed=2",
                               "--time", "0.2")
    assert result.exit_code == 4
    assert payload["exact"] is False and payload["value"] == len(payload["witness"])
    assert {v for path in payload["witness"] for v in path} == set(range(40))


# --time is a deadline for every code.  A run exits 4 exactly when it is cut:
# igp by its zero deadline, mu and ic by their node budgets.
@pytest.mark.parametrize("args, exact", [
    (("gp", "cycle:6", "--time", "2"), True),
    (("igp", "cycle:6", "--time", "0"), False),
    (("mu", "cycle:9", "--op", "shadow", "--time", "1", "--budget", "10"), False),
    (("mui", "cycle:6", "--time", "0.5"), True),
    (("mut", "cycle:6", "--time", "1"), True),
    (("muit", "cycle:6", "--time", "1"), True),
    (("ip", "cycle:6", "--time", "2"), True),
    (("ic", "cycle:5", "--budget", "3", "--time", "0.5"), False),
    (("chi", "cycle:5", "--time", "1"), True),
], ids=lambda v: v[0] if isinstance(v, tuple) else "exact" if v else "cut")
def test_compute_time_exits_4_iff_cut(runner, args, exact):
    invariant, graph, *rest = args
    result, payload = _compute(runner, "--invariant", invariant, "--graph", graph, *rest)
    assert payload["exact"] is exact
    assert result.exit_code == (0 if exact else 4)


@pytest.mark.parametrize("args", [
    ("compute", "--invariant", "mu", "--graph", "cycle:9", "--op", "shadow", "--budget", "-1"),
    ("compute", "--invariant", "mu", "--graph", "cycle:6", "--time", "-0.5"),
    ("verify", "--suite", "gp-cycles", "--workers", "0"),
    ("verify", "--suite", "gp-cycles", "--n-max", "1"),
    ("compute", "--invariant", "mu", "--graph", "cycle:6", "--time", "nan"),
    ("compute", "--invariant", "mu", "--graph", "cycle:6", "--time", "inf"),
])
def test_out_of_range_numbers_exit_2(runner, args):
    result = runner.invoke(main, list(args))
    assert result.exit_code == 2
    assert f"Invalid value for '{args[-2]}'" in result.stderr


@pytest.mark.parametrize("invariant, n", [("ic", 15), ("chi", 17), ("ic", 14), ("chi", 16)])
def test_covers_take_any_order(runner, invariant, n):
    # The node budget bounds the covers; no order is refused.
    result, payload = _compute(runner, "--invariant", invariant, "--graph", f"cycle:{n}")
    assert result.exit_code == 0 and payload["exact"]


def test_compute_accepts_options_that_apply(runner):
    for args in (("ip", "cycle:6"),
                 ("gp", "cycle:6", "--budget", str(DEFAULT_NODE_BUDGET)),
                 ("mu", "cycle:6", "--time", "0.05"),
                 ("mu", "cycle:9", "--op", "shadow", "--budget", "10"),
                 ("ip", "cycle:6", "--time", "1", "--budget", "100"),
                 ("chi", "cycle:5", "--time", "1")):
        invariant, graph, *rest = args
        result, payload = _compute(runner, "--invariant", invariant, "--graph", graph, *rest)
        assert payload["invariant"] == invariant, args
        assert result.exit_code == (0 if payload["exact"] else 4), args


def test_transform_shadow_g6(runner, tmp_path):
    out = tmp_path / "c5s.g6"
    result = runner.invoke(main, ["transform", "--graph", "cycle:5",
                                  "--op", "shadow", "--out", str(out),
                                  "--format", "g6"])
    assert result.exit_code == 0
    g = graph6_to_graph(out.read_text())
    assert g.n == 10 and g.m == 15


def test_transform_shadow_edges(runner, tmp_path):
    out = tmp_path / "p2s.edges"
    result = runner.invoke(main, ["transform", "--graph", "path:2",
                                  "--op", "shadow", "--out", str(out),
                                  "--format", "edges"])
    assert result.exit_code == 0
    g = text_to_edges(out.read_text())
    assert g.n == 4 and g.m == 3


def test_transform_star_shadow_k1(runner, tmp_path):
    out = tmp_path / "k1.g6"
    result = runner.invoke(main, ["transform", "--graph", "complete:1",
                                  "--op", "star-shadow", "--out", str(out),
                                  "--format", "g6"])
    assert result.exit_code == 0
    assert graph6_to_graph(out.read_text()).n == 3


_PATH3_DOT = {
    # Twins i' = i + n in a rank group; the star shadow's apex 2n is s*.
    "shadow": """graph G {
  subgraph cluster_shadow {
    label="shadow vertices";
    rank=same;
    3 [label="0'"];
    4 [label="1'"];
    5 [label="2'"];
  }
  0 [label="0"];
  1 [label="1"];
  2 [label="2"];
  0 -- 1;
  0 -- 4;
  1 -- 2;
  1 -- 3;
  1 -- 5;
  2 -- 4;
}
""",
    "star-shadow": """graph G {
  0 [label="0"];
  1 [label="1"];
  2 [label="2"];
  3 [label="0'"];
  4 [label="1'"];
  5 [label="2'"];
  6 [label="s*"];
  0 -- 1;
  0 -- 4;
  1 -- 2;
  1 -- 3;
  1 -- 5;
  2 -- 4;
  3 -- 6;
  4 -- 6;
  5 -- 6;
}
""",
}


def test_transform_dot(runner, tmp_path):
    out = tmp_path / "g.dot"
    for op, expected in _PATH3_DOT.items():
        result = runner.invoke(main, ["transform", "--graph", "path:3",
                                      "--op", op, "--out", str(out),
                                      "--format", "dot"])
        assert result.exit_code == 0
        assert out.read_text() == expected, op


def test_transform_unwritable_exit_5(runner):
    result = runner.invoke(main, ["transform", "--graph", "path:2",
                                  "--op", "shadow",
                                  "--out", "/no/such/dir/x", "--format", "g6"])
    assert result.exit_code == 5


def test_transform_refusals_write_nothing(runner, tmp_path):
    out = tmp_path / "out.g6"
    disconnected = tmp_path / "disc.edges"
    disconnected.write_text("0 1\n2 3\n")
    cases = [("nonsense", 2, "error: 'nonsense' is not an existing file, a family spec, "
                             "or a graph6 string"),
             (str(disconnected), 3, "error: shadow graph requires a connected base graph")]
    for source, code, message in cases:
        result = runner.invoke(main, ["transform", "--graph", source, "--op", "shadow",
                                      "--out", str(out), "--format", "g6"])
        assert result.exit_code == code and result.stderr == message + "\n"
        assert not out.exists()


def test_verify_unknown_suite_exit_2(runner):
    result = runner.invoke(main, ["verify", "--suite", "bogus"])
    assert result.exit_code == 2
    assert "Invalid value for '--suite': 'bogus' is not one of 'gp-complete'" in result.stderr
    assert "ip-ic-bounds|all]" in runner.invoke(main, ["verify", "--help"]).output


def test_verify_default_workers_match_one_worker(runner):
    # Without --workers a suite runs on as many processes as this one may use.
    default = runner.invoke(main, ["verify", "--suite", "gp-complete"])
    single = runner.invoke(main, ["verify", "--suite", "gp-complete", "--workers", "1"])
    assert default.exit_code == single.exit_code == 0
    assert default.stdout == single.stdout


def test_verify_passing_suite(runner, tmp_path):
    log = tmp_path / "run.jsonl"
    result = runner.invoke(main, ["verify", "--suite", "gp-cycles",
                                  "--log", str(log), "--workers", "1"])
    assert result.exit_code == 0
    assert "gp-cycles" in result.output and "OK" in result.output
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 8
    assert all(r["command"] == "verify" and r["suite"] == "gp-cycles"
               for r in records)


def test_verify_failing_suite_nonzero(runner):
    result = runner.invoke(main, ["verify", "--suite", "mu-multipartite",
                                  "--n-max", "6", "--workers", "1"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_size_cap_exit_3(runner, tmp_path):
    log = tmp_path / "run.jsonl"
    result = runner.invoke(main, ["verify", "--suite", "mu-leaf", "--n-max", "8",
                                  "--log", str(log), "--workers", "1"])
    assert result.exit_code == 3
    assert result.stderr.startswith("error: ") and "capped" in result.stderr
    assert "Traceback" not in result.output
    assert log.read_text() == ""


@pytest.mark.parametrize("suite, n_max", [
    ("mu-trees", 3), ("gp-join", 4), ("mu-multipartite", 3), ("all", 4)])
def test_verify_empty_range_exit_3(runner, suite, n_max):
    # No tree of order <= 3 has diameter >= 3, and no two parts of order >= 2
    # fit in K_1 + cliques of order <= 4 or in K_{n_1..n_k} of order <= 3.
    # A claim with no instance is not confirmed: `all` stops at gp-join.
    result = runner.invoke(main, ["verify", "--suite", suite, "--n-max", str(n_max),
                                  "--workers", "1"])
    assert result.exit_code == 3 and "OK" not in result.output
    failing = "gp-join" if suite == "all" else suite
    assert result.stderr == f"error: suite {failing!r} has no instance at n_max = {n_max}\n"


def test_verify_log_unwritable_exit_5(runner):
    result = runner.invoke(main, ["verify", "--suite", "gp-cycles",
                                  "--log", "/no/such/dir/log.jsonl"])
    assert result.exit_code == 5
