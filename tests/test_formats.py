import random

import pytest
from hypothesis import given, settings, strategies as st

from shadowpos.families import generate, parse_family_spec
from shadowpos.formats import (
    GRAPH6_HEADER,
    _decode_size,
    _encode_size,
    edges_to_text,
    graph6_to_graph,
    graph_to_dot,
    graph_to_graph6,
    looks_like_edge_list,
    text_to_edges,
)
from shadowpos.graph_core import GraphError, build_graph
from shadowpos.shadow import shadow

from conftest import random_connected_graph


def test_graph6_known_values():
    k4 = generate(parse_family_spec("complete:4"))
    assert graph_to_graph6(k4) == "C~"
    assert graph6_to_graph("C~") == k4
    # Empty and single-vertex graphs.
    assert graph_to_graph6(build_graph(0, [])) == "?"
    assert graph_to_graph6(build_graph(1, [])) == "@"
    assert graph6_to_graph("?").n == 0


def test_graph6_round_trip_random():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 12)
        g = random_connected_graph(n, rng) if n > 1 else build_graph(1, [])
        assert graph6_to_graph(graph_to_graph6(g)) == g


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=20), st.data())
def test_graph6_round_trip_hypothesis(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph(n, chosen)
    assert graph6_to_graph(graph_to_graph6(g)) == g


def test_graph6_header_and_whitespace():
    k4 = generate(parse_family_spec("complete:4"))
    assert graph6_to_graph(GRAPH6_HEADER + "C~\n") == k4


def test_graph6_multibyte_size():
    g = build_graph(70, [(0, 69), (1, 2)])
    enc = graph_to_graph6(g)
    assert enc.startswith(chr(126))
    assert graph6_to_graph(enc) == g


def test_graph6_size_field():
    # The size field alone at both ends of each width; no graph is built.
    for n, width in [(0, 1), (62, 1), (63, 4), (258047, 4), (258048, 8), (68719476735, 8)]:
        size = _encode_size(n)
        assert len(size) == width and _decode_size(size) == (n, width)
    for bad in ["~", "~??", "~~", "~~?????"]:
        with pytest.raises(GraphError) as exc:
            graph6_to_graph(bad)
        assert str(exc.value) == "truncated graph6 size field"
    # Size bytes lie in 63..126 as body bytes do, in each width.
    for bad, byte in [("!", 33), ("\x7fa", 127), ("~\x7f??", 127), ("~~?>????", 62)]:
        with pytest.raises(GraphError) as exc:
            graph6_to_graph(bad)
        assert str(exc.value) == f"invalid graph6 byte {byte}"
    for n, message in [(-1, "negative vertex count"),
                       (2 ** 36, f"graph too large for graph6: {2 ** 36} vertices")]:
        with pytest.raises(GraphError) as exc:
            _encode_size(n)
        assert str(exc.value) == message


def test_graph6_errors():
    for bad in ["", "C~~", "C", "C\x19", "Cé"]:
        with pytest.raises(GraphError):
            graph6_to_graph(bad)


def test_edge_list_round_trip():
    rng = random.Random(14)
    for _ in range(10):
        g = random_connected_graph(rng.randint(2, 9), rng)
        assert text_to_edges(edges_to_text(g)) == g


def test_edge_list_preserves_isolated_trailing_vertex():
    g = build_graph(4, [(0, 1), (1, 2)])  # vertex 3 isolated
    assert text_to_edges(edges_to_text(g)) == g


def test_edge_list_parsing_flexibility():
    text = "# comment\n\n0 1  # trailing comment\n1 2\n"
    g = text_to_edges(text)
    assert g.n == 3 and g.m == 2


def test_edge_list_errors():
    with pytest.raises(GraphError):
        text_to_edges("0 1 2\n")
    with pytest.raises(GraphError):
        text_to_edges("a b\n")
    with pytest.raises(GraphError):
        text_to_edges("# nothing\n")


def test_looks_like_edge_list():
    assert looks_like_edge_list("0 1\n1 2\n")
    assert looks_like_edge_list("# c\n5\n0 1\n")
    assert not looks_like_edge_list("C~")
    assert not looks_like_edge_list(GRAPH6_HEADER + "C~")
    assert not looks_like_edge_list("# only a comment\n\n")


def test_dot_export():
    sg = shadow(generate(parse_family_spec("path:3")))
    dot = graph_to_dot(sg.graph, base_n=sg.base.n)
    assert "cluster_shadow" in dot
    assert dot.count(" -- ") == sg.graph.m
    assert '"1\'"' in dot
    plain = graph_to_dot(generate(parse_family_spec("cycle:4")))
    assert "cluster_shadow" not in plain and plain.count(" -- ") == 4
