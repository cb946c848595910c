"""Graph interchange formats: graph6, whitespace edge lists, DOT export.

The graph6 codec is bit-exact per the standard format so counterexamples
are one-line shareable with the usual graph tools.  Edge lists accept
``u v`` per line with ``#`` comments and blank lines.
"""

from __future__ import annotations

from typing import Optional

from .graph_core import Graph, GraphError, build_graph, iter_bits

GRAPH6_HEADER = ">>graph6<<"


def _encode_size(n: int) -> bytes:
    if n < 0:
        raise GraphError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63
                                   for s in (30, 24, 18, 12, 6, 0)])
    raise GraphError(f"graph too large for graph6: {n} vertices")


def _sextet(b: int) -> int:
    """The six bits a graph6 byte carries; every byte lies in 63..126."""
    if not 63 <= b <= 126:
        raise GraphError(f"invalid graph6 byte {b}")
    return b - 63


def _decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise GraphError("empty graph6 string")
    # One byte below 126, else 126 and three bytes, else 126 126 and six.
    start = 0 if data[0] != 126 else 2 if data[1:2] == b"~" else 1
    end = (1, 4, 8)[start]
    if len(data) < end:
        raise GraphError("truncated graph6 size field")
    n = 0
    for b in data[start:end]:
        n = n << 6 | _sextet(b)
    return n, end


def graph_to_graph6(g: Graph) -> str:
    """Encode upper-triangle adjacency bits, column by column, 6 bits per byte."""
    n = g.n
    out = bytearray(_encode_size(n))
    bits = []
    for v in range(n):
        for u in range(v):
            bits.append(g.adj[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i:i + 6]:
            word = word << 1 | b
        out.append(word + 63)
    return out.decode("ascii")


def graph6_to_graph(text: str) -> Graph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise GraphError("graph6 must be ASCII") from None
    n, consumed = _decode_size(data)
    body = data[consumed:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}")
    bits = []
    for b in body:
        word = _sextet(b)
        for k in range(5, -1, -1):
            bits.append(word >> k & 1)
    edges = []
    i = 0
    for v in range(n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return build_graph(n, edges)


def edges_to_text(g: Graph) -> str:
    lines = [f"# {g.n} vertices, {g.m} edges", str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def text_to_edges(text: str) -> Graph:
    """Parse an edge list of ``u v`` lines.

    An optional single-integer line fixes the vertex count (the writer
    always emits one, so isolated trailing vertices round-trip); otherwise
    the count is the largest endpoint plus one.
    """
    n: Optional[int] = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer token in {raw!r}") from None
        if len(values) == 1 and n is None and not edges:
            n = values[0]
        elif len(values) == 2:
            edges.append((values[0], values[1]))
        else:
            raise GraphError(f"line {lineno}: expected 'u v'")
    if n is None:
        if not edges:
            raise GraphError("empty edge-list input")
        n = max(max(u, v) for u, v in edges) + 1
    return build_graph(n, edges)


def looks_like_edge_list(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return all(tok.lstrip("-").isdigit() for tok in line.split())
    return False


def graph_to_dot(g: Graph, base_n: Optional[int] = None) -> str:
    """DOT export, each vertex named by the package's index convention.

    With ``base_n`` given, vertex ``i < base_n`` is named ``i``, its twin
    ``i + base_n`` is ``i'`` and the star-shadow apex ``2 * base_n`` is
    ``s*``; when ``g`` is a shadow (``g.n == 2 * base_n``) the twins go into
    a labeled rank group.  Without it every vertex is named by its index.
    """
    def name(v: int) -> str:
        if base_n is None or v < base_n:
            return str(v)
        return f"{v - base_n}'" if v < 2 * base_n else "s*"

    grouped = base_n is not None and g.n == 2 * base_n
    lines = ["graph G {"]
    if grouped:
        lines.append("  subgraph cluster_shadow {")
        lines.append('    label="shadow vertices";')
        lines.append("    rank=same;")
        for v in range(base_n, g.n):
            lines.append(f'    {v} [label="{name(v)}"];')
        lines.append("  }")
    for v in range(base_n if grouped else g.n):
        lines.append(f'  {v} [label="{name(v)}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
