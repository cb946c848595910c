"""Command-line entry point: compute invariants, transform graphs, replay suites.

Exit codes: 0 success, 2 parse error (unknown options and choices too),
3 precondition failure (disconnected input, or a verify range that is
empty or past order 7), 4 the search stopped before it finished (node
budget or --time), 5 unwritable output path.  All JSON records state the
twin-index convention explicitly so serialized witnesses are unambiguous;
a compute record also names the construction it applied (``op``).
"""

from __future__ import annotations

import datetime
import json
import math
import os
import sys
from typing import NoReturn, Optional

import click

from .families import generate, parse_family_spec
from .formats import (
    edges_to_text,
    graph6_to_graph,
    graph_to_dot,
    graph_to_graph6,
    looks_like_edge_list,
    text_to_edges,
)
from .graph_core import Graph, GraphError
from .shadow import shadow, star_shadow
from .solvers import (
    DEFAULT_NODE_BUDGET,
    INVARIANT_CODES,
    solve,
)
from .verify import FAIL, SKIPPED, SUITES, SuiteParams, run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_STOPPED = 4
EXIT_UNWRITABLE = 5

INDEX_CONVENTION = "twin of base vertex i is i + n; apex (star shadow) is 2n"

# The constructions, by the name both ``--op`` choices take.
OPS = {"shadow": lambda g: shadow(g).graph, "star-shadow": star_shadow}


def _fail(message: str, code: int) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_graph(source: str) -> tuple[Graph, str]:
    """Resolve a graph source: file path, family spec, or literal graph6.

    Returns the graph and a stable identifier for run records.
    """
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise GraphError(f"cannot read {source}: {exc}") from None
        if looks_like_edge_list(text):
            return text_to_edges(text), source
        return graph6_to_graph(text), source
    try:
        spec = parse_family_spec(source)
    except GraphError:
        pass
    else:
        return generate(spec), spec.text()
    try:
        return graph6_to_graph(source), source
    except GraphError:
        raise GraphError(
            f"{source!r} is not an existing file, a family spec, or a "
            "graph6 string") from None


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _finite(ctx: click.Context, param: click.Parameter,
            value: Optional[float]) -> Optional[float]:
    # No clock reading passes a nan or inf deadline: the time budget would be off.
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number.")
    return value


@click.group()
def main() -> None:
    """Exact toolkit for position and visibility invariants of shadow graphs."""


@main.command("compute")
@click.option("--invariant", required=True,
              type=click.Choice(INVARIANT_CODES), help="Invariant to compute.")
@click.option("--graph", "source", required=True,
              help="File path (edge list or graph6), family spec, or graph6 string.")
@click.option("--op", type=click.Choice(list(OPS)), default=None,
              help="Construction to apply before solving (default: none).")
@click.option("--time", "time_budget", type=click.FloatRange(min=0), default=None,
              callback=_finite,
              help="Stop the search this many seconds after it starts (default: no deadline).")
@click.option("--budget", type=click.IntRange(min=0), default=DEFAULT_NODE_BUDGET,
              show_default=True, help="Node budget of the search.")
def cmd_compute(invariant: str, source: str, op: Optional[str],
                time_budget: Optional[float], budget: int) -> None:
    """Compute one invariant and print a JSON report on stdout."""
    try:
        g, identifier = _load_graph(source)
    except GraphError as exc:
        _fail(str(exc), EXIT_PARSE)
    try:
        if op is not None:
            g = OPS[op](g)
        report = solve(invariant, g, budget,
                       math.inf if time_budget is None else time_budget)
    except GraphError as exc:
        _fail(str(exc), EXIT_PRECONDITION)
    record = {
        "timestamp": _timestamp(),
        "command": "compute",
        "graph": identifier,
        "op": op,
        "n": g.n,
        "index_convention": INDEX_CONVENTION,
        **report.to_dict(),
    }
    click.echo(json.dumps(record))
    if not report.exact:
        sys.exit(EXIT_STOPPED)


@main.command("transform")
@click.option("--graph", "source", required=True,
              help="File path (edge list or graph6), family spec, or graph6 string.")
@click.option("--op", required=True, type=click.Choice(list(OPS)),
              help="Construction to apply.")
@click.option("--out", "out_path", required=True, help="Output file path.")
@click.option("--format", "fmt", required=True,
              type=click.Choice(["g6", "edges", "dot"]), help="Output format.")
def cmd_transform(source: str, op: str, out_path: str, fmt: str) -> None:
    """Apply a shadow construction and write the result to a file."""
    try:
        g, _ = _load_graph(source)
    except GraphError as exc:
        _fail(str(exc), EXIT_PARSE)
    try:
        out = OPS[op](g)
    except GraphError as exc:
        _fail(str(exc), EXIT_PRECONDITION)
    if fmt == "g6":
        payload = graph_to_graph6(out) + "\n"
    elif fmt == "edges":
        payload = edges_to_text(out)
    else:
        payload = graph_to_dot(out, base_n=g.n)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        _fail(f"cannot write {out_path}: {exc}", EXIT_UNWRITABLE)


@main.command("verify")
@click.option("--suite", "suite_id", required=True,
              type=click.Choice([*SUITES, "all"]), help="Suite identifier or 'all'.")
@click.option("--n-max", type=click.IntRange(min=2), default=None,
              help="Override the suite's default size range.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for randomized instances.")
@click.option("--log", "log_path", default=None,
              help="Append one JSONL run record per instance to this file.")
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="Worker processes (default: the CPUs this process may run on).")
def cmd_verify(suite_id: str, n_max: Optional[int], seed: int,
               log_path: Optional[str], workers: Optional[int]) -> None:
    """Replay named verification suites; exit 0 iff no instance fails."""
    params = SuiteParams(n_max=n_max, seed=seed)
    suite_ids = list(SUITES) if suite_id == "all" else [suite_id]
    log_fh = None
    if log_path is not None:
        try:
            log_fh = open(log_path, "a", encoding="utf-8")
        except OSError as exc:
            _fail(f"cannot write {log_path}: {exc}", EXIT_UNWRITABLE)
    total_fail = 0
    header = f"{'suite':<16} {'instances':>9} {'pass':>6} {'fail':>6} {'skipped':>8}"
    click.echo(header)
    click.echo("-" * len(header))
    try:
        for sid in suite_ids:
            try:
                report = run_suite(sid, params, workers=workers)
            except GraphError as exc:
                _fail(str(exc), EXIT_PRECONDITION)
            total_fail += report.failed
            click.echo(f"{sid:<16} {len(report.results):>9} {report.passed:>6} "
                       f"{report.failed:>6} {report.skipped:>8}")
            for r in report.results:
                if r.status in (FAIL, SKIPPED):
                    click.echo(f"  {r.status} {r.key}: expected {r.expected}, "
                               f"got {r.actual}"
                               + (f" [{r.note}]" if r.note else "")
                               + (f" graph6={r.graph6}" if r.graph6 else ""))
            if log_fh is not None:
                for r in report.results:
                    record = {
                        "timestamp": _timestamp(),
                        "command": "verify",
                        "suite": sid,
                        "index_convention": INDEX_CONVENTION,
                        **r.to_dict(),
                    }
                    log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
    finally:
        if log_fh is not None:
            log_fh.close()
    click.echo("-" * len(header))
    click.echo("OK" if total_fail == 0 else f"{total_fail} failing instance(s)")
    sys.exit(EXIT_OK if total_fail == 0 else 1)


if __name__ == "__main__":
    main()
