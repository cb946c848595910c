"""Run benchmark rows on a checkout and merge each row's results into its record.

    python3 scripts/bench.py max_set heuristic covers metric enumerate fuzz startup \
        --label change
    python3 scripts/bench.py covers --src ../parent/src --label parent

``--src`` is the ``src`` directory of the checkout to measure, so the same
script can run an older tree (a clone of the parent commit, for example).
Each row writes ``BENCH_<row>.json`` at the repo root, with this run under
``--label`` next to the runs already there.  The rows:

- ``max_set``: exact ``max_set`` under the row's node ``budget``, the best of
  ``repeat`` runs, on MV S(C_14), S(C_18), S(C_22), S(C_26), S(balloon:3),
  GP S(C_18), S(C_40), S(C_60), S(tree:40:seed=1), IGP and IMV
  S(tree:30:seed=1), TMV S(tree:14:seed=3), ITMV S(tree:16:seed=1), MV on
  the 160 seed-0 trees of the ``search`` workload as one batch, and all six
  properties on every connected graph of order 2..7 up to isomorphism and
  on the shadows of those of order 2..6.  The budget lets an older tree
  that cannot finish an instance record it as not exact.
- ``heuristic``: one ``max_set(..., time_budget=...)`` run per instance,
  the exact search stopped at the row's ``time_budget`` in seconds.
- ``covers``: ip, ic and chi on every connected graph of order 2..7 up to
  isomorphism and on the shadows of those of order 2..6, ic on K_8, K_9,
  K_10, K_14 and K_{4,5,5}, ip on K_{30,30}, and ic and chi on S(C_8..12),
  S(balloon:2) and S(balloon:3), the best of ``repeat`` runs per set.
- ``metric``: ``distances(g)`` alone, followed by a read of ``.d`` and
  followed by a read of ``.between``, the best of ``repeat`` runs each, on
  the seed-0 ``lemma-large`` graphs and their shadows, S(C_40) and the 160
  ``search`` trees; then the distance tables built (not read from the table
  cache) in one ``fuzz(6)`` pass and one ``lemma-large`` pass, and how many
  hold their distance rows and their interval masks when the pass ends.
  ``digests_agree`` says whether every run in the record has the same
  table digests.
- ``enumerate``: ``enumerate_connected(k)`` for k = 5, 6 and 7, with its
  graph count, the ``_canonical_search`` calls it makes, the best of
  ``repeat`` runs and a digest of its graph6 sequence; then
  ``canonical_key`` alone on K_8, K_{4,4}, C_8 and C_9, the best of
  ``repeat`` runs each.
- ``fuzz``: one ``list(fuzz(6))`` call, the best of ``repeat`` runs, each
  from an empty enumeration cache (``verify._connected_reps``), with the
  record count and a digest of the records.
- ``startup``: a fresh interpreter that runs ``import shadowpos``, one that
  runs ``import shadowpos.cli`` and one ``shadowpos.cli compute --invariant
  gp --graph path:4``, the best of ``repeat`` runs each, with the
  ``shadowpos`` modules it imports and whether it imports the process pool
  (``concurrent.futures`` or ``multiprocessing``).  How many modules each
  imports beyond a bare interpreter depends on the Python build, so the run
  records it apart from the results, with ``PYTHONDONTWRITEBYTECODE``: when
  it is set, every fresh interpreter compiles ``src`` again.

The workload graphs come from ``perfbench/workloads.py`` itself, so they stay
the workloads' graphs.  Values, node counts, graph counts and sha256 digests
are the exact part of a record; fields ending in ``_s`` are seconds.  On a
shared host the seconds resolve only differences of about 2x or more.  A
heuristic run cut by its deadline depends on the machine's speed, so compare
two checkouts with runs made on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent


class Row(NamedTuple):
    """One record: each run keeps ``settings`` and, under ``results``, the
    ``measure(prop, graphs, settings)`` of every ``(prop, spec)`` in ``instances``."""
    results: str
    settings: dict
    instances: tuple[tuple[Optional[str], str], ...]
    measure: Callable[[Optional[str], list, dict], dict]
    extra: Optional[Callable[[], dict]] = None  # more fields of each run
    agree: Optional[str] = None  # the digest whose agreement across runs is recorded
    inputs: Optional[Callable[[str], dict]] = None  # named inputs of a spec; graphs() if None


def _cold_tables() -> None:
    """Empty the solvers' table cache, so a run builds its tables as a first call does."""
    from shadowpos import graph_core
    graph_core.shared_distances.cache_clear()


def best_of(run: Callable[[], object], repeat: int) -> tuple[object, float]:
    """The output of ``run()`` and its best wall-clock seconds over ``repeat``
    runs, each from an empty table cache."""
    best = float("inf")
    for _ in range(repeat):
        _cold_tables()
        t0 = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - t0)
    return out, best


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@cache
def graphs(spec: str) -> dict[str, list]:
    """The named graph lists of an instance spec: a family spec, ``S(spec)``
    for its shadow, ``G`` for the connected graphs of order 2..7, ``S(G)``,
    ``S(T)`` for the seed-0 ``search`` trees, ``lemma`` for the seed-0
    ``lemma-large`` graphs and their shadows, and ``n<=k`` for what
    ``enumerate_connected(k)`` yields."""
    from shadowpos import families
    from shadowpos.shadow import shadow
    if spec.startswith("n<="):
        return {spec: list(families.enumerate_connected(int(spec[3:])))}
    if spec == "G":
        gs = [g for g in families.enumerate_connected(7) if g.n >= 2]
        return {f"G, {len(gs)} graphs n=2..7": gs}
    if spec == "S(G)":
        (connected,) = graphs("G").values()
        gs = [shadow(g).graph for g in connected if g.n <= 6]
        return {f"S(G), {len(gs)} graphs n=2..6": gs}
    if spec == "S(T)":
        import workloads
        trees = [c.graph for c in workloads.search_inputs(0)[len(workloads.SEARCH_FIXED):]]
        return {f"S(T), {len(trees)} seed-0 trees": trees}
    if spec == "lemma":
        import workloads
        return {name: gs for base, g in workloads.lemma_inputs(0)
                for name, gs in ((base, [g]), (f"S({base})", [shadow(g).graph]))}
    base = spec.removeprefix("S(").removesuffix(")")
    g = families.generate(families.parse_family_spec(base))
    return {spec: [shadow(g).graph if base != spec else g]}


def run(row: Row, instances: tuple) -> dict[str, dict]:
    """``row.measure`` of each of ``instances``, by the name the record gives it."""
    results = {}
    for prop, spec in instances:
        for label, gs in (row.inputs or graphs)(spec).items():
            name = f"{prop} {label}" if prop else label
            results[name] = row.measure(prop, gs, row.settings)
            print(f"{name:38} {json.dumps(results[name])}", flush=True)
    return results


def _totals(reports: list) -> dict:
    return {"value": sum(r.value for r in reports),
            "nodes_explored": sum(r.nodes_explored for r in reports),
            "exact": all(r.exact for r in reports)}


def _max_set(prop: str, gs: list, settings: dict) -> dict:
    from shadowpos.solvers import max_set
    from shadowpos.visibility import SetProperty
    reports, s = best_of(lambda: [max_set(SetProperty[prop], g, settings["budget"])
                                  for g in gs], settings["repeat"])
    return {**_totals(reports), "best_s": round(s, 4),
            "witness_sha256": sha(json.dumps([[r.value, r.witness, r.exact] for r in reports]))}


def _heuristic(prop: str, gs: list, settings: dict) -> dict:
    from shadowpos.solvers import max_set
    from shadowpos.visibility import SetProperty
    (r,), s = best_of(lambda: [max_set(SetProperty[prop], g, time_budget=settings["time_budget"])
                               for g in gs], 1)
    return {"value": r.value, "exact": r.exact, "nodes_explored": r.nodes_explored,
            "elapsed_s": round(s, 4)}


def _cover(prop: str, gs: list, settings: dict) -> dict:
    from shadowpos import solvers
    solve = {"ip": solvers.isometric_path_cover, "ic": solvers.isometric_cycle_cover,
             "chi": solvers.chromatic_number}[prop]
    reports, s = best_of(lambda: [solve(g) for g in gs], settings["repeat"])
    return {"graphs": len(gs), **_totals(reports), "best_s": round(s, 4),
            "sha256": sha(json.dumps([[r.value, r.witness_vertices(), r.exact, r.coverable]
                                      for r in reports]))}


def _metric(_: None, gs: list, settings: dict) -> dict:
    from shadowpos.graph_core import distances
    tables = "".join(repr((t.d, t.between, t.layers)) for t in map(distances, gs))
    repeat = settings["repeat"]
    return {"graphs": len(gs), "max_order": max(g.n for g in gs),
            "distances_s": round(best_of(lambda: [distances(g) for g in gs], repeat)[1], 5),
            "with_d_s": round(best_of(lambda: [distances(g).d for g in gs], repeat)[1], 5),
            "with_between_s": round(best_of(lambda: [distances(g).between for g in gs],
                                            repeat)[1], 5),
            "table_sha256": sha(tables)}


def _patched(original: Callable, replacement: Callable, run: Callable[[], object]) -> None:
    """Run ``run()`` with every name in a ``shadowpos`` module that is bound to
    ``original`` bound to ``replacement`` instead."""
    patched = [(ns, key) for name, ns in sorted(sys.modules.items())
               if name == "shadowpos" or name.startswith("shadowpos.")
               for key, value in vars(ns).items() if value is original]
    for ns, key in patched:
        setattr(ns, key, replacement)
    try:
        run()
    finally:
        for ns, key in patched:
            setattr(ns, key, original)


def _count_tables(run: Callable[[], object]) -> dict:
    """Tables built while ``run()`` runs from an empty table cache, and how
    many hold their distance rows and their intervals after it.  It counts
    builds, not reads: a read of a table ``graph_core.shared_distances``
    still holds builds none."""
    from shadowpos import graph_core
    original = graph_core.distances
    _cold_tables()
    tables = []

    def recording(g):
        tables.append(original(g))
        return tables[-1]

    _patched(original, recording, run)
    return {"tables": len(tables), "d_built": sum("d" in vars(t) for t in tables),
            "between_built": sum("between" in vars(t) for t in tables)}


def _enumerate(prop: str, gs: list, settings: dict) -> dict:
    from shadowpos import families
    from shadowpos.formats import graph_to_graph6
    repeat = settings["repeat"]
    if prop == "canonical_key":
        (g,) = gs
        return {"best_s": round(best_of(lambda: families.canonical_key(g), repeat)[1], 5)}
    n_max, original, calls = gs[-1].n, families._canonical_search, []
    _patched(original, lambda g: calls.append(g) or original(g),
             lambda: list(families.enumerate_connected(n_max)))
    out, s = best_of(lambda: list(families.enumerate_connected(n_max)), repeat)
    return {"graphs": len(out), "canonical_search_calls": len(calls), "best_s": round(s, 4),
            "graph6_sha256": sha("\n".join(map(graph_to_graph6, out)))}


def _fuzz(_: str, gs: list, settings: dict) -> dict:
    from shadowpos import verify

    def once():
        verify._connected_reps.cache_clear()
        return list(verify.fuzz(gs[-1].n))

    records, s = best_of(once, settings["repeat"])
    return {"records": len(records), "best_s": round(s, 4),
            "records_sha256": sha(json.dumps(records))}


def _table_counts() -> dict:
    from shadowpos import graph_core, verify
    from shadowpos.shadow import shadow, shadow_distance_violations
    import workloads

    def lemma_pass():
        # The calls of one lemma-large pass, in its order.
        for _, g in workloads.lemma_inputs(0):
            shadow_distance_violations(shadow(g))
            graph_core.structural_queries(g)

    return {"tables": {
        f"fuzz({workloads.FUZZ_N_MAX})": _count_tables(
            lambda: list(verify.fuzz(workloads.FUZZ_N_MAX))),
        "lemma-large": _count_tables(lemma_pass)}}


STARTUP = ("import shadowpos", "import shadowpos.cli", "compute --invariant gp --graph path:4")


def _argv(command: str) -> tuple[str, ...]:
    """Python's arguments for a startup command: an import statement, or CLI arguments."""
    if command.startswith("import "):
        return ("-c", command)
    return ("-m", "shadowpos.cli", *command.split())


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on ``args`` that imports ``shadowpos`` from the checkout measured."""
    import shadowpos
    src = str(Path(shadowpos.__file__).parent.parent)
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          cwd=ROOT, capture_output=True, text=True, check=True)


@cache
def _imports(argv: tuple[str, ...]) -> tuple[str, ...]:
    """The modules a fresh interpreter on ``argv`` imports, read from ``-X importtime``."""
    lines = _python("-X", "importtime", *argv).stderr.splitlines()
    names = (line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:"))
    return tuple(name for name in names if name != "imported package")


def _startup(_: None, commands: list, settings: dict) -> dict:
    (command,) = commands
    imports = _imports(_argv(command))
    return {"shadowpos_modules": sorted(m for m in imports if m.split(".")[0] == "shadowpos"),
            "pool_stack": any(m in ("concurrent.futures", "multiprocessing") for m in imports),
            "best_s": round(best_of(lambda: _python(*_argv(command)), settings["repeat"])[1], 4)}


def _startup_totals() -> dict:
    bare = set(_imports(("-c", "pass")))
    return {"modules_added": {command: len(set(_imports(_argv(command))) - bare)
                              for command in STARTUP},
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


ROWS = {
    "max_set": Row("instances", {"repeat": 3, "budget": 1_000_000}, (
        ("MV", "S(cycle:14)"), ("MV", "S(cycle:18)"), ("MV", "S(cycle:22)"),
        ("MV", "S(cycle:26)"), ("MV", "S(balloon:3)"),
        ("GP", "S(cycle:18)"), ("GP", "S(cycle:40)"), ("GP", "S(cycle:60)"),
        ("GP", "S(tree:40:seed=1)"), ("IGP", "S(tree:30:seed=1)"),
        ("IMV", "S(tree:30:seed=1)"), ("TMV", "S(tree:14:seed=3)"),
        ("ITMV", "S(tree:16:seed=1)"), ("MV", "S(T)"),
        *((prop, spec) for spec in ("G", "S(G)")
          for prop in ("GP", "IGP", "MV", "IMV", "TMV", "ITMV"))),
        _max_set),
    "heuristic": Row("instances", {"time_budget": 1.0}, tuple(
        (prop, f"S({spec})") for prop, spec in (
            ("MV", "cycle:18"), ("MV", "cycle:40"), ("MV", "cycle:60"), ("MV", "path:40"),
            ("MV", "tree:40:seed=1"), ("MV", "tree:80:seed=2"), ("MV", "balloon:2"),
            ("MV", "balloon:3"), ("MV", "kpartite:3,3,3"),
            ("GP", "cycle:40"), ("GP", "cycle:60"), ("GP", "tree:40:seed=1"),
            ("GP", "balloon:3"), ("GP", "kpartite:3,3,3"),
            ("IGP", "cycle:40"), ("IGP", "tree:30:seed=1"),
            ("IMV", "cycle:40"), ("IMV", "tree:30:seed=1"),
            ("TMV", "tree:14:seed=3"), ("TMV", "balloon:2"),
            ("ITMV", "tree:16:seed=1"), ("ITMV", "tree:30:seed=1"))), _heuristic),
    "covers": Row("sets", {"repeat": 3}, (
        ("ip", "G"), ("ic", "G"), ("chi", "G"), ("ip", "S(G)"), ("ic", "S(G)"),
        ("chi", "S(G)"), ("ic", "complete:8"), ("ic", "complete:9"), ("ic", "complete:10"),
        ("ic", "complete:14"), ("ic", "kpartite:4,5,5"), ("ip", "kpartite:30,30"), *(
            (prop, f"S({spec})") for spec in ("cycle:8", "cycle:9", "cycle:10", "cycle:11",
                                             "cycle:12", "balloon:2", "balloon:3")
            for prop in ("ic", "chi"))), _cover),
    "metric": Row("instances", {"repeat": 3}, (
        (None, "lemma"), (None, "S(cycle:40)"), (None, "S(T)")), _metric,
        extra=_table_counts, agree="table_sha256"),
    "enumerate": Row("instances", {"repeat": 3}, (
        *(("enumerate", f"n<={k}") for k in (5, 6, 7)),
        *(("canonical_key", spec) for spec in ("complete:8", "bipartite:4,4", "cycle:8",
                                               "cycle:9"))), _enumerate),
    "fuzz": Row("instances", {"repeat": 3}, (("fuzz", "n<=6"),), _fuzz),
    "startup": Row("runs", {"repeat": 5}, tuple((None, command) for command in STARTUP),
                   _startup, extra=_startup_totals, inputs=lambda command: {command: [command]}),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rows", nargs="+", choices=ROWS, metavar="ROW",
                    help=f"the rows to run: {', '.join(ROWS)}")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory of the checkout to run")
    ap.add_argument("--label", default="change", help="name of this run in each record")
    args = ap.parse_args()

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    from shadowpos.verify import worker_count
    for name in args.rows:
        row = ROWS[name]
        this = {"python": platform.python_version(), "machine": platform.machine(),
                "cpus": worker_count(), **row.settings, row.results: run(row, row.instances)}
        if row.extra is not None:
            extra = row.extra()
            print(json.dumps(extra), flush=True)
            this.update(extra)
        path = ROOT / f"BENCH_{name}.json"
        record = json.loads(path.read_text()) if path.exists() else {}
        runs = record.setdefault("runs", {})
        runs[args.label] = this
        if row.agree is not None:
            digests = {json.dumps({k: r[row.agree] for k, r in past[row.results].items()},
                                  sort_keys=True) for past in runs.values()}
            record["digests_agree"] = len(digests) == 1
        path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
