"""Run the three set-cover invariants (ip, ic, chi) over fixed graph sets and record the results.

    python3 scripts/bench_covers.py --src src --label change
    python3 scripts/bench_covers.py --src ../parent/src --label parent --no-large

``--src`` is the ``src`` directory of the checkout to measure, so the same
script can run an older tree (a clone of the parent commit, for example).
Each run merges its numbers into ``--out`` (``BENCH_covers.json`` at the
repo root) under ``--label``, next to the runs already there.

The sets are ip, ic and chi on every connected graph of order 2..7 up to
isomorphism (995 graphs), ic on the shadows of those of order 2..6 (142
graphs of order 4..12), and ic on K_8, K_9 and K_10.  Unless ``--no-large``
is given, ic also runs on K_14 and K_{4,5,5}; an enumeration that walks
every simple path, not only chordless ones, would take hours on each
(extrapolated from K_8..K_10, about 10x per vertex).  For each set
the record gives the number of graphs, a digest of every report's value,
witness, ``exact`` and ``coverable`` (equal digests mean equal answers), the
total ``nodes_explored`` of the cover search, and the best of ``REPEAT``
wall-clock times for the whole set.

The counts and digests are the exact part of the record.  On a shared host
the seconds resolve only differences of about 2x or more.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMPLETE = ("complete:8", "complete:9", "complete:10")
LARGE = ("complete:14", "kpartite:4,5,5")
REPEAT = 3


def summary(solve, graphs: list) -> dict:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        reports = [solve(g) for g in graphs]
        best = min(best, time.perf_counter() - t0)
    digest = hashlib.sha256(json.dumps(
        [[r.value, r.witness_vertices(), r.exact, r.coverable] for r in reports]).encode())
    return {
        "graphs": len(graphs),
        "value": sum(r.value for r in reports),
        "nodes_explored": sum(r.nodes_explored for r in reports),
        "exact": all(r.exact for r in reports),
        "best_s": round(best, 4),
        "sha256": digest.hexdigest()[:16],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory of the checkout to run")
    ap.add_argument("--label", default="change", help="name of this run in the record")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_covers.json")
    ap.add_argument("--no-large", action="store_true",
                    help="leave out ic on K_14 and K_{4,5,5}")
    args = ap.parse_args()

    sys.path[:0] = [str(args.src.resolve())]
    from shadowpos import families, solvers
    from shadowpos.shadow import shadow

    graphs = [g for g in families.enumerate_connected(7) if g.n >= 2]
    shadows = [shadow(g).graph for g in graphs if g.n <= 6]
    named = COMPLETE + (() if args.no_large else LARGE)
    sets = {
        f"ip G, {len(graphs)} graphs n=2..7": (solvers.isometric_path_cover, graphs),
        f"ic G, {len(graphs)} graphs n=2..7": (solvers.isometric_cycle_cover, graphs),
        f"chi G, {len(graphs)} graphs n=2..7": (solvers.chromatic_number, graphs),
        f"ic S(G), {len(shadows)} graphs n=2..6": (solvers.isometric_cycle_cover, shadows),
        **{f"ic {spec}": (solvers.isometric_cycle_cover,
                          [families.generate(families.parse_family_spec(spec))])
           for spec in named},
    }

    results = {}
    for name, (solve, gs) in sets.items():
        results[name] = summary(solve, gs)
        print(f"{name:32} {json.dumps(results[name])}", flush=True)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "repeat": REPEAT,
        "sets": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
