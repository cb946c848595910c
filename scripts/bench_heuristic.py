"""Run ``max_set_heuristic`` on a fixed set of shadow instances and record the results.

    python3 scripts/bench_heuristic.py --src src --label change
    python3 scripts/bench_heuristic.py --src ../parent/src --label parent

``--src`` is the ``src`` directory of the checkout to measure, so the same
script can run an older tree (a clone of the parent commit, for example).
Each run merges its numbers into ``--out`` (``BENCH_heuristic.json`` at the
repo root) under ``--label``, next to the runs already there.

Every instance runs once, at ``time_budget=1.0`` and ``seed=0``.  For each
the record gives the value, ``exact``, ``nodes_explored`` and the elapsed
wall-clock seconds.  A run cut by its deadline depends on the machine's
speed, so compare two checkouts with runs made on the same machine.  The
exact part of the record is what a run that finishes reports: its value
and node count.  On a shared host the single-run seconds resolve only
differences of about 2x or more, as do the best-of-3 seconds of the other
``bench_*`` scripts; finer timing comparisons belong to ``perfbench``'s
reference seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTANCES = (
    ("MV", "cycle:18"), ("MV", "cycle:40"), ("MV", "cycle:60"), ("MV", "path:40"),
    ("MV", "tree:40:seed=1"), ("MV", "tree:80:seed=2"), ("MV", "balloon:2"),
    ("MV", "balloon:3"), ("MV", "kpartite:3,3,3"),
    ("GP", "cycle:40"), ("GP", "cycle:60"), ("GP", "tree:40:seed=1"),
    ("GP", "balloon:3"), ("GP", "kpartite:3,3,3"),
    ("IGP", "cycle:40"), ("IGP", "tree:30:seed=1"),
    ("IMV", "cycle:40"), ("IMV", "tree:30:seed=1"),
    ("TMV", "tree:14:seed=3"), ("TMV", "balloon:2"),
    ("ITMV", "tree:16:seed=1"), ("ITMV", "tree:30:seed=1"),
)
TIME_BUDGET = 1.0
SEED = 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory of the checkout to run")
    ap.add_argument("--label", default="change", help="name of this run in the record")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_heuristic.json")
    args = ap.parse_args()

    sys.path[:0] = [str(args.src.resolve())]
    from shadowpos import families, solvers
    from shadowpos.shadow import shadow
    from shadowpos.visibility import SetProperty

    results = {}
    for prop, spec in INSTANCES:
        g = shadow(families.generate(families.parse_family_spec(spec))).graph
        t0 = time.perf_counter()
        r = solvers.max_set_heuristic(SetProperty[prop], g, time_budget=TIME_BUDGET, seed=SEED)
        name = f"{prop} S({spec})"
        results[name] = {
            "value": r.value,
            "exact": r.exact,
            "nodes_explored": r.nodes_explored,
            "elapsed_s": round(time.perf_counter() - t0, 4),
        }
        print(f"{name:24} {json.dumps(results[name])}", flush=True)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "time_budget": TIME_BUDGET,
        "seed": SEED,
        "instances": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
