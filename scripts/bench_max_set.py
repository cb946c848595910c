"""Time exact ``max_set`` on a fixed set of instances and record the results.

    python3 scripts/bench_max_set.py --src src --label change
    python3 scripts/bench_max_set.py --src ../parent/src --label parent

``--src`` is the ``src`` directory of the checkout to measure, so the same
script can time an older tree (a ``git worktree`` of the parent commit, for
example).  Each run merges its numbers into ``--out`` (``BENCH_max_set.json``
at the repo root) under ``--label``, next to the runs already there.

The instances are MV on S(C_14), S(C_18) and S(C_22), GP on S(C_18) and
S(C_40), TMV on S(tree:14:seed=3), ITMV on S(tree:16:seed=1), and the 160
seed-0 trees of the ``search`` benchmark workload (MV on S(T) for random
trees T of order 8 and diameter at least 3), timed as one batch.
The trees come from ``perfbench/workloads.py`` itself, so they stay the
workload's trees.  For each instance the record gives the value,
``nodes_explored`` (which does not depend on the machine) and the best of
``REPEAT`` wall-clock times.  A digest of the values and witnesses shows
whether two checkouts agree.

The node counts and digests are the exact part of the record.  On a shared
host the best-of-3 seconds resolve only differences of about 2x or more;
finer timing comparisons belong to ``perfbench``'s reference seconds.
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

FIXED = (("cycle:14", "MV"), ("cycle:18", "MV"), ("cycle:22", "MV"), ("cycle:18", "GP"),
         ("cycle:40", "GP"), ("tree:14:seed=3", "TMV"), ("tree:16:seed=1", "ITMV"))
REPEAT = 3


def measure(solve) -> tuple[list, float]:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        reports = solve()
        best = min(best, time.perf_counter() - t0)
    return reports, best


def summary(reports: list, seconds: float) -> dict:
    digest = hashlib.sha256(json.dumps(
        [[r.value, r.witness, r.exact] for r in reports]).encode()).hexdigest()
    return {
        "value": sum(r.value for r in reports),
        "nodes_explored": sum(r.nodes_explored for r in reports),
        "exact": all(r.exact for r in reports),
        "best_s": round(seconds, 4),
        "witness_sha256": digest[:16],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory of the checkout to time")
    ap.add_argument("--label", default="change", help="name of this run in the record")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_max_set.json")
    args = ap.parse_args()

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    from shadowpos import families, solvers
    from shadowpos.shadow import shadow
    from shadowpos.visibility import SetProperty
    import workloads

    instances = {}
    for spec, prop in FIXED:
        g = shadow(families.generate(families.parse_family_spec(spec))).graph
        instances[f"{prop} S({spec})"] = (
            lambda g=g, prop=SetProperty[prop]: [solvers.max_set(prop, g)])
    trees = [case.graph for case in workloads.search_inputs(0)[len(workloads.SEARCH_FIXED):]]
    instances[f"MV S(T), {len(trees)} seed-0 trees"] = (
        lambda: [solvers.max_set(SetProperty.MV, g) for g in trees])

    results = {}
    for name, solve in instances.items():
        results[name] = summary(*measure(solve))
        print(f"{name:38} {json.dumps(results[name])}", flush=True)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "repeat": REPEAT,
        "instances": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
