"""Time the distance table with and without its intervals, and record the results.

    python3 scripts/bench_metric.py --src src --label change
    python3 scripts/bench_metric.py --src ../parent/src --label parent

``--src`` is the ``src`` directory of the checkout to measure, so the same
script can time an older tree (an unpacked ``git archive`` of the parent
commit, for example).  Each run merges its numbers into ``--out``
(``BENCH_metric.json`` at the repo root) under ``--label``, next to the runs
already there.

The instances are the three seed-0 graphs of the ``lemma-large`` benchmark
workload and their shadows, S(C_40), and the shadows of the 160 seed-0
trees of the ``search`` workload, timed as one batch.  They come from
``perfbench/workloads.py`` itself, so they stay the workloads' graphs.  For
each instance the record gives the best of ``REPEAT`` wall-clock times of
``distances(g)`` alone and of ``distances(g)`` followed by a read of
``.between``, and a sha256 digest of the tables' ``(d, between, layers)``.
When every run in the record has the same digests, ``digests_agree`` is true.
The counts and digests are the exact part of the record.  On a shared host
the best-of-3 seconds resolve only differences of about 2x or more; finer
timing comparisons belong to ``perfbench``'s reference seconds.

The counts do not depend on the machine: the distance tables built in one
``fuzz(6)`` pass and in one ``lemma-large`` pass, and how many of them hold
their interval masks (``between`` in ``vars(t)``) when the pass ends.
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

REPEAT = 3


def best_of(run) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(distances, graphs: list) -> dict:
    digest = hashlib.sha256()
    for g in graphs:
        t = distances(g)
        digest.update(repr((t.d, t.between, t.layers)).encode())
    return {
        "graphs": len(graphs),
        "max_order": max(g.n for g in graphs),
        "distances_s": round(best_of(lambda: [distances(g) for g in graphs]), 5),
        "with_between_s": round(best_of(lambda: [distances(g).between for g in graphs]), 5),
        "table_sha256": digest.hexdigest()[:16],
    }


def count_tables(run) -> dict:
    """Tables built while ``run()`` runs, and how many hold their intervals after it."""
    from shadowpos import graph_core
    original = graph_core.distances
    tables = []

    def recording(g):
        tables.append(original(g))
        return tables[-1]

    patched = [(ns, key) for name, ns in sorted(sys.modules.items())
               if name == "shadowpos" or name.startswith("shadowpos.")
               for key, value in vars(ns).items() if value is original]
    for ns, key in patched:
        setattr(ns, key, recording)
    try:
        run()
    finally:
        for ns, key in patched:
            setattr(ns, key, original)
    return {"tables": len(tables),
            "between_built": sum("between" in vars(t) for t in tables)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory of the checkout to time")
    ap.add_argument("--label", default="change", help="name of this run in the record")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_metric.json")
    args = ap.parse_args()

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    from shadowpos import families, graph_core, verify
    from shadowpos.shadow import shadow, shadow_distance_violations
    import workloads

    lemma = workloads.lemma_inputs(0)
    instances = {}
    for name, g in lemma:
        instances[name] = [g]
        instances[f"S({name})"] = [shadow(g).graph]
    instances["S(cycle:40)"] = [shadow(families.generate(
        families.parse_family_spec("cycle:40"))).graph]
    trees = [case.graph for case in workloads.search_inputs(0)[len(workloads.SEARCH_FIXED):]]
    instances[f"S(T), {len(trees)} seed-0 trees"] = trees

    results = {}
    for name, graphs in instances.items():
        results[name] = measure(graph_core.distances, graphs)
        print(f"{name:38} {json.dumps(results[name])}", flush=True)

    def lemma_pass():
        # The calls of one lemma-large pass, in its order.
        for _, g in lemma:
            shadow_distance_violations(shadow(g))
            graph_core.structural_queries(g)

    counts = {
        f"fuzz({workloads.FUZZ_N_MAX})": count_tables(
            lambda: list(verify.fuzz(workloads.FUZZ_N_MAX))),
        "lemma-large": count_tables(lemma_pass),
    }
    print(json.dumps(counts), flush=True)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = record.setdefault("runs", {})
    runs[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "repeat": REPEAT,
        "instances": results,
        "tables": counts,
    }
    digests = {json.dumps({name: r["table_sha256"] for name, r in run["instances"].items()},
                          sort_keys=True) for run in runs.values()}
    record["digests_agree"] = len(digests) == 1
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
