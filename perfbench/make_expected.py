"""Regenerate ``expected.jsonl``, the record every benchmark pass is checked against.

    python3 perfbench/make_expected.py

The record is written from the program's current outputs, so run this
only for a change that is meant to alter outputs, and review the diff.
It refuses to write a record in which the known-false statements do not
fail exactly as the paper replay expects: 19 failing ``verify``
instances and 10 ``fuzz(6)`` violations.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 1729
REPLAY_FAILURES = {"gp-join": 4, "gp-sandwich": 6, "mu-multipartite": 5, "mu-leaf": 4}
FUZZ_VIOLATIONS = {"gp-sandwich": 6, "mu-leaf": 4}


def _require(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"refusing to write the record: {what}")


def replay_records(seed: int) -> list[dict]:
    log = ROOT / ".perfbench_out" / "make-expected-replay.jsonl"
    log.parent.mkdir(exist_ok=True)
    r = wl.run_replay_cli(seed, len(os.sched_getaffinity(0)), log)
    _require(not r.problems, f"replay seed {seed}: {r.problems}")
    out = []
    with open(log, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out.append({"record": "replay",
                        "seed": seed if rec["suite"] in wl.SEEDED_SUITES else None,
                        "suite": rec["suite"], "key": rec["key"], "status": rec["status"],
                        "expected": rec["expected"], "actual": rec["actual"],
                        "graph6": rec["graph6"]})
    log.unlink()
    statuses = Counter(rec["status"] for rec in out)
    failures = Counter(rec["suite"] for rec in out if rec["status"] == "FAIL")
    _require(statuses["SKIPPED"] == 0, f"replay seed {seed}: SKIPPED instances")
    _require(failures == Counter(REPLAY_FAILURES), f"replay seed {seed}: failures {failures}")
    return out


def fuzz_records() -> list[dict]:
    out = []
    violations = Counter()
    for rec in wl.verify.fuzz(wl.FUZZ_N_MAX):
        if not rec["checks"]:
            out.append({"record": "fuzz", "graph6": rec["graph6"], "check": None,
                        "status": None, "expected": None, "actual": None})
        for sid, r in rec["checks"].items():
            out.append({"record": "fuzz", "graph6": rec["graph6"], "check": sid,
                        "status": r["status"], "expected": r["expected"],
                        "actual": r["actual"]})
        violations.update(rec["violations"])
        _require(not rec["skipped"], f"fuzz {rec['graph6']}: skipped {rec['skipped']}")
    _require(violations == Counter(FUZZ_VIOLATIONS), f"fuzz violations {violations}")
    return out


def search_records(seed: int) -> list[dict]:
    out = []
    for case in wl.search_inputs(seed):
        report = wl.solvers.max_set(case.prop, case.graph)
        _require(report.exact, f"search {case.name}: not exact")
        _require(case.expected in (None, report.value), f"search {case.name}: "
                 f"value {report.value} against the closed form {case.expected}")
        fixed = not case.name.startswith("tree:")
        out.append({"record": "search", "seed": None if fixed else seed,
                    "instance": case.name, "property": case.prop.value,
                    "value": report.value})
    return out


def lemma_records(seed: int) -> list[dict]:
    out = []
    for name, g in wl.lemma_inputs(seed):
        violations = wl.shadow_mod.shadow_distance_violations(wl.shadow_mod.shadow(g))
        _require(not violations, f"lemma {name}: {violations[:3]}")
        out.append({"record": "lemma-large", "seed": seed, "graph": name,
                    "diameter": wl.graph_core.structural_queries(g).diameter,
                    "violations": 0})
    return out


def main() -> None:
    records = [{"record": "meta", "columns": wl.RECORD_COLUMNS,
                "default_seed": DEFAULT_SEED,
                "held_out_seed": HELD_OUT_SEED,
                "replay_failures": REPLAY_FAILURES, "fuzz_violations": FUZZ_VIOLATIONS}]
    seen = set()
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for rec in replay_records(seed) + search_records(seed):
            key = json.dumps(rec, sort_keys=True)
            if key not in seen:  # seed-independent outputs are recorded once
                seen.add(key)
                records.append(rec)
    records += fuzz_records()
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        records += lemma_records(seed)
    with open(wl.RECORD_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(records[0]) + "\n")
        for rec in records[1:]:
            kind = rec["record"]
            fh.write(json.dumps([kind] + [rec[c] for c in wl.RECORD_COLUMNS[kind]]) + "\n")
    print(f"wrote {len(records)} records to {wl.RECORD_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
