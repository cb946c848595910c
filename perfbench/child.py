"""Fresh-interpreter helpers that ``run.py`` starts; not meant to be run by hand.

``child.py setup WORKLOAD SEED``
    Times importing shadowpos plus building the workload's inputs, and
    prints the time in reference seconds (see ``speed.py``), scaled by the
    reference loop timed before and after.  The benchmark's own modules
    are imported outside the timed region.

``child.py replay SEED MODE LOG OUT SPANS PASS_ID``
    Runs ``shadowpos verify --suite all`` in-process with one worker and
    writes a JSON summary to OUT.  MODE ``suites`` times only the suite
    calls (the untraced baseline); MODE ``traced`` wraps every traced
    layer and appends the spans, tagged PASS_ID, to SPANS.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(workload: str, seed: int) -> None:
    from speed import REF_S, reference_seconds
    before = reference_seconds()
    t0 = time.perf_counter()
    import shadowpos  # noqa: F401
    if workload == "replay":
        import shadowpos.cli  # noqa: F401
    imported = time.perf_counter() - t0
    import workloads
    t1 = time.perf_counter()
    workloads.make_inputs(workload, seed)
    took = imported + time.perf_counter() - t1
    print(took * REF_S / ((before + reference_seconds()) / 2))


def replay(seed: int, mode: str, log: str, out: str, spans: str, pass_id: str) -> None:
    from shadowpos import cli
    from tracer import Tracer
    tracer = Tracer(only_suites=mode == "suites")
    tracer.install()
    t0 = time.perf_counter()
    try:
        cli.main(["verify", "--suite", "all", "--seed", str(seed), "--workers", "1",
                  "--log", log], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
    wall = time.perf_counter() - t0
    tracer.uninstall()
    total, _ = tracer.span_seconds()
    summary = {"wall": wall, "exit": code,
               "suite_s": {k[len("verify.suite."):]: v for k, v in total.items()
                           if k.startswith("verify.suite.")}}
    if mode == "traced":
        summary["layers"] = tracer.layer_metrics()
        summary["layers"]["cli.verify.s"] = wall
        tracer.write_spans(spans, int(pass_id))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1] == "replay":
        replay(int(sys.argv[2]), *sys.argv[3:])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
