"""shadowpos benchmark: four closed-loop workloads, checked against a record.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz --seed 0 --seconds 20 --trace 0

``--workload`` is one of replay, fuzz, search, lemma-large, or ``all``.
With ``--trace 0`` the run measures the end-to-end metrics with no
tracing; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics plus the tracing overhead.  A table with
every metric, its unit and its sample count goes to standard output; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller summary of the run, including the
machine it ran on, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedMeter, following

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _quantiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median(values: list) -> float:
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure_setup(workload: str, seed: int, meter) -> list[float]:
    """Fresh-interpreter set-up times in reference seconds.

    The first, which may compile bytecode, is dropped.
    """
    from workloads import child_env
    times = []
    for _ in range(SETUP_REPEATS + 1):
        meter.pin()
        out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "setup",
                              workload, str(seed)], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times[1:]


class Runner:
    """Runs one workload: passes in a closed loop until the time is up."""

    def __init__(self, workload: str, seed: int, seconds: float, record):
        import workloads as wl
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.record = record
        # The CPUs of the affinity mask; os.cpu_count() ignores the mask.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.workers = len(self.cpus)
        self.meter = SpeedMeter(self.cpus)
        self.inputs = wl.make_inputs(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        OUT_DIR.mkdir(exist_ok=True)
        self.log = OUT_DIR / f"replay-{os.getpid()}.jsonl"

    def expected_ops(self) -> int:
        wl, rec = self.wl, self.record
        if self.workload == "replay":
            suites = dict(rec.replay[None])
            suites.update(rec.replay.get(self.seed, {}))
            ops = sum(len(v) for v in suites.values())
            if self.seed not in rec.replay:
                ops += 2 * wl.verify.SuiteParams().tree_count + 1
            return ops
        if self.workload == "fuzz":
            return sum(len(v) for v in rec.fuzz.values())
        return len(self.inputs)

    def _tally(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        for p in problems:
            if len(self.problems) < 10:
                self.problems.append(p)

    def _replay_pass(self, pool: bool):
        """The CLI with a W-worker pool on every CPU, or one worker on the fastest CPU."""
        if pool:
            os.sched_setaffinity(0, self.cpus)
            return self.wl.run_replay_cli(self.seed, self.workers, self.log)
        self.meter.pin()
        # --workers is the size of the mask the CLI runs under: one CPU.
        return self.wl.run_replay_cli(self.seed, len(os.sched_getaffinity(0)), self.log,
                                      self.meter)

    def one_pass(self, pool: bool = False):
        """One pass of the end-to-end workload; None when it raised."""
        wl = self.wl
        try:
            if self.workload == "replay":
                r = self._replay_pass(pool)
                r.attempted, r.failed, problems = wl.check_replay_log(
                    self.log, self.seed, self.record)
                r.problems.extend(problems)
                if r.problems and not r.failed:
                    r.failed = r.attempted  # the CLI itself misbehaved
            elif self.workload == "fuzz":
                r = wl.fuzz_pass(self.record, self.meter)
            elif self.workload == "search":
                r = wl.search_pass(self.inputs, self.seed, self.record, self.meter)
            else:
                r = wl.lemma_pass(self.inputs, self.seed, self.record, self.meter)
        except Exception as exc:  # a crashing pass is a failed pass, not a crashed run
            n = self.expected_ops()
            self._tally(n, n, [f"pass raised {type(exc).__name__}: {exc}"])
            return None
        finally:
            self.log.unlink(missing_ok=True)
        self._tally(r.attempted, r.failed, r.problems)
        return r

    def run_untraced(self) -> tuple[dict, dict]:
        setup = measure_setup(self.workload, self.seed, self.meter)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < self.seconds:
            passes.append(self.one_pass())
        ok = [p for p in passes if p is not None]
        walls = [p.wall for p in ok] or [0.0]
        # Each item's median over the passes: the percentiles then describe
        # the spread across inputs, not the host's drift between passes.
        items = [statistics.median(col) * 1000 for col in zip(*(p.items for p in ok))] or [0.0]
        if self.workload == "replay":
            peaks = [p.peak_rss_mb for p in ok] or [0.0]
        else:
            peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        samples = {
            "setup_s": setup,
            "pass_s": walls,
            "item_p50_ms": items,
            "item_p90_ms": items,
            "peak_rss_mb": peaks,
        }
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(walls),
            "item_p50_ms": statistics.median(items),
            "item_p90_ms": _p90(items),
            "peak_rss_mb": statistics.median(peaks),
        }
        detail = {"samples": {k: len(v) for k, v in samples.items()},
                  "quartiles": {k: _quantiles(v) for k, v in samples.items()},
                  "pass_times": walls, "setup_times": setup,
                  "speed_factor_quartiles": _quantiles(self.meter.factors)}
        if self.workload == "search" and ok:
            mv = self.wl.visibility.SetProperty.MV
            for key, is_mv in (("mv_solve_s", True), ("gp_solve_s", False)):
                detail[key] = statistics.median(
                    sum(t for case, t in zip(self.inputs, p.items)
                        if (case.prop is mv) == is_mv) for p in ok)
            detail["nodes"] = ok[0].extra["nodes"]
        return metrics, detail

    def run_traced(self) -> tuple[dict, dict]:
        from tracer import LAYER_METRICS, REPLAY_METRICS, Tracer
        names = dict(LAYER_METRICS, **(REPLAY_METRICS if self.workload == "replay" else {}))
        spans_path = OUT_DIR / f"spans-{self.workload}-seed{self.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        untraced, traced, layers, efficiency = [], [], [], []
        start = time.perf_counter()
        rounds = 0
        while not rounds or time.perf_counter() - start < self.seconds:
            rounds += 1
            if self.workload == "replay":
                pooled = self.one_pass(pool=True)
                base = self._replay_child("suites", rounds, spans_path)
                full = self._replay_child("traced", rounds, spans_path)
                if pooled is None or base is None or full is None:
                    continue
                untraced.append(base["wall"])
                traced.append(full["wall"])
                layers.append(full["layers"])
                efficiency.append(sum(base["suite_s"].values()) / (self.workers * pooled.wall))
                continue
            r = self.one_pass()
            if r is not None:
                untraced.append(r.wall)
            tracer = Tracer()
            tracer.install()
            try:
                r = self.one_pass()
            finally:
                tracer.uninstall()
            if r is not None:
                traced.append(r.wall)
                layers.append(tracer.layer_metrics())
                tracer.write_spans(spans_path, rounds)
        metrics = {name: 0.0 for name in names}
        for name in names:
            values = [m[name] for m in layers if name in m]
            if values:
                metrics[name] = _median(values)
        if untraced and traced:
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        if efficiency:
            metrics["verify.pool_efficiency"] = statistics.median(efficiency)
        detail = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                  "spans_file": str(spans_path.relative_to(ROOT))}
        return metrics, detail

    def _replay_child(self, mode: str, round_id: int, spans_path: Path):
        """One in-process, one-worker replay in a fresh interpreter; its summary or None."""
        out = OUT_DIR / f"replay-child-{os.getpid()}.json"
        self.meter.pin()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), "replay",
             str(self.seed), mode, str(self.log), str(out), str(spans_path), str(round_id)],
            cwd=ROOT, env=self.wl.child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        try:
            with following(self.meter, proc.pid):
                _, err = proc.communicate(timeout=self.wl.SUBPROCESS_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"child exited {proc.returncode}: {err[-300:]}")
            with open(out, encoding="utf-8") as fh:
                summary = json.load(fh)
            self._tally(*self.wl.check_replay_log(self.log, self.seed, self.record))
            if summary["exit"] != 1:
                self._tally(0, 1, [f"in-process verify exited {summary['exit']}, expected 1"])
            return summary
        except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as exc:
            n = self.expected_ops()
            self._tally(n, n, [f"replay child ({mode}) failed: {exc}"])
            return None
        finally:
            proc.kill()
            proc.wait()
            out.unlink(missing_ok=True)
            self.log.unlink(missing_ok=True)


def _report(workload: str, seed: int, seconds: float, trace: int, runner: Runner,
            metrics: dict, units: dict, detail: dict) -> None:
    workers = runner.workers
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"affinity cpus {workers}  replay workers: 1 timed, {workers} in the traced pool pass")
    quart = detail.get("quartiles", {})
    counts = detail.get("samples", {})
    print(f"  {'metric':<40} {'value':>14} {'unit':<6} {'n':>6} {'q1':>12} {'q3':>12}")
    for name, value in metrics.items():
        q1, _, q3 = quart.get(name, (None, None, None))
        n = counts.get(name, detail.get("traced_passes", ""))
        extra = f" {q1:>12.6g} {q3:>12.6g}" if q1 is not None else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} {n:>6}{extra}")
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"  {'failed_ratio':<40} {ratio:>14.6g} {'ratio':<6} {runner.attempted:>6}")
    for key in ("mv_solve_s", "gp_solve_s"):
        if key in detail:
            print(f"  {key:<40} {detail[key]:>14.6g} {'s':<6} {counts['pass_s']:>6}")
    if "nodes" in detail:
        nodes = detail["nodes"]
        fixed = {k: v for k, v in nodes.items() if not k.startswith("tree:")}
        trees = sum(v for k, v in nodes.items() if k.startswith("tree:"))
        print(f"  nodes_explored per pass: {fixed}, seeded trees {trees}")
    for p in runner.problems:
        print(f"  problem: {p}")


def run_one(workload: str, seed: int, seconds: float, trace: int, record) -> dict:
    from tracer import LAYER_METRICS, REPLAY_METRICS
    runner = Runner(workload, seed, seconds, record)
    try:
        if trace:
            metrics, detail = runner.run_traced()
            units = dict(LAYER_METRICS, **REPLAY_METRICS)
        else:
            metrics, detail = runner.run_untraced()
            units = END_TO_END
    finally:
        os.sched_setaffinity(0, runner.cpus)
    _report(workload, seed, seconds, trace, runner, metrics, units, detail)
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    summary = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                   python=platform.python_version(), nproc=os.cpu_count(),
                   affinity_cpus=runner.workers, replay_pool_workers=runner.workers,
                   problems=runner.problems,
                   detail={k: v for k, v in detail.items() if k != "quartiles"},
                   quartiles=detail.get("quartiles"))
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay", "fuzz", "search", "lemma-large", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shadowpos" / "__init__.py").is_file():
        print(f"error: no shadowpos sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shadowpos
    if Path(shadowpos.__file__).resolve().parent != SRC / "shadowpos":
        print(f"error: imported shadowpos from {shadowpos.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    record = workloads.Record()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, args.trace, record)
               for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
