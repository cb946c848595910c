"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload is a closed loop from one client process: the next pass
starts only when the previous one has finished.  A pass returns its wall
time, the latency of every item in it, and how many operations it
attempted and how many of those failed.  An operation fails when its
output differs from the checked-in record (``expected.jsonl``), when it
raises, or when it is not exact.  The statements the paper gets wrong
are part of the record, so they count as expected outputs, not failures.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Optional

from speed import SpeedMeter, following

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RECORD_PATH = BENCH_DIR / "expected.jsonl"

# Layers are looked up as module attributes at call time, so the tracer's
# wrappers apply to the benchmark's own calls as well.
families = import_module("shadowpos.families")
graph_core = import_module("shadowpos.graph_core")
shadow_mod = import_module("shadowpos.shadow")
solvers = import_module("shadowpos.solvers")
verify = import_module("shadowpos.verify")
visibility = import_module("shadowpos.visibility")

WORKLOADS = ("replay", "fuzz", "search", "lemma-large")

FUZZ_N_MAX = 6
# MV on S(C_n) is n; GP on S(C_n) is 6 for these n.  Several mid-sized
# instances rather than one large one of each: each is scaled to reference
# seconds from the probes around it, and a host's speed can change within
# an instance that runs for seconds.
SEARCH_FIXED = (("cycle:11", "MV"), ("cycle:12", "MV"), ("cycle:13", "MV"),
                ("cycle:30", "GP"), ("cycle:35", "GP"), ("cycle:40", "GP"))
SEARCH_TREE_ORDER = 8
SEARCH_TREE_COUNT = 160
LEMMA_ORDER = 70
LEMMA_EXTRA_EDGES = 30
# Suites whose instances or values depend on ``verify --seed``.
SEEDED_SUITES = ("gp-trees", "mu-trees", "mu-balloon")
BALLOON_TARGET = 13  # 6k + 1 for balloon(2)
SUBPROCESS_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def sub_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one seeded input, stable across processes and platforms."""
    return random.Random(f"{tag}:{seed}").getrandbits(32)


@dataclass
class PassResult:
    wall: float
    items: list[float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: Optional[float] = None
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The checked-in record


# Row layout of ``expected.jsonl`` after its first line, which is a JSON
# object with these columns and the seeds the record was made with.
RECORD_COLUMNS = {
    "replay": ["seed", "suite", "key", "status", "expected", "actual", "graph6"],
    "fuzz": ["graph6", "check", "status", "expected", "actual"],
    "search": ["seed", "instance", "property", "value"],
    "lemma-large": ["seed", "graph", "diameter", "violations"],
}


class Record:
    """Expected outcomes, loaded from ``expected.jsonl``.

    ``seed`` is null for outputs that do not depend on the workload seed.
    """

    def __init__(self, path: Path = RECORD_PATH):
        self.replay: dict[Optional[int], dict[str, dict[str, list]]] = {}
        self.fuzz: dict[str, dict[str, list]] = {}
        self.search: dict[int, dict[str, int]] = {}
        self.lemma: dict[int, dict[str, int]] = {}
        with open(path, encoding="utf-8") as fh:
            fh.readline()  # header: the columns, the seeds and the known failures
            for line in fh:
                row = json.loads(line)
                kind = row[0]
                rec = dict(zip(RECORD_COLUMNS[kind], row[1:]))
                if kind == "replay":
                    suites = self.replay.setdefault(rec["seed"], {})
                    suites.setdefault(rec["suite"], {})[rec["key"]] = [
                        rec["status"], rec["expected"], rec["actual"], rec["graph6"]]
                elif kind == "fuzz":
                    self.fuzz.setdefault(rec["graph6"], {})
                    if rec["check"] is not None:
                        self.fuzz[rec["graph6"]][rec["check"]] = [
                            rec["status"], rec["expected"], rec["actual"]]
                elif kind == "search":
                    self.search.setdefault(rec["seed"], {})[rec["instance"]] = rec["value"]
                elif kind == "lemma-large":
                    self.lemma.setdefault(rec["seed"], {})[rec["graph"]] = rec["diameter"]


def _leaf_count(g) -> int:
    return sum(1 for row in g.adj if row.bit_count() == 1)


def _diameter(g) -> int:
    """Eccentricity maximum by plain BFS, independent of ``graph_core``."""
    best = 0
    for s in range(g.n):
        seen = frontier = 1 << s
        depth = 0
        while True:
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nxt |= g.adj[low.bit_length() - 1]
                rest ^= low
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
            depth += 1
        if seen != (1 << g.n) - 1:
            raise ValueError("graph is not connected")
        best = max(best, depth)
    return best


# ---------------------------------------------------------------------------
# replay: ``shadowpos verify --suite all`` in a fresh interpreter


def _group_pss_kb(pgid: int) -> int:
    """Summed proportional set size of every process in a process group.

    Only pids from the group leader's upwards are read: the pool workers
    are started after it, and reading every process costs milliseconds.
    """
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) < pgid:
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
            # Fields after the parenthesised command: state ppid pgrp ...
            if int(stat.rsplit(")", 1)[1].split()[2]) != pgid:
                continue
            with open(f"/proc/{entry}/smaps_rollup", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except (OSError, IndexError, ValueError):
            continue  # the process exited between listing and reading
    return total


class _PeakSampler(threading.Thread):
    """Samples a process group's memory every 20 ms until stopped."""

    def __init__(self, pgid: int):
        super().__init__(daemon=True)
        self.pgid = pgid
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.peak_kb = max(self.peak_kb, _group_pss_kb(self.pgid))
            self._stop_event.wait(0.02)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the process and any pool workers it left behind."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_replay_cli(seed: int, workers: int, log: Path,
                   meter: Optional[SpeedMeter] = None) -> PassResult:
    """One timed ``verify --suite all`` pass; items are per-suite latencies.

    A suite's latency runs from the previous line of the suite table (the
    header rule, for the first suite) to its own line, read as the CLI
    prints it.  With a ``meter``, the one-worker CLI is kept on the
    fastest CPU while it runs, and the times are scaled to reference
    seconds by the reference loop timed before and after the pass.
    """
    log.unlink(missing_ok=True)
    items: list[float] = []
    if meter is not None:
        meter.begin(items)
    command = [sys.executable, "-m", "shadowpos.cli", "verify", "--suite", "all",
               "--seed", str(seed), "--workers", str(workers), "--log", str(log)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    sampler = _PeakSampler(proc.pid)
    sampler.start()
    timer = threading.Timer(SUBPROCESS_TIMEOUT_S, _kill_group, (proc,))
    timer.start()
    try:
        with following(meter, proc.pid):
            last = None
            for line in proc.stdout:
                now = time.perf_counter()
                if last is None:
                    if line.startswith("---"):
                        last = now
                    continue
                head = line.split()
                if head and head[0] in verify.SUITES and len(head) == 5:
                    items.append(now - last)
                    last = now
            code = proc.wait()
            wall = time.perf_counter() - start
    finally:
        timer.cancel()
        _kill_group(proc)
        proc.wait()
        proc.stdout.close()
        sampler.stop()
    if meter is not None:
        wall *= meter.end(items)
    result = PassResult(wall, items, 0, 0, peak_rss_mb=sampler.peak_kb / 1024)
    if code != 1:
        result.problems.append(f"verify exited with {code}, expected 1 (known failures)")
    return result


def check_replay_log(log: Path, seed: int, record: Record) -> tuple[int, int, list[str]]:
    """Compare a ``verify --log`` file with the record: (attempted, failed, problems)."""
    got: dict[str, dict[str, dict]] = {}
    with open(log, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            got.setdefault(rec["suite"], {})[rec["key"]] = rec
    want = dict(record.replay[None])
    seeded = record.replay.get(seed)
    if seeded is not None:
        want.update(seeded)
    attempted = failed = 0
    problems: list[str] = []

    def bad(msg: str) -> None:
        nonlocal failed
        failed += 1
        if len(problems) < 5:
            problems.append(msg)

    for sid in sorted(want.keys() | got.keys() | set(SEEDED_SUITES)):
        rows = got.get(sid, {})
        if sid in want:
            expected = want[sid]
            attempted += max(len(expected), len(rows))
            for key, (status, exp, actual, g6) in expected.items():
                r = rows.get(key)
                if r is None:
                    bad(f"{sid} {key}: missing")
                elif [r["status"], r["expected"], r["actual"]] != [status, exp, actual] \
                        or (status != "PASS" and r["graph6"] != g6):
                    bad(f"{sid} {key}: got {r['status']} {r['actual']!r}, "
                        f"expected {status} {actual!r}")
            for key in rows.keys() - expected.keys():
                bad(f"{sid} {key}: not in the record")
        elif sid in SEEDED_SUITES:
            # A seed the record does not list: check each instance against
            # a value computed here, independently of the suite.
            expected_count = 1 if sid == "mu-balloon" else verify.SuiteParams().tree_count
            attempted += max(expected_count, len(rows))
            for _ in range(abs(expected_count - len(rows))):
                bad(f"{sid}: {len(rows)} instances, expected {expected_count}")
            for key, r in rows.items():
                if not _seeded_instance_ok(sid, r):
                    bad(f"{sid} {key}: got {r['status']} {r['actual']!r}")
        else:
            attempted += len(rows)
            for key in rows:
                bad(f"{sid} {key}: suite not in the record")
    return attempted, failed, problems


def _seeded_instance_ok(sid: str, r: dict) -> bool:
    if r["status"] != "PASS":
        return False
    if sid == "mu-balloon":
        return r["actual"].isdigit() and int(r["actual"]) >= BALLOON_TARGET
    inner = r["key"][len("tree("):-1]  # "n=<n>,seed=<fseed>"
    fields = dict(part.split("=") for part in inner.split(","))
    tree = families.random_tree(int(fields["n"]), int(fields["seed"]))
    leaves = _leaf_count(tree)
    want = 2 * leaves if sid == "gp-trees" else tree.n + leaves
    return r["expected"] == str(want) and r["actual"] == str(want)


# ---------------------------------------------------------------------------
# fuzz: list(fuzz(6)) in-process


def fuzz_pass(record: Record, meter: SpeedMeter) -> PassResult:
    items: list[float] = []
    records = []
    it = verify.fuzz(FUZZ_N_MAX)
    meter.begin(items)
    while True:
        t0 = time.perf_counter()
        try:
            rec = next(it)
        except StopIteration:
            break
        items.append(time.perf_counter() - t0)
        records.append(rec)
        meter.tick(items)
    meter.end(items)
    attempted, failed, problems = check_fuzz(records, record)
    return PassResult(sum(items), items, attempted, failed, problems)


def check_fuzz(records: list[dict], record: Record) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    seen = set()
    for rec in records:
        g6 = rec["graph6"]
        seen.add(g6)
        want = record.fuzz.get(g6)
        checks = rec["checks"]
        if want is None:
            attempted += len(checks)
            failed += len(checks)
            problems.append(f"graph {g6} not in the record")
            continue
        attempted += len(want)
        for sid, (status, exp, actual) in want.items():
            r = checks.get(sid)
            if r is None or [r["status"], r["expected"], r["actual"]] != [status, exp, actual]:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{g6} {sid}: got {r and (r['status'], r['actual'])}, "
                                    f"expected {status} {actual!r}")
        failed += len(checks.keys() - want.keys())
    for g6 in record.fuzz.keys() - seen:
        attempted += len(record.fuzz[g6])
        failed += len(record.fuzz[g6])
        problems.append(f"graph {g6} missing from fuzz output")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# search: exact max_set on hard single instances plus a seeded tree batch


@dataclass(frozen=True)
class SearchCase:
    name: str      # family spec of the base graph; the instance is its shadow
    prop: object   # visibility.SetProperty
    graph: object  # the shadow graph that is solved
    expected: Optional[int]  # closed form, or None when only the record knows


def search_inputs(seed: int) -> list[SearchCase]:
    mv = visibility.SetProperty.MV
    cases = []
    for spec, prop in SEARCH_FIXED:
        base = families.generate(families.parse_family_spec(spec))
        cases.append(SearchCase(spec, visibility.SetProperty[prop],
                                shadow_mod.shadow(base).graph, None))
    rng = random.Random(f"search:{seed}")
    while len(cases) < len(SEARCH_FIXED) + SEARCH_TREE_COUNT:
        fseed = rng.getrandbits(32)
        tree = families.random_tree(SEARCH_TREE_ORDER, fseed)
        if _diameter(tree) < 3:
            continue  # mu(S(T)) = n + leaves is claimed for diameter >= 3 only
        cases.append(SearchCase(f"tree:{SEARCH_TREE_ORDER}:seed={fseed}", mv,
                                shadow_mod.shadow(tree).graph, tree.n + _leaf_count(tree)))
    return cases


def search_pass(cases: list[SearchCase], seed: int, record: Record,
                meter: SpeedMeter) -> PassResult:
    items: list[float] = []
    reports = []
    meter.begin(items)
    for case in cases:
        t0 = time.perf_counter()
        reports.append(solvers.max_set(case.prop, case.graph))
        items.append(time.perf_counter() - t0)
        meter.tick(items)
    meter.end(items)
    result = PassResult(sum(items), items, len(cases), 0)
    known = record.search.get(seed, {})
    nodes = {}
    for case, report in zip(cases, reports):
        nodes[case.name] = report.nodes_explored
        want = known.get(case.name, record.search[None].get(case.name, case.expected))
        # Re-certify here: max_set certifies with an assert, which -O strips.
        table = graph_core.distances(case.graph)
        ok = (report.exact and report.value == want
              and report.witness.bit_count() == report.value
              and visibility.check(case.prop, case.graph, table, report.witness))
        if not ok:
            result.failed += 1
            result.problems.append(f"{case.name} {case.prop.value}: value {report.value}, "
                                   f"exact {report.exact}, expected {want}")
    result.extra = {"nodes": nodes}
    return result


# ---------------------------------------------------------------------------
# lemma-large: shadow distance clauses and structure on order-70 graphs


def sparse_connected(n: int, extra: int, seed: int):
    """Random labelled tree plus ``extra`` random chords; connected by construction."""
    tree = families.random_tree(n, seed)
    rng = random.Random(seed)
    edges = set(tree.edges())
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return graph_core.build_graph(n, sorted(edges))


def lemma_inputs(seed: int) -> list[tuple[str, object]]:
    t_seed, s_seed = sub_seed(seed, "lemma-tree"), sub_seed(seed, "lemma-sparse")
    return [
        (f"cycle:{LEMMA_ORDER}",
         families.generate(families.parse_family_spec(f"cycle:{LEMMA_ORDER}"))),
        (f"tree:{LEMMA_ORDER}:seed={t_seed}", families.random_tree(LEMMA_ORDER, t_seed)),
        (f"sparse:{LEMMA_ORDER}+{LEMMA_EXTRA_EDGES}:seed={s_seed}",
         sparse_connected(LEMMA_ORDER, LEMMA_EXTRA_EDGES, s_seed)),
    ]


def lemma_pass(graphs: list[tuple[str, object]], seed: int, record: Record,
               meter: SpeedMeter) -> PassResult:
    items: list[float] = []
    outputs = []
    meter.begin(items)
    for name, g in graphs:
        t0 = time.perf_counter()
        violations = shadow_mod.shadow_distance_violations(shadow_mod.shadow(g))
        summary = graph_core.structural_queries(g)
        items.append(time.perf_counter() - t0)
        outputs.append((violations, summary))
        meter.tick(items)
    meter.end(items)
    result = PassResult(sum(items), items, len(graphs), 0)
    known = record.lemma.get(seed, {})
    for (name, g), (violations, s) in zip(graphs, outputs):
        degrees = [row.bit_count() for row in g.adj]
        want_diam = known.get(name)
        if want_diam is None:
            want_diam = _diameter(g)
        ok = (not violations and s.connected and s.diameter == want_diam
              and s.min_degree == min(degrees) and s.max_degree == max(degrees)
              and s.leaf_count == degrees.count(1))
        if not ok:
            result.failed += 1
            result.problems.append(f"{name}: {len(violations)} violations, "
                                   f"diameter {s.diameter} (expected {want_diam})")
    return result


def make_inputs(workload: str, seed: int):
    """Everything a workload's passes consume; replay and fuzz take no inputs."""
    if workload == "search":
        return search_inputs(seed)
    if workload == "lemma-large":
        return lemma_inputs(seed)
    return None
