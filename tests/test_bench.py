"""The bench rows reproduce the exact part of the latest run in their records.

A change that moves a value, node count or digest of these instances must
record a new run with ``scripts/bench.py``.  The slice keeps to instances
that take milliseconds, timed once; heuristic runs finish far inside their
deadline, and a startup run is one fresh interpreter.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "perfbench") not in sys.path:
    sys.path.append(str(ROOT / "perfbench"))
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SLICE = {
    "covers": (("ic", "complete:8"), ("ic", "complete:9"), ("ic", "complete:10"),
               ("ic", "complete:14"), ("ic", "kpartite:4,5,5"), ("ip", "kpartite:30,30"),
               ("ic", "S(cycle:8)"), ("chi", "S(cycle:9)"), ("ip", "G"), ("ic", "G"),
               ("chi", "G"), ("ip", "S(G)"), ("ic", "S(G)"), ("chi", "S(G)")),
    "metric": ((None, "S(cycle:40)"), (None, "lemma"), (None, "S(T)")),
    "enumerate": (("enumerate", "n<=5"), ("enumerate", "n<=6")),
    "fuzz": (("fuzz", "n<=6"),),
    "startup": tuple((None, command) for command in bench.STARTUP),
    "max_set": (("TMV", "S(tree:14:seed=3)"), ("ITMV", "S(tree:16:seed=1)"),
                ("GP", "S(cycle:40)"), ("MV", "S(balloon:3)"), ("MV", "S(T)"),
                *((prop, spec) for spec in ("G", "S(G)")
                  for prop in ("GP", "IGP", "MV", "IMV", "TMV", "ITMV"))),
    "heuristic": (("TMV", "S(tree:14:seed=3)"), ("GP", "S(kpartite:3,3,3)"),
                  ("MV", "S(kpartite:3,3,3)"), ("TMV", "S(balloon:2)")),
}


def _exact(result: dict) -> dict:
    return {k: v for k, v in result.items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", sorted(SLICE))
def test_row_slice_matches_latest_record(name):
    row = bench.ROWS[name]
    assert set(SLICE[name]) <= set(row.instances)
    if "repeat" in row.settings:
        row = row._replace(settings={**row.settings, "repeat": 1})
    runs = json.loads((ROOT / f"BENCH_{name}.json").read_text())["runs"]
    latest = list(runs.values())[-1][row.results]
    results = bench.run(row, SLICE[name])
    assert results
    for inst, result in results.items():
        assert _exact(result) == _exact(latest[inst]), inst
