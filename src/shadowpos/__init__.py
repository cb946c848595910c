"""Exact combinatorics of position and visibility invariants on shadow graphs."""

from .families import FamilySpec, enumerate_connected, generate, parse_family_spec, random_tree
from .graph_core import (
    DistanceTable,
    Graph,
    GraphError,
    build_graph,
    distances,
    structural_queries,
)
from .shadow import ShadowGraph, shadow, star_shadow
from .solvers import (
    InvariantReport,
    chromatic_number,
    isometric_cycle_cover,
    isometric_path_cover,
    max_set,
    max_set_heuristic,
)
from .verify import SuiteParams, fuzz, run_suite
from .visibility import SetProperty

__all__ = [
    "DistanceTable", "FamilySpec", "Graph", "GraphError", "InvariantReport",
    "SetProperty", "ShadowGraph", "SuiteParams", "build_graph",
    "chromatic_number", "distances", "enumerate_connected", "fuzz", "generate",
    "isometric_cycle_cover", "isometric_path_cover", "max_set",
    "max_set_heuristic", "parse_family_spec", "random_tree", "run_suite",
    "shadow", "star_shadow", "structural_queries",
]

__version__ = "0.1.0"
