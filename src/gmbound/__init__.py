"""Complexity upper bounds for closed orientable prime graph manifolds.

A manifold is described by a decomposition graph: vertices carry Seifert
fibre data, directed edges carry normalized determinant -1 gluing matrices.
The package validates such graphs and evaluates the three bound formulas
(regular, tree, general) with full breakdowns and witnesses.  The package
root exports the names in __all__; the rest is imported from its own module.
The brute-force oracles that check every optimized computation are in
gmbound.oracle, with the Farey flip search in gmbound.farey, and
`import gmbound` loads neither.
"""

from .bounds import BoundReport, best_bound, bound_general, bound_regular, bound_tree
from .gl2 import Gl2Matrix
from .graph import DecompositionGraph, Edge, build_graph, graph_from_json, graph_to_json, is_valid, validate
from .seifert import SeifertData, handle_count

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DecompositionGraph",
    "Edge",
    "Gl2Matrix",
    "SeifertData",
    "best_bound",
    "bound_general",
    "bound_regular",
    "bound_tree",
    "build_graph",
    "graph_from_json",
    "graph_to_json",
    "handle_count",
    "is_valid",
    "validate",
]
