"""Complexity upper bounds for closed orientable prime graph manifolds.

A manifold is described by a decomposition graph: vertices carry Seifert
fibre data, directed edges carry normalized determinant -1 gluing matrices.
The package validates such graphs, evaluates the three bound formulas
(regular, tree, general) with full breakdowns and witnesses, and ships
brute-force oracles for every optimized computation.
"""

from .bounds import (
    DEFAULT_ASSIGNMENT_CAP,
    BoundReport,
    TheoremInapplicable,
    VertexTerms,
    best_bound,
    bound_general,
    bound_regular,
    bound_tree,
    f,
)
from .farey import (
    TAU_MINUS,
    TAU_PLUS,
    FareyTriangle,
    Slope,
    act,
    cf_sum,
    complexity_by_search,
    farey_distance,
    matrix_complexity,
    slope,
    triangle,
)
from .gl2 import H, IDENTITY, U, Gl2Matrix, compose, is_normalized, is_plus_minus_h, normalize, power_u
from .graph import (
    DecompositionGraph,
    DegreeStats,
    Edge,
    GraphFormatError,
    Violation,
    build_graph,
    degree_stats,
    graph_from_json,
    graph_to_json,
    is_valid,
    normalize_all,
    normalize_edge,
    validate,
)
from .oracle import LemmaReport, MinFResult, bruteforce_min_f, bruteforce_phi, verify_lemma
from .seifert import SeifertData, handle_count, validate_class_s
from .spanning import (
    DEFAULT_TREE_CAP,
    CapExceeded,
    capital_phi,
    is_spanning_tree,
    iter_spanning_trees,
    optimal_trees,
    phi,
)

__version__ = "0.1.0"

# the names the README documents and the tests and the benchmark import from
# the package itself; every name imported above stays importable explicitly
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
