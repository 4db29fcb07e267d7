"""repro — a reproduction of "RTED: A Robust Algorithm for the Tree Edit Distance".

The package implements the RTED algorithm of Pawlik & Augsten (PVLDB 2011)
together with the competitors it is evaluated against (Zhang & Shasha, Klein,
Demaine et al.), the GTED framework and optimal-strategy computation that
underpin it, subproblem-counting tools, distance bounds, similarity joins,
dataset generators, and harnesses that regenerate every figure and table of
the paper's experimental evaluation.

Quick start
-----------
>>> import repro
>>> t1 = repro.parse_tree("{a{b}{c{d}}}")
>>> t2 = repro.parse_tree("{a{c{d}}{e}}")
>>> repro.tree_edit_distance(t1, t2)
2.0
>>> repro.compute(t1, t2, algorithm="rted").subproblems > 0
True
"""

from .api import (
    compare_algorithms,
    compute,
    edit_mapping,
    edit_script,
    knn,
    parse_tree,
    range_query,
    similarity_join,
    tree_edit_distance,
    tree_to_bracket,
)
from .algorithms import (
    GTED,
    RTED,
    BoundedResult,
    SimpleTED,
    TEDAlgorithm,
    TEDResult,
    available_algorithms,
    make_algorithm,
    optimal_strategy,
)
from .algorithms.workspace import LabelInterner, TedWorkspace
from .costs import (
    CostModel,
    PerLabelCostModel,
    StringRenameCostModel,
    UnitCostModel,
    WeightedCostModel,
)
from .exceptions import (
    CostModelError,
    InvalidNodeError,
    ParseError,
    ReproError,
    StrategyError,
    TreeConstructionError,
    UnknownAlgorithmError,
)
from .join import (
    BatchJoinResult,
    JoinStats,
    QueryEngine,
    QueryResult,
    TreeCorpus,
    VPTree,
    batch_distances,
)
from .trees import Node, Tree, tree_from_nested, tree_from_parent_array

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # High-level API
    "tree_edit_distance",
    "compute",
    "edit_mapping",
    "edit_script",
    "compare_algorithms",
    "parse_tree",
    "tree_to_bracket",
    # Batch joins and queries
    "similarity_join",
    "knn",
    "range_query",
    "QueryEngine",
    "QueryResult",
    "VPTree",
    "TreeCorpus",
    "BatchJoinResult",
    "JoinStats",
    "batch_distances",
    "TedWorkspace",
    "LabelInterner",
    # Trees
    "Node",
    "Tree",
    "tree_from_nested",
    "tree_from_parent_array",
    # Algorithms
    "TEDAlgorithm",
    "TEDResult",
    "BoundedResult",
    "RTED",
    "GTED",
    "SimpleTED",
    "optimal_strategy",
    "make_algorithm",
    "available_algorithms",
    # Cost models
    "CostModel",
    "UnitCostModel",
    "WeightedCostModel",
    "PerLabelCostModel",
    "StringRenameCostModel",
    # Exceptions
    "ReproError",
    "ParseError",
    "TreeConstructionError",
    "InvalidNodeError",
    "UnknownAlgorithmError",
    "StrategyError",
    "CostModelError",
]
