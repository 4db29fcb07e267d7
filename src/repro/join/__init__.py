"""Similarity joins and query-centric retrieval over tree collections.

Two layers:

* the **retrieval core** — the planner/filter/refiner pipeline
  (:mod:`repro.join.pipeline`) composing candidate sources (shared binary
  branches over the pair arrays of :mod:`repro.join.pairs`), the ordered
  filter cascade and the batched exact refiner; the all-pairs join
  (:func:`batch_similarity_join`) and one-vs-corpus queries
  (:class:`~repro.join.query.QueryEngine` — ``knn`` / ``range_query``) are
  both compositions of it;
* the **batch subsystem** (v2) — :class:`TreeCorpus` per-tree artifacts and
  the chunked/multiprocessing exact verifier (:func:`batch_distances`),
  whose fan-out is supervised: dead/hung workers recovered, failed chunks
  retried, degradation down an exact-result ladder
  (:mod:`repro.join.supervisor`, testable via :mod:`repro.join.faults`).
"""

from .batch import (
    BatchJoinResult,
    batch_distances,
    batch_self_join,
    batch_similarity_join,
)
from .metric_index import VPTree, metric_eligible
from .pipeline import (
    AllPairsSource,
    BatchRefiner,
    CandidateSet,
    CandidateSource,
    JoinIndexSource,
    PairFilters,
    Planner,
    QueryIndexSource,
    Refiner,
    RetrievalPlan,
    execute_plan,
)
from .query import QueryEngine, QueryResult, QueryStats, query_engine
from .cascade import (
    ArrayStage,
    BinaryBranchFilter,
    CascadeContext,
    FilterStage,
    JoinStats,
    LabelFilter,
    SizeFilter,
    TraversalStringFilter,
    UpperBoundAccept,
    default_cascade,
    operations_threshold,
)
from .corpus import CorpusSnapshot, TreeCorpus, TreeProfile
from .pairs import CandidatePairs, FilterArrays, branch_candidate_pairs
from .faults import FaultPlan
from .supervisor import (
    ExecutionPolicy,
    ExecutionReport,
    PoisonedPair,
    run_supervised,
)

__all__ = [
    # Retrieval core (planner / filter / refiner)
    "CandidateSource",
    "Refiner",
    "CandidateSet",
    "AllPairsSource",
    "JoinIndexSource",
    "QueryIndexSource",
    "BatchRefiner",
    "Planner",
    "PairFilters",
    "RetrievalPlan",
    "execute_plan",
    "VPTree",
    "metric_eligible",
    "QueryEngine",
    "QueryResult",
    "QueryStats",
    "query_engine",
    # Batch subsystem (v2)
    "TreeCorpus",
    "CorpusSnapshot",
    "TreeProfile",
    "branch_candidate_pairs",
    "CandidatePairs",
    "FilterArrays",
    # Supervised execution / fault tolerance
    "ExecutionPolicy",
    "ExecutionReport",
    "PoisonedPair",
    "run_supervised",
    "FaultPlan",
    "BatchJoinResult",
    "batch_distances",
    "batch_self_join",
    "batch_similarity_join",
    "JoinStats",
    "FilterStage",
    "ArrayStage",
    "CascadeContext",
    "SizeFilter",
    "LabelFilter",
    "TraversalStringFilter",
    "BinaryBranchFilter",
    "UpperBoundAccept",
    "default_cascade",
    "operations_threshold",
]
