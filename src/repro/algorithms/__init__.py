"""Tree edit distance algorithms: RTED, its competitors, and the GTED framework."""

from .base import (
    ENGINE_AUTO,
    ENGINE_NATIVE,
    ENGINE_RECURSIVE,
    ENGINE_SPF,
    ENGINES,
    BoundedResult,
    CutoffExceeded,
    Stopwatch,
    TEDAlgorithm,
    TEDResult,
    resolve_engine,
)
from .simple import SimpleTED, simple_ted
from .strategies import (
    ALL_FIXED_CHOICES,
    SIDE_F,
    SIDE_G,
    EncodedStrategy,
    HeavyFStrategy,
    HeavyGStrategy,
    HeavyLargerStrategy,
    LeftFStrategy,
    LeftGStrategy,
    PathChoice,
    PrecomputedStrategy,
    RightFStrategy,
    RightGStrategy,
    Strategy,
    fixed_strategy_for,
)
from .optimal_strategy import (
    OptimalStrategyResult,
    optimal_strategy,
)
from .forest_engine import DecompositionEngine
from .spf import SinglePathContext, spf_A, spf_H, spf_L, spf_R
from .workspace import LabelInterner, TedWorkspace, WorkspaceTED
from .batch_kernel import (
    CorpusPack,
    build_corpus_pack,
    kernel_chunk_entries,
    run_batch,
)
from .native import native_available, native_batch, native_provider
from .gted import GTED, StrategyExecutor
from .rted import RTED, rted
from .edit_mapping import EditMapping, EditOperation, compute_edit_mapping, mapping_cost
from .registry import (
    PAPER_ALGORITHMS,
    available_algorithms,
    make_algorithm,
    register_algorithm,
)

__all__ = [
    "TEDAlgorithm",
    "TEDResult",
    "BoundedResult",
    "CutoffExceeded",
    "Stopwatch",
    "ENGINE_AUTO",
    "ENGINE_NATIVE",
    "ENGINE_RECURSIVE",
    "ENGINE_SPF",
    "ENGINES",
    "resolve_engine",
    "SimpleTED",
    "simple_ted",
    "Strategy",
    "PathChoice",
    "PrecomputedStrategy",
    "EncodedStrategy",
    "LeftFStrategy",
    "RightFStrategy",
    "HeavyFStrategy",
    "LeftGStrategy",
    "RightGStrategy",
    "HeavyGStrategy",
    "HeavyLargerStrategy",
    "fixed_strategy_for",
    "ALL_FIXED_CHOICES",
    "SIDE_F",
    "SIDE_G",
    "OptimalStrategyResult",
    "optimal_strategy",
    "DecompositionEngine",
    "SinglePathContext",
    "spf_A",
    "spf_H",
    "spf_L",
    "spf_R",
    "LabelInterner",
    "TedWorkspace",
    "WorkspaceTED",
    "CorpusPack",
    "build_corpus_pack",
    "kernel_chunk_entries",
    "run_batch",
    "native_available",
    "native_batch",
    "native_provider",
    "GTED",
    "StrategyExecutor",
    "RTED",
    "rted",
    "EditMapping",
    "EditOperation",
    "compute_edit_mapping",
    "mapping_cost",
    "PAPER_ALGORITHMS",
    "available_algorithms",
    "make_algorithm",
    "register_algorithm",
]
