"""RTED — the robust tree edit distance algorithm (Section 6 of the paper).

RTED first computes the optimal LRH strategy for the two input trees with
Algorithm 2 (:mod:`repro.algorithms.optimal_strategy`, ``O(n^2)`` time and
space) and then runs GTED with that strategy.  Its number of relevant
subproblems is, by construction of the optimal strategy, at most the number
computed by any of the fixed-strategy competitors (Zhang-L/R, Klein-H,
Demaine-H).

Like :class:`~repro.algorithms.gted.GTED`, the distance phase can run on
either execution engine: the iterative ``spf`` executor (the default), which
evaluates every step of the optimal strategy — left, right and heavy — with
array-based single-path functions and never recurses, or the recursive
reference engine kept as a cross-check oracle.
"""

from __future__ import annotations

from typing import Optional

from ..costs import CostModel
from ..runtime import active_deadline, as_deadline, deadline_scope
from ..trees.tree import Tree
from .base import (
    ENGINE_AUTO,
    ENGINE_SPF,
    BoundedResult,
    Stopwatch,
    TEDAlgorithm,
    TEDResult,
    precheck_bounded,
    resolve_cost_model,
    resolve_engine,
)
from .gted import run_engine
from .optimal_strategy import OptimalStrategyResult, optimal_strategy


class RTED(TEDAlgorithm):
    """Robust tree edit distance: optimal LRH strategy + GTED.

    Parameters
    ----------
    engine:
        Execution engine for the distance phase: ``"spf"`` (iterative
        single-path executor, also the ``"auto"`` default) or ``"recursive"``
        (the reference decomposition engine, kept as a cross-check oracle).
    workspace:
        Optional :class:`~repro.algorithms.workspace.TedWorkspace` feeding
        the ``spf`` engine's contexts from cross-pair caches (batch usage).
        Without one, or for a non-matching cost model, each call's context
        uses a private workspace; the recursive oracle ignores it.
    """

    name = "RTED"

    def __init__(self, engine: str = ENGINE_AUTO, workspace=None) -> None:
        self.engine = resolve_engine(engine)
        self.workspace = workspace

    def compute(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel] = None,
        cutoff: Optional[float] = None,
        deadline=None,
    ) -> TEDResult:
        with deadline_scope(as_deadline(deadline)):
            return self._compute(tree_f, tree_g, cost_model, cutoff)

    def _compute(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel],
        cutoff: Optional[float],
    ) -> TEDResult:
        engine = ENGINE_SPF if self.engine == ENGINE_AUTO else self.engine
        extra: dict = {"engine": engine}
        if cutoff is not None:
            # The size pre-check runs before Algorithm 2: a pair the bound
            # already settles skips the strategy computation entirely.
            watch = Stopwatch()
            watch.start()
            pre = precheck_bounded(
                tree_f, tree_g, resolve_cost_model(cost_model), cutoff, self.name,
                watch, extra,
            )
            if pre is not None:
                return pre
        strategy_watch = Stopwatch()
        strategy_watch.start()
        strategy_result: OptimalStrategyResult = optimal_strategy(tree_f, tree_g)
        strategy_time = strategy_watch.elapsed()

        ambient = active_deadline()
        if ambient is not None:
            # The strategy phase ticks once per row, amortized; settle the
            # ticks not yet polled here so an already-blown budget never
            # enters the (potentially much larger) distance phase.
            ambient.check()

        distance_watch = Stopwatch()
        distance_watch.start()
        distance, subproblems, bound = run_engine(
            engine, tree_f, tree_g, strategy_result.strategy, cost_model, extra,
            workspace=self.workspace, cutoff=cutoff,
        )
        distance_time = distance_watch.elapsed()

        extra["optimal_strategy_cost"] = strategy_result.cost
        if bound is not None:
            return BoundedResult(
                lower_bound=bound[0],
                cutoff=cutoff,
                algorithm=self.name,
                aborted=bound[1],
                subproblems=subproblems,
                strategy_time=strategy_time,
                distance_time=distance_time,
                n_f=tree_f.n,
                n_g=tree_g.n,
                extra=extra,
            )
        return TEDResult(
            distance=distance,
            algorithm=self.name,
            subproblems=subproblems,
            strategy_time=strategy_time,
            distance_time=distance_time,
            n_f=tree_f.n,
            n_g=tree_g.n,
            extra=extra,
        )


def rted(
    tree_f: Tree, tree_g: Tree, cost_model: Optional[CostModel] = None, engine: str = ENGINE_AUTO
) -> float:
    """Functional shortcut returning only the RTED distance."""
    return RTED(engine=engine).distance(tree_f, tree_g, cost_model=cost_model)
