"""GTED — the general tree edit distance algorithm (Algorithm 1).

GTED computes the tree edit distance for *any* path strategy.  Two
interchangeable execution engines realize the recursive decomposition and the
single-path functions (see ``DESIGN.md`` for the architecture):

* ``engine="spf"`` (also the ``"auto"`` default) — the iterative
  :class:`StrategyExecutor` below, which walks the strategy's decomposition
  tree with an explicit stack and runs *every* strategy step — left, right
  and heavy — through the array-based single-path functions ``Δ_L`` / ``Δ_R``
  / ``Δ_A`` of :mod:`repro.algorithms.spf`.  No recursion is involved
  anywhere, so the interpreter recursion limit is never touched and
  arbitrarily deep trees are handled.
* ``engine="recursive"`` — the strategy-driven
  :class:`~repro.algorithms.forest_engine.DecompositionEngine`, a direct,
  hash-memoized transcription of the paper's recursion.  It is the reference
  oracle the tests cross-check against and is never entered by the default
  execution path.

``GTED(strategy)`` wires a strategy, a cost model, and an engine together and
reports the paper's measurements.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..costs import CostModel
from ..runtime import as_deadline, deadline_scope
from ..trees.tree import HEAVY, LEFT, RIGHT, Tree
from .base import (
    ENGINE_AUTO,
    ENGINE_RECURSIVE,
    ENGINE_SPF,
    BoundedResult,
    CutoffExceeded,
    Stopwatch,
    TEDAlgorithm,
    TEDResult,
    precheck_bounded,
    resolve_cost_model,
    resolve_engine,
)
from .spf import SinglePathContext
from .strategies import SIDE_F, PathChoice, Strategy

#: The inner-path program evaluates a ``(m+1)²`` boundary grid over the
#: non-decomposed subtree, while the paper's cost model charges a heavy step
#: ``|A(G_w)|`` — the number of subforests the full decomposition actually
#: reaches.  The two agree within a small constant for bushy trees, but for
#: path-degenerate subtrees ``|A|`` collapses to ``O(m)`` and the grid would
#: overcount quadratically.  When the mismatch exceeds this factor the
#: executor reroutes the step to the cheaper keyroot kind on the same side —
#: the distance is exact for *every* strategy, so this only trades one
#: decomposition order for a cheaper one on shapes the grid handles poorly.
GRID_OVERCOUNT_FACTOR = 16


class StrategyExecutor:
    """Iterative GTED driver over a path strategy (the ``spf`` engine).

    Walks the decomposition tree of Algorithm 1 with an explicit stack: every
    subtree pair becomes a *spine* run of the single-path function matching
    the strategy's choice — ``Δ_L`` / ``Δ_R`` in keyroot coordinates for
    left/right paths, the chain/grid program ``Δ_A`` for heavy paths —
    preceded by sub-tasks for the relevant subtrees hanging off that path.

    Invariant (shared with :class:`~repro.algorithms.spf.SinglePathContext`):
    once a pair ``(v, w)`` is done, ``D[x][y]`` is final for every
    ``x ∈ F_v, y ∈ G_w`` — exactly what an enclosing single-path run needs,
    regardless of the path kinds involved.
    """

    def __init__(
        self,
        tree_f: Tree,
        tree_g: Tree,
        strategy: Strategy,
        cost_model: Optional[CostModel] = None,
        use_numpy: Optional[bool] = None,
        workspace=None,
        cutoff: Optional[float] = None,
    ) -> None:
        self.tree_f = tree_f
        self.tree_g = tree_g
        self.strategy = strategy
        self.context = SinglePathContext(
            tree_f, tree_g, cost_model=cost_model, use_numpy=use_numpy, workspace=workspace,
            cutoff=cutoff, cutoff_pair=(tree_f.root, tree_g.root),
        )
        #: Relevant subproblems evaluated, in the paper's currency: keyroot
        #: table cells for left/right steps, chain-steps × |A(other)| for
        #: heavy steps (the terms of the cost formula of Figure 5).
        self.subproblems = 0
        #: Heavy steps rerouted by the grid-overcount guard (see
        #: :data:`GRID_OVERCOUNT_FACTOR`); non-zero only on path-degenerate
        #: shapes, and a visible marker that the executed decomposition
        #: deviated from the strategy's literal choice there.
        self.rerouted_steps = 0

    def distance(self) -> float:
        """Tree edit distance between the two whole trees."""
        tree_f, tree_g = self.tree_f, self.tree_g
        stack: List[Tuple[int, int, Optional[PathChoice]]] = [(tree_f.root, tree_g.root, None)]
        done: Set[Tuple[int, int]] = set()
        scheduled: Set[Tuple[int, int]] = set()

        while stack:
            v, w, choice = stack.pop()
            if choice is not None:
                # Phase 2 of a task: the off-path blocks are complete, run the
                # single-path function along the chosen spine.
                self.context.run(choice.side, choice.kind, v, w, spine_only=True)
                done.add((v, w))
                continue
            if (v, w) in done or (v, w) in scheduled:
                continue

            choice = self._executable_choice(
                self.strategy.choose(tree_f, tree_g, v, w), v, w
            )
            scheduled.add((v, w))
            stack.append((v, w, choice))
            if choice.side == SIDE_F:
                for root in tree_f.relevant_subtrees(v, choice.kind):
                    if (root, w) not in done:
                        stack.append((root, w, None))
            else:
                for root in tree_g.relevant_subtrees(w, choice.kind):
                    if (v, root) not in done:
                        stack.append((v, root, None))

        self.subproblems = self.context.cells
        return float(self.context.D[tree_f.root][tree_g.root])

    def _executable_choice(self, choice: PathChoice, v: int, w: int) -> PathChoice:
        """Guard heavy steps against pathological boundary-grid blowup.

        See :data:`GRID_OVERCOUNT_FACTOR`.  Heavy steps whose grid cost is
        within a small factor of the paper's cost model execute unchanged;
        only steps whose other-side subtree is path-degenerate (tiny
        ``|A|``) are rerouted to the cheaper of the two keyroot kinds on the
        same side.
        """
        if choice.kind != HEAVY:
            return choice
        if choice.side == SIDE_F:
            dec_tree, dec_root = self.tree_f, v
            oth_tree, oth_root = self.tree_g, w
        else:
            dec_tree, dec_root = self.tree_g, w
            oth_tree, oth_root = self.tree_f, v
        m = oth_tree.sizes[oth_root]
        if (m + 1) ** 2 <= GRID_OVERCOUNT_FACTOR * oth_tree.full_decomposition_sizes()[oth_root]:
            return choice
        left_cost = (
            dec_tree.left_decomposition_sizes()[dec_root]
            * oth_tree.left_decomposition_sizes()[oth_root]
        )
        right_cost = (
            dec_tree.right_decomposition_sizes()[dec_root]
            * oth_tree.right_decomposition_sizes()[oth_root]
        )
        self.rerouted_steps += 1
        return PathChoice(choice.side, LEFT if left_cost <= right_cost else RIGHT)


def run_engine(
    engine: str,
    tree_f: Tree,
    tree_g: Tree,
    strategy: Strategy,
    cost_model: Optional[CostModel],
    extra: dict,
    workspace=None,
    cutoff: Optional[float] = None,
) -> Tuple[Optional[float], int, Optional[Tuple[float, bool]]]:
    """Execute a strategy on the resolved engine (shared by GTED and RTED).

    Returns ``(distance, subproblems, bound)`` and records engine
    diagnostics (``rerouted_steps`` for the iterative executor) into
    ``extra``.  ``bound`` is ``None`` for an exact sub-cutoff (or unbounded)
    result; otherwise it is ``(lower_bound, aborted)`` proving
    ``distance ≥ cutoff`` — ``aborted`` tells whether the kernels cut the
    computation short or the full distance merely landed at/above the cutoff
    — and ``distance`` is ``None``.  The optional
    :class:`~repro.algorithms.workspace.TedWorkspace` feeds the iterative
    executor's context from cross-pair caches (the recursive oracle never
    uses it); its pooled distance matrix is released once the final distance
    has been read, abort or not.
    """
    if engine == ENGINE_RECURSIVE:
        # The recursive oracle never aborts mid-computation; bounded calls
        # run it to completion and apply the final check only.
        from .forest_engine import DecompositionEngine

        recursive = DecompositionEngine(tree_f, tree_g, strategy, cost_model=cost_model)
        distance, subproblems = recursive.distance(), recursive.subproblems
    else:
        # ``spf`` and ``native`` run the same iterative executor; ``native``
        # differs only in the workspace the registry attaches.
        executor = StrategyExecutor(
            tree_f, tree_g, strategy, cost_model=cost_model, workspace=workspace,
            cutoff=cutoff,
        )
        try:
            distance = executor.distance()
        except CutoffExceeded as exceeded:
            extra["rerouted_steps"] = executor.rerouted_steps
            return None, executor.context.cells, (exceeded.lower_bound, True)
        finally:
            executor.context.release()
        extra["rerouted_steps"] = executor.rerouted_steps
        subproblems = executor.subproblems
    if cutoff is not None and distance >= cutoff:
        return None, subproblems, (distance, False)
    return distance, subproblems, None


class GTED(TEDAlgorithm):
    """General tree edit distance algorithm parameterized by a path strategy.

    Parameters
    ----------
    strategy:
        Any :class:`~repro.algorithms.strategies.Strategy`; fixed strategies
        reproduce the published algorithms, a strategy produced by
        Algorithm 2 reproduces RTED.  Note that on path-degenerate shapes the
        ``spf`` executor may reroute individual heavy steps to an equivalent
        left/right decomposition (reported as ``extra["rerouted_steps"]``,
        see :data:`GRID_OVERCOUNT_FACTOR`); the distance is exact for every
        strategy, but callers studying an algorithm's *work profile* should
        use the exact counters in :mod:`repro.counting` or
        ``engine="recursive"``, which always follows the literal strategy.
    name:
        Optional display name; defaults to ``"GTED(<strategy>)"``.
    engine:
        Execution engine: ``"spf"`` (iterative single-path executor, also the
        ``"auto"`` default) or ``"recursive"`` (the reference decomposition
        engine, kept as a cross-check oracle).
    workspace:
        Optional :class:`~repro.algorithms.workspace.TedWorkspace` whose
        cross-pair caches (frames, cost arrays, interned rename tables,
        pooled matrices) feed the ``spf`` engine's contexts.  Ignored by the
        recursive oracle, and bypassed per call when the supplied cost model
        does not match the workspace's.
    """

    def __init__(
        self,
        strategy: Strategy,
        name: Optional[str] = None,
        engine: str = ENGINE_AUTO,
        workspace=None,
    ) -> None:
        self.strategy = strategy
        self.engine = resolve_engine(engine)
        self.workspace = workspace
        self.name = name if name is not None else f"GTED({strategy.name})"

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
        watch = Stopwatch()
        watch.start()
        extra = {"engine": engine}
        pre = precheck_bounded(
            tree_f, tree_g, resolve_cost_model(cost_model), cutoff, self.name,
            watch, extra,
        )
        if pre is not None:
            return pre
        distance, subproblems, bound = run_engine(
            engine, tree_f, tree_g, self.strategy, cost_model, extra,
            workspace=self.workspace, cutoff=cutoff,
        )
        if bound is not None:
            return BoundedResult(
                lower_bound=bound[0],
                cutoff=cutoff,
                algorithm=self.name,
                aborted=bound[1],
                subproblems=subproblems,
                distance_time=watch.elapsed(),
                n_f=tree_f.n,
                n_g=tree_g.n,
                extra=extra,
            )
        return TEDResult(
            distance=distance,
            algorithm=self.name,
            subproblems=subproblems,
            distance_time=watch.elapsed(),
            n_f=tree_f.n,
            n_g=tree_g.n,
            extra=extra,
        )
