"""High-level public API.

Most applications only need the functions in this module:

>>> from repro import tree_edit_distance, parse_tree
>>> t1 = parse_tree("{a{b}{c}}")
>>> t2 = parse_tree("{a{b}{d}}")
>>> tree_edit_distance(t1, t2)
1.0

The heavy lifting lives in the sub-packages (``repro.algorithms``,
``repro.counting``, ``repro.join``, ...) whose entry points are re-exported
from the package root.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Union

from .algorithms.base import (
    ENGINE_AUTO,
    BoundedResult,
    TEDResult,
    resolve_engine,
    validate_cutoff,
)
from .algorithms.edit_mapping import EditMapping, EditOperation, compute_edit_mapping
from .algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from .algorithms.rted import RTED
from .algorithms.workspace import TedWorkspace, WorkspaceTED
from .costs import CostModel
from .exceptions import ParseError
from .io.bracket import parse_bracket, to_bracket
from .io.newick import parse_newick
from .io.xml import xml_to_tree
from .join.batch import BatchJoinResult, batch_similarity_join
from .join.cascade import JoinStats
from .join.corpus import TreeCorpus
from .join.query import QueryResult, query_engine
from .runtime import as_deadline, deadline_scope
from .trees.node import Node
from .trees.tree import Tree

TreeLike = Union[Tree, Node, str]


def parse_tree(source: TreeLike, fmt: Optional[str] = None) -> Tree:
    """Convert ``source`` into an indexed :class:`Tree`.

    ``source`` may already be a :class:`Tree` (returned as-is), a
    :class:`Node` (indexed), or a string.  For strings the format is either
    given explicitly (``"bracket"``, ``"newick"``, ``"xml"``) or guessed from
    the first non-blank character: ``{`` → bracket, ``<`` → XML, ``(`` →
    Newick.
    """
    if isinstance(source, Tree):
        return source
    if isinstance(source, Node):
        return Tree(source)
    if not isinstance(source, str):
        raise ParseError(f"cannot build a tree from {type(source).__name__}")

    text = source.strip()
    if fmt is None:
        if text.startswith("{"):
            fmt = "bracket"
        elif text.startswith("<"):
            fmt = "xml"
        elif text.startswith("("):
            fmt = "newick"
        else:
            fmt = "bracket"

    fmt = fmt.lower()
    if fmt == "bracket":
        return parse_bracket(text)
    if fmt == "newick":
        return parse_newick(text)
    if fmt == "xml":
        return xml_to_tree(text)
    raise ParseError(f"unknown tree format {fmt!r}; expected 'bracket', 'newick' or 'xml'")


def tree_edit_distance(
    tree_f: TreeLike,
    tree_g: TreeLike,
    algorithm: str = "rted",
    cost_model: Optional[CostModel] = None,
    engine: Optional[str] = None,
    cutoff: Optional[float] = None,
    deadline: Optional[float] = None,
) -> float:
    """The tree edit distance between two trees.

    Parameters
    ----------
    tree_f, tree_g:
        Trees (or parseable tree descriptions, see :func:`parse_tree`).
    algorithm:
        ``"rted"`` (default), ``"zhang-l"``, ``"zhang-r"``, ``"klein-h"``,
        ``"demaine-h"``, or any other registered name.
    cost_model:
        Optional :class:`~repro.costs.CostModel`; defaults to unit costs.
    engine:
        Execution engine: ``"auto"`` (default), ``"spf"`` (the iterative
        single-path executor ``auto`` resolves to for every GTED/RTED
        variant), ``"recursive"`` (the strategy-driven reference oracle,
        kept for cross-checking), or ``"native"`` (the ``spf`` executor
        with a workspace, so small unit-cost pairs run the small-pair
        program — bit-identical to ``spf``).  The
        ``spf`` engine evaluates *every* strategy step — left, right and
        heavy paths — with array-based single-path functions: it is the
        fastest pure-Python/NumPy choice across algorithms and, being
        recursion-free, handles arbitrarily deep trees without touching
        the interpreter recursion limit.

        One exception at this API level: under ``auto``, ``"rted"`` (or an
        alias) on a unit-cost pair whose trees both have at most
        ``SMALL_PAIR_CUTOFF`` nodes (64; ``RTED_SMALL_PAIR_CUTOFF``) runs
        the small-pair program of
        :class:`~repro.algorithms.workspace.WorkspaceTED` instead of
        Algorithm 2 plus ``spf``.  Every strategy yields the same distance,
        so only the cost differs: the program is the C kernel when a
        compiler is available and its bit-identical Python twin otherwise.
        :func:`~repro.algorithms.registry.make_algorithm` keeps running the
        literal algorithm under ``auto``.
    cutoff:
        Optional bound ``τ``: when given, the exact distance is returned if
        it is below ``τ`` (bit-identical to the unbounded computation) and
        ``math.inf`` otherwise — the computation aborts as soon as
        ``distance ≥ τ`` is proven, which is much cheaper than finishing it.
        Use :func:`compute` to obtain the proving lower bound instead of
        ``inf``.  ``math.inf`` means no cutoff; a bool, a non-number or NaN
        raises :class:`~repro.exceptions.CutoffError`.
    deadline:
        Optional compute budget in seconds (or a pre-built
        :class:`~repro.runtime.Deadline`).  The kernels test it
        cooperatively at row granularity and raise
        :class:`~repro.exceptions.ComputeTimeoutError` once it expires;
        runs that finish in time are bit-identical to deadline-free runs.

    Examples
    --------
    >>> from repro import tree_edit_distance
    >>> tree_edit_distance("{a{b}{c}}", "{a{b}{d}}", algorithm="zhang-l", engine="spf")
    1.0
    >>> tree_edit_distance("{a{b}{c}}", "{x{y{z}}}", cutoff=2.0)
    inf
    """
    result = compute(
        tree_f, tree_g, algorithm=algorithm, cost_model=cost_model, engine=engine,
        cutoff=cutoff, deadline=deadline,
    )
    if result.bounded:
        return math.inf
    return result.distance


def compute(
    tree_f: TreeLike,
    tree_g: TreeLike,
    algorithm: str = "rted",
    cost_model: Optional[CostModel] = None,
    engine: Optional[str] = None,
    cutoff: Optional[float] = None,
    deadline: Optional[float] = None,
) -> Union[TEDResult, BoundedResult]:
    """Full computation result (distance, subproblem count, timings).

    ``engine`` selects the execution backend exactly as in
    :func:`tree_edit_distance`; the engine actually used is reported in
    ``result.extra["engine"]`` for algorithms that support several, and the
    program that produced the numbers in ``result.extra["kernel"]`` —
    ``"small-pair"`` for the small-pair program the default ``rted`` runs
    on small unit-cost pairs, ``"zhang-shasha"`` for the dedicated tables
    ``zhang-l``/``zhang-r`` use under ``auto``, ``"simple"`` for the
    reference oracle, otherwise the engine (``"spf"``, ...).
    ``result.subproblems`` counts the forest-distance cells that program
    evaluated: on the small-pair program that is the left-path program's
    count, which can exceed RTED's optimal count (about 3× in total on the
    deep, flat and caterpillar pairs of ``perfbench``'s ``pair-distance``,
    close to 1× on uniformly random trees) — the distance is the same.

    With ``cutoff=τ`` the computation is bounded: the returned object is the
    exact :class:`~repro.algorithms.base.TEDResult` when ``distance < τ``
    and a :class:`~repro.algorithms.base.BoundedResult` sentinel — carrying
    the lower bound that proves ``distance ≥ τ`` — otherwise.  Discriminate
    with ``result.bounded``.

    ``deadline`` (seconds or a :class:`~repro.runtime.Deadline`) arms the
    cooperative cancellation layer: the kernels check it amortized at row
    granularity and the call raises
    :class:`~repro.exceptions.ComputeTimeoutError` once the budget runs out.
    It is installed as the *ambient* deadline (:func:`repro.runtime.deadline_scope`)
    around the whole computation, so registered algorithms that predate the
    keyword still honor it through their instrumented kernels.
    """
    cutoff = validate_cutoff(cutoff)
    algo = make_algorithm(algorithm, engine=engine)
    f, g = parse_tree(tree_f), parse_tree(tree_g)
    if (
        type(algo) is RTED
        and algo.engine == ENGINE_AUTO
        and (cutoff is None or math.isfinite(cutoff))
    ):
        # The wrapper runs the small-pair program where its own gates admit
        # the pair (unit costs, both trees within SMALL_PAIR_CUTOFF,
        # internable labels) and hands every other pair to the wrapped RTED
        # unchanged.  The workspace is fresh per call: nothing is shared
        # across the service's compute threads, and ad-hoc labels cannot
        # grow a long-lived interner.  A -inf cutoff keeps RTED's handling.
        algo = WorkspaceTED(algo, TedWorkspace())
    with deadline_scope(as_deadline(deadline)):
        if cutoff is None:
            result = algo.compute(f, g, cost_model=cost_model)
        else:
            result = algo.compute(f, g, cost_model=cost_model, cutoff=cutoff)
    result.extra.setdefault("kernel", result.extra.get("engine", resolve_engine(engine)))
    return result


def edit_mapping(
    tree_f: TreeLike, tree_g: TreeLike, cost_model: Optional[CostModel] = None
) -> EditMapping:
    """An optimal node alignment between the two trees.

    Both the distance tables and the backtrace are evaluated iteratively, so
    arbitrarily deep trees are handled at the default recursion limit — this
    is a production API path, like ``engine="auto"`` distances.
    """
    return compute_edit_mapping(parse_tree(tree_f), parse_tree(tree_g), cost_model=cost_model)


def edit_script(
    tree_f: TreeLike, tree_g: TreeLike, cost_model: Optional[CostModel] = None
) -> List[EditOperation]:
    """An optimal edit script (delete / insert / rename operations)."""
    from .algorithms.base import resolve_cost_model

    f = parse_tree(tree_f)
    g = parse_tree(tree_g)
    cm = resolve_cost_model(cost_model)
    mapping = compute_edit_mapping(f, g, cost_model=cm)
    return mapping.to_edit_script(f, g, cm)


def compare_algorithms(
    tree_f: TreeLike,
    tree_g: TreeLike,
    algorithms: Optional[Sequence[str]] = None,
    cost_model: Optional[CostModel] = None,
    engine: Optional[str] = None,
) -> Dict[str, TEDResult]:
    """Run several algorithms on the same pair and collect their results.

    Useful for reproducing the robustness comparison of the paper on a single
    pair of trees: the distances must all agree while the subproblem counts
    and runtimes differ.

    ``engine`` selects the execution backend for *every* compared algorithm,
    exactly as in :func:`compute` — e.g. ``engine="recursive"`` cross-checks
    the whole panel on the reference oracle.  The backend each algorithm
    actually resolved is reported in ``result.extra["engine"]`` (algorithms
    with a single dedicated implementation, like the Zhang–Shasha tables
    that ``zhang-l``/``zhang-r`` use for ``auto``, report the requested
    selector).  Names that do not support engine selection (e.g.
    ``"simple"``) raise for any non-``auto`` engine, as in
    :func:`make_algorithm`.
    """
    names = list(algorithms) if algorithms is not None else list(PAPER_ALGORITHMS)
    resolved = resolve_engine(engine)
    f = parse_tree(tree_f)
    g = parse_tree(tree_g)
    results: Dict[str, TEDResult] = {}
    for name in names:
        result = make_algorithm(name, engine=engine).compute(f, g, cost_model=cost_model)
        result.extra.setdefault("engine", resolved)
        results[name] = result
    return results


def similarity_join(
    collection_a: Sequence[TreeLike],
    threshold: float,
    collection_b: Optional[Sequence[TreeLike]] = None,
    algorithm: str = "rted",
    cost_model: Optional[CostModel] = None,
    engine: Optional[str] = None,
    use_cascade: bool = True,
    workers: int = 1,
    progress: Optional[Callable[[JoinStats], None]] = None,
    workspace: bool = True,
    bounded_verify: bool = True,
    batch_kernel: bool = True,
    **kwargs,
) -> BatchJoinResult:
    """Corpus-indexed similarity join: all pairs with ``TED < threshold``.

    ``collection_b=None`` performs a self join over ``collection_a`` (pairs
    ``i < j``).  Elements may be trees or parseable tree descriptions (see
    :func:`parse_tree`).  The join computes per-tree filter artifacts once,
    generates candidates from a binary-branch inverted index, prunes with
    cost-model-scaled lower bounds, accepts early via the top-down upper
    bound, and verifies the survivors exactly — optionally fanned out over
    ``workers`` processes.  Returns a
    :class:`~repro.join.batch.BatchJoinResult` whose ``stats`` field carries
    the per-stage :class:`~repro.join.cascade.JoinStats`.

    ``workspace`` (default on) runs the verification stage through the
    amortized execution layer — per-tree frames, interned label cost tables
    and pooled matrices shared across all verified pairs, plus the unit-cost
    small-pair fast path; distances are bit-identical to per-call contexts.
    Pass ``workspace=False`` to force fresh per-pair contexts.

    ``bounded_verify`` (default on) verifies survivors with ``cutoff=τ``,
    aborting each exact computation as soon as ``TED ≥ τ`` is proven; the
    match set and every reported distance are identical either way, and
    ``result.stats.aborted_early`` counts the verifications cut short.

    ``batch_kernel`` (default on) verifies small unit-cost pairs through
    the struct-of-arrays batch kernel — one C kernel call per chunk (or
    the Python twin, lane by lane, without a compiler) instead of one
    per-pair ``compute()``; results are bit-identical, including
    subproblem counts.  In the ``workers > 1`` fan-out the corpus pack is
    exported once into ``multiprocessing.shared_memory`` and workers
    attach zero-copy (:mod:`repro.join.shared`).  Note a survivor set no
    larger than one chunk verifies serially regardless of ``workers``;
    ``result.stats.verify_workers`` records the count actually used.

    The ``workers > 1`` verification stage is *supervised*
    (:mod:`repro.join.supervisor`): crashed or hung workers are detected,
    failed chunks retried with capped backoff, and execution degrades down
    an exact-result ladder (shared-memory pack → local pack rebuild → no
    batch kernel → in-process serial) instead of aborting the join.  Pass
    ``policy=ExecutionPolicy(...)`` to tune retries and the hang timeout;
    the recovery telemetry lands in ``result.stats`` (``retried_chunks``,
    ``failed_workers``, ``degraded_to``, ``poisoned_pairs``).

    Examples
    --------
    >>> from repro import similarity_join
    >>> result = similarity_join(["{a{b}{c}}", "{a{b}{d}}", "{x{y{z}}}"], threshold=2.0)
    >>> result.match_set
    {(0, 1)}
    """
    trees_a = [parse_tree(tree) for tree in collection_a]
    trees_b = (
        [parse_tree(tree) for tree in collection_b] if collection_b is not None else None
    )
    return batch_similarity_join(
        trees_a,
        threshold,
        corpus_b=trees_b,
        algorithm=algorithm,
        cost_model=cost_model,
        engine=engine,
        use_cascade=use_cascade,
        workers=workers,
        progress=progress,
        workspace=workspace,
        bounded_verify=bounded_verify,
        batch_kernel=batch_kernel,
        **kwargs,
    )


def _query_corpus(collection) -> TreeCorpus:
    """Resolve a collection argument into a :class:`TreeCorpus`.

    Passing a prebuilt :class:`TreeCorpus` is the warm path: repeated
    queries against the same corpus object reuse the cached profiles,
    inverted indexes, batch-kernel pack and the lazily built metric index
    (engines are cached per corpus by :func:`repro.join.query.query_engine`).
    The corpus may be *live* — mutated via
    :meth:`~repro.join.corpus.TreeCorpus.add_trees` /
    :meth:`~repro.join.corpus.TreeCorpus.remove_trees` between calls — and
    results stay exact: the cached engine pins an epoch snapshot, answers
    over it plus an exactly-evaluated side list of newer trees, and rebuilds
    its metric index only past its staleness budget.  A plain sequence is
    parsed and wrapped fresh on every call.
    """
    if isinstance(collection, TreeCorpus):
        return collection
    return TreeCorpus([parse_tree(tree) for tree in collection])


def knn(
    query: TreeLike,
    corpus: Union[TreeCorpus, Sequence[TreeLike]],
    k: int,
    algorithm: str = "rted",
    cost_model: Optional[CostModel] = None,
    engine: Optional[str] = None,
    workers: int = 1,
    use_cascade: bool = True,
    use_metric_index: bool = True,
    deadline: Optional[float] = None,
    **kwargs,
) -> QueryResult:
    """The ``k`` corpus trees nearest to ``query`` (exact, ties by index).

    Runs the best-first metric-index search of
    :class:`~repro.join.query.QueryEngine` when the cost model is provably
    a metric, and a sound linear scan otherwise; either way the result is
    exactly the first ``k`` entries of the brute-force ``(distance, index)``
    ranking.  ``corpus`` may be a sequence of trees/parseable descriptions
    or a prebuilt :class:`~repro.join.corpus.TreeCorpus` — pass the corpus
    object to amortize indexes across a query stream; results reflect the
    corpus's *current* trees even after ``add_trees``/``remove_trees``
    mutations (exact, via the engine's snapshot + side-list machinery —
    ``result.stats.epoch``/``snapshot_epoch`` record what was queried
    against what).  Extra keyword
    arguments reach the :class:`QueryEngine` (``chunk_size``, ``leaf_size``,
    ``workspace``, ``batch_kernel``, ``policy``, ...).  ``deadline``
    (seconds or a :class:`~repro.runtime.Deadline`) is per *call*, not part
    of the cached engine: on expiry the best results examined so far come
    back with ``result.stats.partial = True``.

    Examples
    --------
    >>> from repro import knn
    >>> result = knn("{a{b}{c}}", ["{a{b}{c}{d}}", "{x{y}}", "{a{b}}"], k=2)
    >>> result.indices
    [0, 2]
    """
    engine_obj = query_engine(
        _query_corpus(corpus),
        algorithm=algorithm,
        cost_model=cost_model,
        engine=engine,
        workers=workers,
        use_cascade=use_cascade,
        use_metric_index=use_metric_index,
        **kwargs,
    )
    return engine_obj.knn(parse_tree(query), k, deadline=deadline)


def range_query(
    query: TreeLike,
    corpus: Union[TreeCorpus, Sequence[TreeLike]],
    threshold: float,
    algorithm: str = "rted",
    cost_model: Optional[CostModel] = None,
    engine: Optional[str] = None,
    workers: int = 1,
    use_cascade: bool = True,
    use_metric_index: bool = True,
    deadline: Optional[float] = None,
    **kwargs,
) -> QueryResult:
    """Every corpus tree with ``TED(query, tree) < threshold``, exactly.

    The one-vs-corpus counterpart of :func:`similarity_join` (same strict
    ``< τ`` match semantics), run through the planner/filter/refiner
    pipeline with metric-index candidate generation when the cost model
    passes the metric gate.  Results are ``(index, distance)`` sorted by
    ``(distance, index)``; distances are always exact.  See :func:`knn`
    for the ``corpus``, keyword-argument and ``deadline`` conventions (on
    expiry the matches found so far return with ``stats.partial = True`` —
    a subset of the full answer, never a wrong superset).  A non-finite
    ``threshold`` raises :class:`~repro.exceptions.QueryError`.

    Examples
    --------
    >>> from repro import range_query
    >>> result = range_query("{a{b}{c}}", ["{a{b}{c}{d}}", "{x{y}}", "{a{b}}"], 2.0)
    >>> result.indices
    [0, 2]
    """
    engine_obj = query_engine(
        _query_corpus(corpus),
        algorithm=algorithm,
        cost_model=cost_model,
        engine=engine,
        workers=workers,
        use_cascade=use_cascade,
        use_metric_index=use_metric_index,
        **kwargs,
    )
    return engine_obj.range_query(parse_tree(query), threshold, deadline=deadline)


def tree_to_bracket(tree: TreeLike) -> str:
    """Serialize a tree to bracket notation."""
    return to_bracket(parse_tree(tree))
