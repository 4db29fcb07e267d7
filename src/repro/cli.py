"""Command-line interface.

Installed as the ``rted`` console script.  Sub-commands:

* ``rted distance  '{a{b}{c}}' '{a{b}{d}}'`` — distance between two trees
  (bracket notation by default, files with ``@path``);
* ``rted mapping   TREE1 TREE2`` — optimal edit script;
* ``rted compare   TREE1 TREE2`` — all paper algorithms on one pair;
* ``rted generate  --shape zigzag --size 31`` — emit a synthetic tree;
* ``rted join @collection.txt --threshold 3`` — corpus-indexed similarity
  self join (or ``--other @b.txt`` for a cross join) with the filter cascade
  and optional multiprocessing fan-out;
* ``rted query QUERY @collection.txt --top-k 5`` (or ``--range 3``) —
  one-vs-corpus retrieval through the query engine (kNN scans the corpus in
  size order; range queries take their candidates from the inverted index);
* ``rted serve @collection.txt --port 8617`` — HTTP serving layer with
  per-request deadlines, admission control, SIGTERM graceful drain, live
  corpus management (``POST /corpora``, ``POST /corpora/NAME/trees``,
  ``DELETE /corpora/NAME/trees/ID``) and epoch-keyed pair-result caching;
* ``rted experiment fig8|fig9|fig10|table1|table2|ablation`` — run one of the
  paper's experiments and print its table(s).

Library failures (malformed trees, unknown algorithms, unreadable files,
batch-execution aborts) exit with a one-line diagnostic on stderr and a
distinct nonzero status — see :data:`EXIT_CODES` — instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .api import compare_algorithms, compute, edit_script, parse_tree
from .algorithms.base import ENGINES
from .algorithms.registry import available_algorithms, canonical_algorithm
from .datasets.random_trees import random_tree
from .datasets.shapes import SHAPE_GENERATORS, make_shape
from .exceptions import (
    BatchExecutionError,
    ComputeTimeoutError,
    CutoffError,
    ParseError,
    QueryError,
    ReproError,
    TreeConstructionError,
    UnknownAlgorithmError,
    UnknownEngineError,
)
from .experiments import (
    ablation_strategy,
    fig8_subproblems,
    fig9_runtime,
    fig10_strategy_overhead,
    table1_join,
    table2_treefam,
)
from .api import similarity_join
from .io.bracket import parse_bracket_collection, to_bracket
from .visualize import render_tree

#: Exit codes per failure class (BSD ``sysexits.h`` conventions): usage
#: errors 64, malformed input data 65, unreadable input files 66, an
#: unrecoverable batch execution 69 (``EX_UNAVAILABLE``), any other library
#: error 70 (``EX_SOFTWARE``), an exceeded compute deadline 124 (matching
#: ``timeout(1)``), and Ctrl-C 130 (128 + SIGINT, the shell convention).
EXIT_CODES = {
    "usage": 64,
    "data": 65,
    "noinput": 66,
    "batch": 69,
    "software": 70,
    "timeout": 124,
    "interrupted": 130,
}


def _load_tree_argument(argument: str, fmt: Optional[str]):
    """A tree argument is inline text, or ``@path`` to read it from a file."""
    if argument.startswith("@"):
        with open(argument[1:], "r", encoding="utf-8") as handle:
            argument = handle.read()
    return parse_tree(argument, fmt=fmt)


def _load_collection_argument(argument: str):
    """A collection argument is ``@path`` to a bracket-per-line file."""
    if not argument.startswith("@"):
        raise SystemExit(
            f"collection arguments must be @path files, got {argument!r}"
        )
    with open(argument[1:], "r", encoding="utf-8") as handle:
        return parse_bracket_collection(handle.read())


def _build_parser() -> argparse.ArgumentParser:
    # Shared ``--algorithm`` settings: registry aliases (``zs``, ``klein``,
    # ``robust``, ...) resolve to their canonical name before argparse checks
    # the choices, as :func:`repro.algorithms.make_algorithm` resolves them.
    algorithm_argument = dict(
        default="rted", type=canonical_algorithm, choices=available_algorithms()
    )
    parser = argparse.ArgumentParser(
        prog="rted",
        description="RTED: robust tree edit distance (reproduction of Pawlik & Augsten, VLDB 2011)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    distance = subparsers.add_parser("distance", help="compute the tree edit distance")
    distance.add_argument("tree_f", help="first tree (inline or @file)")
    distance.add_argument("tree_g", help="second tree (inline or @file)")
    distance.add_argument("--algorithm", help="algorithm to use", **algorithm_argument)
    distance.add_argument(
        "--engine",
        default=None,
        choices=list(ENGINES),
        help="execution engine: auto (default, resolves to the iterative spf "
        "executor; rted runs unit-cost pairs whose cheaper Zhang-Shasha sweep "
        "fits the small-pair cell budget through the small-pair program "
        "instead), spf (fully iterative single-path functions for all path "
        "kinds), native (spf with a workspace: unit-cost pairs within the "
        "budget run the small-pair program), "
        "or recursive (the cross-check oracle)",
    )
    distance.add_argument("--format", dest="fmt", default=None, help="bracket | newick | xml")
    distance.add_argument(
        "--cutoff",
        type=float,
        default=None,
        help="bounded computation: print the exact distance when it is below "
        "the cutoff, or '>= <bound>' once distance >= cutoff is proven "
        "(aborting early instead of finishing the computation)",
    )
    distance.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds; on expiry exit 124 with a "
        "one-line diagnostic (cooperative: no partial output is printed)",
    )
    distance.add_argument("--verbose", action="store_true", help="print timings and subproblems")

    mapping = subparsers.add_parser("mapping", help="compute an optimal edit script")
    mapping.add_argument("tree_f")
    mapping.add_argument("tree_g")
    mapping.add_argument("--format", dest="fmt", default=None)

    compare = subparsers.add_parser("compare", help="run all paper algorithms on one pair")
    compare.add_argument("tree_f")
    compare.add_argument("tree_g")
    compare.add_argument("--format", dest="fmt", default=None)

    generate = subparsers.add_parser("generate", help="emit a synthetic tree in bracket notation")
    generate.add_argument(
        "--shape", default="random", choices=sorted(SHAPE_GENERATORS) + ["random"]
    )
    generate.add_argument("--size", type=int, default=31)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--render", action="store_true", help="also print an ASCII rendering")

    join = subparsers.add_parser(
        "join", help="similarity join over a collection of trees (TED < threshold)"
    )
    join.add_argument(
        "collection",
        help="collection file as @path (one bracket-notation tree per line, "
        "blank lines and # comments ignored)",
    )
    join.add_argument(
        "--other",
        default=None,
        help="second collection (@path) for a cross join; omitted = self join",
    )
    join.add_argument("--threshold", type=float, required=True, help="match when TED < τ")
    join.add_argument("--algorithm", help="exact verifier", **algorithm_argument)
    join.add_argument("--engine", default=None, choices=list(ENGINES))
    join.add_argument(
        "--no-cascade",
        action="store_true",
        help="disable the filter cascade (verify every pair exactly)",
    )
    join.add_argument("--workers", type=int, default=1, help="verification processes")
    join.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="supervised verification: tear down and retry if no chunk "
        "completes for this many seconds (hung-worker detection; default "
        "off, or the RTED_CHUNK_TIMEOUT environment variable)",
    )
    join.add_argument(
        "--chunk-retries",
        type=int,
        default=None,
        help="supervised verification: failed attempts per chunk before it "
        "falls back to in-process serial execution (default 3, or the "
        "RTED_CHUNK_RETRIES environment variable)",
    )
    join.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds for the whole join; on expiry the "
        "worker pool is torn down and the command exits 124",
    )
    join.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage join statistics to stderr (results on stdout "
        "stay machine-parseable)",
    )

    query = subparsers.add_parser(
        "query",
        help="one-vs-corpus retrieval: top-k nearest or range query",
    )
    query.add_argument("query", help="query tree (inline or @file)")
    query.add_argument(
        "collection",
        help="corpus file as @path (one bracket-notation tree per line, "
        "blank lines and # comments ignored)",
    )
    mode = query.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--top-k", type=int, default=None, help="return the k nearest corpus trees"
    )
    mode.add_argument(
        "--range",
        dest="range_threshold",
        type=float,
        default=None,
        help="return every corpus tree with TED < τ",
    )
    query.add_argument("--algorithm", help="exact verifier", **algorithm_argument)
    query.add_argument("--engine", default=None, choices=list(ENGINES))
    query.add_argument("--format", dest="fmt", default=None, help="bracket | newick | xml")
    query.add_argument(
        "--no-cascade",
        action="store_true",
        help="disable the filter cascade (refine every candidate exactly)",
    )
    query.add_argument("--workers", type=int, default=1, help="refinement processes")
    query.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds; on expiry the verified-so-far "
        "matches are printed with a '# partial result' marker on stderr "
        "(always a subset of the full answer) and the command exits 0",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print query statistics to stderr (results on stdout stay "
        "machine-parseable)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve distances/queries/joins over HTTP with per-request "
        "deadlines, admission control and graceful drain",
    )
    serve.add_argument(
        "corpora",
        nargs="*",
        help="corpus files as @path (registered as 'default', 'corpus1', "
        "...) or NAME=@path to pick the registration name",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8617,
        help="listen port (0 binds an ephemeral port, printed on stderr)",
    )
    serve.add_argument(
        "--algorithm", help="default algorithm for requests that name none",
        **algorithm_argument,
    )
    serve.add_argument("--engine", default=None, choices=list(ENGINES))
    serve.add_argument(
        "--workers", type=int, default=1, help="processes per join/refinement fan-out"
    )
    serve.add_argument(
        "--max-inflight", type=int, default=4,
        help="compute requests running concurrently",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16,
        help="admitted requests allowed to wait; beyond max-inflight + "
        "max-queue the service sheds with 503 + Retry-After",
    )
    serve.add_argument(
        "--default-deadline", type=float, default=None,
        help="budget (seconds) for requests that set no deadline",
    )
    serve.add_argument(
        "--max-deadline", type=float, default=None,
        help="upper clamp on client-requested deadlines",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="seconds SIGTERM waits for in-flight work before cancelling it",
    )
    serve.add_argument(
        "--pair-cache-size", type=int, default=1024,
        help="per-corpus epoch-keyed LRU capacity for /distance pair "
        "results (0 disables caching)",
    )

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument(
        "name", choices=["fig8", "fig9", "fig10", "table1", "table2", "ablation"]
    )

    return parser


def _dispatch(args) -> int:
    """Execute one parsed sub-command (library errors handled by ``main``)."""
    if args.command == "distance":
        tree_f = _load_tree_argument(args.tree_f, args.fmt)
        tree_g = _load_tree_argument(args.tree_g, args.fmt)
        result = compute(
            tree_f, tree_g, algorithm=args.algorithm, engine=args.engine,
            cutoff=args.cutoff, deadline=args.deadline,
        )
        if args.verbose:
            print(f"algorithm:   {result.algorithm}")
            if "engine" in result.extra:
                print(f"engine:      {result.extra['engine']}")
            print(f"kernel:      {result.extra['kernel']}")
            if "sweep" in result.extra:
                print(f"sweep:       {result.extra['sweep']}")
            if result.bounded:
                print(f"distance:    >= {result.cutoff:g} (lower bound {result.lower_bound:g})")
                print(f"aborted:     {'early' if result.aborted else 'final check'}")
            else:
                print(f"distance:    {result.distance}")
            print(f"subproblems: {result.subproblems}")
            print(f"strategy:    {result.strategy_time:.4f}s")
            print(f"total time:  {result.total_time:.4f}s")
        elif result.bounded:
            print(f">= {result.lower_bound:g}")
        else:
            print(result.distance)
        return 0

    if args.command == "mapping":
        tree_f = _load_tree_argument(args.tree_f, args.fmt)
        tree_g = _load_tree_argument(args.tree_g, args.fmt)
        for operation in edit_script(tree_f, tree_g):
            print(operation)
        return 0

    if args.command == "compare":
        tree_f = _load_tree_argument(args.tree_f, args.fmt)
        tree_g = _load_tree_argument(args.tree_g, args.fmt)
        results = compare_algorithms(tree_f, tree_g)
        for name, result in results.items():
            print(
                f"{name:12s} distance={result.distance:<8g} "
                f"subproblems={result.subproblems:<10d} time={result.total_time:.4f}s"
            )
        return 0

    if args.command == "generate":
        if args.shape == "random":
            tree = random_tree(args.size, rng=args.seed)
        else:
            tree = make_shape(args.shape, args.size)
        print(to_bracket(tree))
        if args.render:
            print(render_tree(tree, max_nodes=200))
        return 0

    if args.command == "join":
        from .join.supervisor import ExecutionPolicy

        collection = _load_collection_argument(args.collection)
        other = _load_collection_argument(args.other) if args.other else None
        policy = ExecutionPolicy.default()
        if args.chunk_timeout is not None:
            policy.chunk_timeout = args.chunk_timeout
        if args.chunk_retries is not None:
            policy.max_chunk_retries = args.chunk_retries
        result = similarity_join(
            collection,
            args.threshold,
            collection_b=other,
            algorithm=args.algorithm,
            engine=args.engine,
            use_cascade=not args.no_cascade,
            workers=args.workers,
            policy=policy,
            deadline=args.deadline,
        )
        for i, j, distance in result.matches:
            print(f"{i}\t{j}\t{distance:g}")
        if args.stats:
            # Stats go to stderr so piped stdout stays machine-parseable.
            stats = result.stats
            err = sys.stderr
            print(f"# pairs total:      {stats.pairs_total}", file=err)
            print(
                f"# candidates:       {stats.candidate_pairs} (index pruned {stats.index_pruned})",
                file=err,
            )
            for stage, count in stats.stage_pruned.items():
                print(f"# pruned by {stage}: {count}", file=err)
            print(f"# accepted early:   {stats.accepted_early}", file=err)
            print(f"# exact TED runs:   {stats.exact_computed}", file=err)
            print(f"# aborted early:    {stats.aborted_early}", file=err)
            print(f"# verify workers:   {stats.verify_workers}", file=err)
            if stats.retried_chunks or stats.failed_workers:
                print(f"# retried chunks:   {stats.retried_chunks}", file=err)
                print(f"# failed workers:   {stats.failed_workers}", file=err)
            if stats.degraded_to is not None:
                print(f"# degraded to:      {stats.degraded_to}", file=err)
            if stats.poisoned_pairs:
                print(f"# poisoned pairs:   {stats.poisoned_pairs}", file=err)
            print(f"# matches:          {stats.matches}", file=err)
            print(f"# filter rate:      {stats.filter_rate:.3f}", file=err)
            print(f"# total time:       {stats.total_time:.4f}s", file=err)
        return 0

    if args.command == "query":
        from .api import knn, range_query
        from .join.corpus import TreeCorpus

        query_tree = _load_tree_argument(args.query, args.fmt)
        corpus = TreeCorpus(_load_collection_argument(args.collection))
        options = dict(
            algorithm=args.algorithm,
            engine=args.engine,
            workers=args.workers,
            use_cascade=not args.no_cascade,
        )
        if args.top_k is not None:
            result = knn(query_tree, corpus, args.top_k, deadline=args.deadline, **options)
        else:
            result = range_query(
                query_tree, corpus, args.range_threshold, deadline=args.deadline, **options
            )
        for index, distance in result.matches:
            print(f"{index}\t{distance:g}")
        if result.stats.partial:
            print("# partial result: deadline expired mid-search", file=sys.stderr)
        if args.stats:
            # Stats go to stderr so piped stdout stays machine-parseable.
            stats = result.stats
            err = sys.stderr
            print(f"# corpus size:      {stats.corpus_size}", file=err)
            print(
                f"# candidates:       {stats.candidate_pairs} (index pruned {stats.index_pruned})",
                file=err,
            )
            for stage, count in stats.stage_pruned.items():
                print(f"# pruned by {stage}: {count}", file=err)
            print(f"# exact TED runs:   {stats.exact_computed}", file=err)
            print(f"# aborted early:    {stats.aborted_early}", file=err)
            print(f"# matches:          {stats.matches}", file=err)
            print(f"# total time:       {stats.total_time:.4f}s", file=err)
        return 0

    if args.command == "serve":
        from .join.corpus import TreeCorpus
        from .service import ServiceConfig, run_server

        corpora = {}
        for position, spec in enumerate(args.corpora):
            name, sep, path = spec.partition("=")
            if not sep:
                name, path = ("default" if position == 0 else f"corpus{position}"), spec
            if name in corpora:
                raise SystemExit(f"duplicate corpus name {name!r}")
            corpora[name] = TreeCorpus(_load_collection_argument(path))
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            default_deadline=args.default_deadline,
            max_deadline=args.max_deadline,
            drain_grace=args.drain_grace,
            pair_cache_size=args.pair_cache_size,
        )
        return run_server(
            corpora,
            config,
            algorithm=args.algorithm,
            engine=args.engine,
            workers=args.workers,
        )

    if args.command == "experiment":
        runners = {
            "fig8": lambda: fig8_subproblems.format_fig8(fig8_subproblems.run_fig8()),
            "fig9": lambda: fig9_runtime.format_fig9(fig9_runtime.run_fig9()),
            "fig10": lambda: fig10_strategy_overhead.format_fig10(
                fig10_strategy_overhead.run_fig10()
            ),
            "table1": lambda: table1_join.format_table1(table1_join.run_table1()),
            "table2": lambda: table2_treefam.format_table2(table2_treefam.run_table2()),
            "ablation": lambda: ablation_strategy.format_ablations(
                ablation_strategy.run_strategy_space_ablation(),
                ablation_strategy.run_strategy_computation_ablation(),
            ),
        }
        print(runners[args.name]())
        return 0

    return 1  # pragma: no cover - argparse enforces valid commands


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (returns a process exit code).

    Library errors are reported as a single ``rted: ...`` line on stderr
    with a failure-class exit code (:data:`EXIT_CODES`) — a malformed tree
    must not look like a crash.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        # Most parse messages already say "... at position N"; only append
        # the offset when the message itself doesn't carry it.
        where = ""
        if exc.position is not None and str(exc.position) not in str(exc):
            where = f" (at offset {exc.position})"
        print(f"rted: parse error: {exc}{where}", file=sys.stderr)
        return EXIT_CODES["data"]
    except TreeConstructionError as exc:
        print(f"rted: invalid tree: {exc}", file=sys.stderr)
        return EXIT_CODES["data"]
    except (UnknownAlgorithmError, UnknownEngineError, QueryError, CutoffError) as exc:
        print(f"rted: {exc}", file=sys.stderr)
        return EXIT_CODES["usage"]
    except BatchExecutionError as exc:
        print(f"rted: batch execution failed: {exc}", file=sys.stderr)
        return EXIT_CODES["batch"]
    except ComputeTimeoutError as exc:
        print(f"rted: {exc}", file=sys.stderr)
        return EXIT_CODES["timeout"]
    except KeyboardInterrupt:
        # The supervised fan-out has already torn down its worker pool on
        # the way up (supervisor._drain re-raises only after a hard
        # shutdown); report the conventional
        # SIGINT status instead of a traceback.
        print("rted: interrupted", file=sys.stderr)
        return EXIT_CODES["interrupted"]
    except ReproError as exc:
        print(f"rted: error: {exc}", file=sys.stderr)
        return EXIT_CODES["software"]
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"rted: cannot read input{where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CODES["noinput"]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
