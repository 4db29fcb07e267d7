#!/usr/bin/env python3
"""Quickstart: compute tree edit distances, mappings, and compare algorithms.

Run with ``python examples/quickstart.py``.
"""

from repro import (
    compare_algorithms,
    compute,
    edit_script,
    parse_tree,
    tree_edit_distance,
)
from repro.visualize import render_tree


def main() -> None:
    # Trees can be written in bracket notation ({label{child}...}), Newick, or XML.
    original = parse_tree("{article{title}{authors{author}{author}}{year}}")
    revised = parse_tree("{article{title}{authors{author}}{venue}{year}}")

    print("Original document tree:")
    print(render_tree(original))
    print()
    print("Revised document tree:")
    print(render_tree(revised))
    print()

    # 1. The distance itself (RTED is the default algorithm).
    distance = tree_edit_distance(original, revised)
    print(f"Tree edit distance: {distance}")
    print()

    # 2. Full result with measurements (subproblems, strategy/overall time).
    #    Small unit-cost pairs run the small-pair program rather than RTED's
    #    own strategy (same distance, less overhead); extra["kernel"] names
    #    the program whose subproblems are counted.
    result = compute(original, revised, algorithm="rted")
    print(
        f"The {result.extra['kernel']} program evaluated "
        f"{result.subproblems} relevant subproblems "
        f"(strategy {result.strategy_time * 1000:.2f} ms, "
        f"total {result.total_time * 1000:.2f} ms)"
    )
    print()

    # 3. The optimal edit script explaining the distance.
    print("Optimal edit script:")
    for operation in edit_script(original, revised):
        if operation.op != "match":
            print(f"  - {operation}")
    print()

    # 4. Every algorithm of the paper computes the same distance, with a
    #    different amount of work.
    print("Algorithm comparison on this pair:")
    for name, algo_result in compare_algorithms(original, revised).items():
        print(
            f"  {name:10s}  distance={algo_result.distance:<4g}  "
            f"subproblems={algo_result.subproblems}"
        )
    print()

    # 5. Execution engines.  "spf" — the recommended default, and what
    #    "auto" resolves to for every GTED/RTED variant (rted, klein-h,
    #    demaine-h; zhang-l/r keep their dedicated Zhang–Shasha tables) —
    #    runs *every* strategy phase (left, right and heavy paths) through
    #    iterative, array-based single-path functions and, being
    #    recursion-free, handles arbitrarily deep trees without touching the
    #    interpreter recursion limit.  "recursive" is the reference oracle
    #    kept for cross-checking only.
    print("Engine comparison (rted):")
    for engine in ("spf", "recursive"):
        result = compute(original, revised, algorithm="rted", engine=engine)
        print(
            f"  engine={engine:9s}  distance={result.distance:<4g}  "
            f"time={result.total_time * 1000:.2f} ms"
        )

    # Deep trees are no problem for the iterative engine — even for RTED and
    # the heavy-path algorithms, which recursed (and needed a raised
    # recursion limit) before the spf engine existed.
    deep_bracket = "{a" * 2000 + "}" * 2000
    for algorithm in ("zhang-l", "klein-h", "rted"):
        deep_distance = tree_edit_distance(deep_bracket, original, algorithm=algorithm)
        print(f"2000-deep path tree vs document tree ({algorithm}): {deep_distance}")
    print()

    # 6. Bounded computation: when only "is the distance below τ?" matters
    #    (similarity search), pass cutoff=τ.  The exact distance comes back
    #    when it is below the cutoff (bit-identical to the unbounded run);
    #    otherwise the computation aborts as soon as d ≥ τ is proven and
    #    tree_edit_distance reports inf (compute returns a BoundedResult
    #    carrying the proving lower bound instead).
    unrelated = parse_tree("{www{x{y}}{z{z{z}}}}")
    print("Bounded computation (cutoff=3):")
    for other in (revised, unrelated):
        bounded = tree_edit_distance(original, other, cutoff=3.0)
        result = compute(original, other, cutoff=3.0)
        detail = (
            f"exact {result.distance}"
            if not result.bounded
            else f">= {result.cutoff:g} (lower bound {result.lower_bound:g}, "
            f"{'aborted early' if result.aborted else 'final check'})"
        )
        print(f"  vs {other.labels[other.root]!r:10s}: {bounded}  [{detail}]")


if __name__ == "__main__":
    main()
