"""The join's pair-array cascade against a per-pair reference.

Candidate generation and the size, label and binary-branch stages run over
arrays of pair indices (:mod:`repro.join.pairs`, :meth:`PairFilters.run`).
The reference below is written pair by pair with ``Counter`` multisets —
the bounds as the cascade defines them — and the pipeline must reproduce
its candidate count, index prunes, per-stage prunes, survivor order and
matches exactly.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import batch_kernel, make_algorithm
from repro.algorithms.base import resolve_cost_model
from repro.algorithms.batch_kernel import SMALL_PAIR_CELLS, choose_sweep, sweep_sizes
from repro.bounds import binary_branch_profile
from repro.costs import WeightedCostModel
from repro.datasets import clustered_corpus, random_tree
from repro.exceptions import ComputeTimeoutError
from repro.join import (
    BatchRefiner,
    FilterStage,
    JoinStats,
    Planner,
    QueryEngine,
    SizeFilter,
    TreeCorpus,
    batch_similarity_join,
    operations_threshold,
)
from repro.join import cascade as cascade_module
from repro.join import pairs as pairs_module
from repro.join.cascade import CONTINUE
from repro.runtime import CancelToken, Deadline

EXACT = make_algorithm("zhang-l")


def reference_candidates(trees_a, trees_b, ops):
    """Candidates in lexicographic order as the per-pair index defined them:
    pairs sharing a binary branch plus the small-size sweep, or every pair
    at ``ops = inf`` and past the posting-product guard."""
    self_join = trees_b is None
    side_b = trees_a if self_join else trees_b
    if self_join:
        every = [(i, j) for i in range(len(trees_a)) for j in range(i + 1, len(trees_a))]
    else:
        every = [(i, j) for i in range(len(trees_a)) for j in range(len(side_b))]
    if ops == math.inf:
        return every, 0
    postings_a, postings_b = defaultdict(list), defaultdict(list)
    for i, tree in enumerate(trees_a):
        for branch in binary_branch_profile(tree):
            postings_a[branch].append(i)
    for j, tree in enumerate(side_b):
        for branch in binary_branch_profile(tree):
            postings_b[branch].append(j)
    work = sum(len(p) * len(postings_b.get(key, ())) for key, p in postings_a.items())
    if work > 8 * max(len(every), 1):
        return every, 0
    shared = set()
    for key, p in postings_a.items():
        for i in p:
            for j in postings_b.get(key, ()):
                if self_join and i < j or not self_join:
                    shared.add((i, j))
    budget = 5.0 * ops
    found = []
    for i, j in every:
        small, large = sorted((trees_a[i].n, side_b[j].n)) if self_join else (
            trees_a[i].n, side_b[j].n
        )
        if (i, j) in shared or large < budget - small:
            found.append((i, j))
    return found, len(every) - len(found)


def reference_cascade(corpus_a, corpus_b, candidates, threshold, cost_model, small_pair):
    """Per-pair cascade: ``(stage_pruned, survivors, accepted)``."""
    ops = operations_threshold(threshold, cost_model)
    side_b = corpus_a if corpus_b is None else corpus_b
    ctx = Planner(cost_model)._context(threshold)
    stages = cascade_module.default_cascade()
    stage_pruned, survivors, accepted = Counter(), [], []
    for i, j in candidates:
        a, b = corpus_a.trees[i], side_b.trees[j]
        decision = CONTINUE
        for stage in stages:
            if ops == math.inf and stage.requires_ops_threshold:
                continue
            if stage.quadratic and small_pair(a, b):
                continue
            if stage.name == "size":
                prune = abs(a.n - b.n) >= ops
            elif stage.name == "label":
                common = sum((Counter(a.labels) & Counter(b.labels)).values())
                prune = max(a.n, b.n) - common >= ops
            elif stage.name == "binary-branch":
                common = sum(
                    (binary_branch_profile(a) & binary_branch_profile(b)).values()
                )
                prune = (a.n + b.n - 2 * common) / 5.0 >= ops
            else:
                decision = stage.apply(corpus_a.profile(i), side_b.profile(j), ctx)
                if decision == "accept":
                    accepted.append((i, j, ctx.accept_value))
                    break
                prune = decision == "prune"
            if prune:
                stage_pruned[stage.name] += 1
                decision = "prune"
                break
        if decision == CONTINUE:
            survivors.append((i, j))
    return dict(stage_pruned), survivors, accepted


def unit_small_pair(a, b):
    return choose_sweep(sweep_sizes(a), sweep_sizes(b), SMALL_PAIR_CELLS) is not None


COST_MODELS = {
    # name: (cost model, threshold scale, small-pair verified pairs)
    "unit": (None, 1.0, unit_small_pair),
    "weighted": (WeightedCostModel(2.0, 2.0, 3.0), 2.0, lambda a, b: False),
    "zero-min": (WeightedCostModel(0.0, 1.0, 1.0), 1.0, lambda a, b: False),
}


def check_against_reference(corpus_a, corpus_b, threshold, cost_name):
    model, scale, small_pair = COST_MODELS[cost_name]
    threshold *= scale
    cm = resolve_cost_model(model)
    ops = operations_threshold(threshold, cm)
    trees_b = None if corpus_b is None else corpus_b.trees
    candidates, skipped = reference_candidates(corpus_a.trees, trees_b, ops)
    stage_pruned, survivors, accepted = reference_cascade(
        corpus_a, corpus_b, candidates, threshold, cm, small_pair
    )

    # The driver itself: candidate arrays, the branch intersections they
    # carry, and the survivor list in order.
    refiner = BatchRefiner(corpus_a, corpus_b, cost_model=model)
    plan = Planner(cm).plan_join(corpus_a, corpus_b, threshold, refiner)
    generated = plan.source.candidates(plan.ctx)
    assert list(generated.pairs) == candidates
    assert generated.pruned == skipped
    side_b = corpus_a if corpus_b is None else corpus_b
    shared = generated.pairs.shared
    if shared is not None:
        for (i, j), common in zip(candidates, shared.tolist()):
            profile_a = binary_branch_profile(corpus_a.trees[i])
            profile_b = binary_branch_profile(side_b.trees[j])
            assert common == sum((profile_a & profile_b).values())
    stats = JoinStats()
    got_survivors, got_accepted = plan.filters.run(
        generated.pairs, corpus_a, corpus_b, plan.ctx, stats
    )
    assert got_survivors == survivors
    assert got_accepted == accepted
    assert stats.stage_pruned == stage_pruned
    assert stats.accepted_early == len(accepted)

    # The whole join.
    result = batch_similarity_join(corpus_a, threshold, corpus_b=corpus_b, cost_model=model)
    assert result.stats.candidate_pairs == len(candidates)
    assert result.stats.index_pruned == skipped
    assert result.stats.stage_pruned == stage_pruned
    assert result.stats.accepted_early == len(accepted)
    assert result.stats.exact_computed == len(survivors)
    expected = dict(((i, j), d) for i, j, d in accepted)
    for i, j in survivors:
        distance = EXACT.compute(corpus_a.trees[i], side_b.trees[j], cost_model=cm).distance
        if distance < threshold:
            expected[(i, j)] = distance
    assert [(i, j) for i, j, _ in result.matches] == sorted(expected)
    for i, j, distance in result.matches:
        assert distance == pytest.approx(expected[(i, j)])


@st.composite
def tree_lists(draw, min_size=2, max_size=9):
    alphabet = draw(st.sampled_from(["ab", "abcd", "abcdefgh"]))
    specs = draw(
        st.lists(
            st.tuples(st.integers(1, 10), st.integers(0, 10**6)),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return [random_tree(n, alphabet=list(alphabet), rng=seed) for n, seed in specs]


THRESHOLDS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
BLOCKS = st.sampled_from([(2, 3), (3, 5), (4096, 1 << 16)])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    trees=tree_lists(max_size=10),
    mode=st.sampled_from(["self", "cross", "live"]),
    cost=st.sampled_from(sorted(COST_MODELS)),
    threshold=THRESHOLDS,
    blocks=BLOCKS,
    drop=st.lists(st.integers(0, 20), max_size=4),
)
def test_array_cascade_matches_per_pair_reference(trees, mode, cost, threshold, blocks, drop):
    pair_block, emit_chunk = blocks
    with mock.patch.object(cascade_module, "PAIR_BLOCK", pair_block), mock.patch.object(
        pairs_module, "EMIT_CHUNK", emit_chunk
    ):
        if mode == "self":
            check_against_reference(TreeCorpus(trees), None, threshold, cost)
        elif mode == "cross":
            half = len(trees) // 2
            check_against_reference(
                TreeCorpus(trees[:half]), TreeCorpus(trees[half:]), threshold, cost
            )
        else:
            # A live corpus with tombstones: dense indices shift past them.
            live = TreeCorpus(trees + trees[:3])
            live.remove_trees(sorted({d % len(live) for d in drop}))
            live.add_trees(trees[-2:])
            if len(live) >= 2:
                check_against_reference(live, None, threshold, cost)


@pytest.mark.parametrize("cost", sorted(COST_MODELS))
@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_posting_product_fallback_matches_reference(cost, cross):
    # A two-letter alphabet puts most branches in every tree, so the
    # posting products exceed the guard and every pair is a candidate —
    # enumerated lazily, block by block.
    trees = [random_tree(30, alphabet=["x", "y"], rng=i) for i in range(24)]
    corpus_a = TreeCorpus(trees[:12] if cross else trees)
    corpus_b = TreeCorpus(trees[12:]) if cross else None
    found, skipped = pairs_module.branch_candidate_pairs(corpus_a, corpus_b, 2.0)
    assert skipped == 0 and len(found) == (144 if cross else 24 * 23 // 2)
    assert found.shared is None
    with mock.patch.object(cascade_module, "PAIR_BLOCK", 7):
        check_against_reference(corpus_a, corpus_b, 2.0, cost)


def test_clustered_corpus_matches_reference():
    trees = clustered_corpus(num_clusters=6, cluster_size=6, tree_size=12, num_edits=2, rng=5)
    for threshold in (1.0, 3.0, 5.0):
        check_against_reference(TreeCorpus(trees), None, threshold, "unit")


@settings(max_examples=40, deadline=None)
@given(trees_a=tree_lists(min_size=1, max_size=6), trees_b=tree_lists(min_size=1, max_size=6))
def test_block_intersections_match_counters(trees_a, trees_b):
    # The path pairs without a generation-time intersection take (all-pairs
    # fallback and kNN candidates): label and branch
    # intersections of arbitrary pairs, within one side and across two.
    corpus_a, corpus_b = TreeCorpus(trees_a), TreeCorpus(trees_b)
    for other, side_b in ((None, trees_a), (corpus_b, trees_b)):
        sides = pairs_module.PairSides(*pairs_module.filter_array_pair(corpus_a, other))
        i, j = np.divmod(np.arange(len(trees_a) * len(side_b)), len(side_b))
        labels = sides.label_intersection(i, j).tolist()
        branches = sides.branch_intersection(i, j).tolist()
        for p, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            f, g = trees_a[a], side_b[b]
            assert labels[p] == sum((Counter(f.labels) & Counter(g.labels)).values())
            assert branches[p] == sum(
                (binary_branch_profile(f) & binary_branch_profile(g)).values()
            )


def test_uncodable_labels_share_one_code():
    # Unhashable labels cannot be interned; they share the loose code, which
    # can only grow an intersection (the bounds stay lower bounds).
    from repro.trees import Node, Tree

    f = Tree(Node(["x"], [Node("a"), Node(["y"])]))
    g = Tree(Node(["z"], [Node("a")]))
    sides = pairs_module.PairSides(
        *pairs_module.filter_array_pair(TreeCorpus([f]), TreeCorpus([g]))
    )
    assert sides.label_intersection(np.array([0]), np.array([0])).tolist() == [2]


def test_all_pairs_blocks_enumerate_in_order():
    pairs = pairs_module.CandidatePairs.all_pairs(7)
    assert list(pairs) == [(i, j) for i in range(7) for j in range(i + 1, 7)]
    blocks = [len(i) for i, _, _ in pairs.blocks(4)]
    assert blocks == [4, 4, 4, 4, 4, 1]
    cross = pairs_module.CandidatePairs.all_pairs(3, 4)
    assert list(cross) == [(i, j) for i in range(3) for j in range(4)]


# --------------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------------- #
def _refine_must_not_run(*args, **kwargs):
    raise AssertionError("refinement started after the deadline expired")


def test_expired_deadline_stops_join_before_refinement(monkeypatch):
    trees = clustered_corpus(num_clusters=6, cluster_size=6, tree_size=10, rng=3)
    monkeypatch.setattr(cascade_module, "PAIR_BLOCK", 4)
    monkeypatch.setattr(BatchRefiner, "refine", _refine_must_not_run)
    found, _ = pairs_module.branch_candidate_pairs(TreeCorpus(trees), None, 3.0)
    assert len(found) > 3 * 4  # the candidates span several blocks
    with pytest.raises(ComputeTimeoutError):
        batch_similarity_join(trees, 3.0, deadline=Deadline(expires_at=time.monotonic() - 1))


def test_deadline_is_checked_between_blocks(monkeypatch):
    trees = clustered_corpus(num_clusters=6, cluster_size=6, tree_size=10, rng=3)
    monkeypatch.setattr(cascade_module, "PAIR_BLOCK", 4)
    monkeypatch.setattr(BatchRefiner, "refine", _refine_must_not_run)
    token = CancelToken()
    seen = []

    class CancelOnFirstPair(FilterStage):
        name = "cancel-probe"

        def apply(self, a, b, ctx):
            seen.append((a.index, b.index))
            token.cancel()
            return CONTINUE

    with pytest.raises(ComputeTimeoutError):
        batch_similarity_join(
            trees, 3.0, cascade=[SizeFilter(), CancelOnFirstPair()],
            deadline=Deadline(token=token),
        )
    # The cancel lands within the first block, never reaching the next one.
    assert 1 <= len(seen) <= 4


@pytest.mark.parametrize("use_cascade", [True, False], ids=["inverted-index", "all-pairs"])
def test_range_query_under_expired_deadline_is_partial(use_cascade):
    trees = clustered_corpus(num_clusters=6, cluster_size=6, tree_size=10, rng=3)
    engine = QueryEngine(TreeCorpus(trees), use_cascade=use_cascade)
    result = engine.range_query(
        trees[0], 3.0, deadline=Deadline(expires_at=time.monotonic() - 1)
    )
    assert result.stats.partial
    full = engine.range_query(trees[0], 3.0)
    assert not full.stats.partial and set(result.matches) <= set(full.matches)


# --------------------------------------------------------------------------- #
# Packs
# --------------------------------------------------------------------------- #
def test_cross_join_builds_each_pack_once(monkeypatch):
    # The small-pair gate reads the packs the refiner runs on: side a's own
    # pack and side b packed against side a's interner — two builds, not a
    # third pack of side b under its own interner.
    trees = clustered_corpus(num_clusters=20, cluster_size=10, tree_size=10, rng=11)
    built = []
    real = batch_kernel.build_corpus_pack

    def counting(trees, interner):
        built.append(len(trees))
        return real(trees, interner)

    monkeypatch.setattr(batch_kernel, "build_corpus_pack", counting)
    corpus_a, corpus_b = TreeCorpus(trees[0::2]), TreeCorpus(trees[1::2])
    assert not corpus_b.shares_interner(corpus_a)
    result = batch_similarity_join(corpus_a, 3.0, corpus_b=corpus_b)
    assert result.stats.exact_computed > 0
    assert built == [100, 100]


def test_filter_arrays_are_cached_per_epoch_and_never_built_on_writes():
    trees = clustered_corpus(num_clusters=4, cluster_size=4, tree_size=8, rng=2)
    corpus = TreeCorpus(trees[:10])
    arrays = corpus.filter_arrays()
    assert corpus.filter_arrays() is arrays
    corpus.add_trees(trees[10:])
    corpus.remove_trees([0])
    assert len(corpus._coded) == 1  # writes built nothing new
    fresh = corpus.filter_arrays()
    assert fresh is not arrays and len(fresh) == len(trees) - 1
    np.testing.assert_array_equal(fresh.sizes, [tree.n for tree in corpus.trees])
