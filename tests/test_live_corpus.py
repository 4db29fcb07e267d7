"""Live-corpus tests: versioned mutation, snapshot pinning, epoch-keyed caches.

The contract under test (the PR 10 invariant): after **any** interleaving of
:meth:`TreeCorpus.add_trees` / :meth:`TreeCorpus.remove_trees` the corpus is
observably identical — distances, join match sets, kNN/range results,
cascade stats modulo timing — to a fresh :class:`TreeCorpus` built from the
same final tree sequence.  The randomized interleaving suite checks this
bit-identically at every step, under both the unit and a fractional
(metric-eligible weighted) cost model.

The service tests cover the corpus-management endpoints and the per-corpus
epoch-keyed pair-result LRU: a mutation bumps the epoch, which implicitly
invalidates every cached pair distance (the stale key can never be built
again).

This module also runs in CI under ``RTED_FAULT_INJECT=worker_crash:0.2``;
everything here uses the serial (``workers=1``) execution path, which fault
injection leaves untouched, so results stay deterministic either way.
"""

import asyncio
import random

import numpy as np
import pytest

from repro.algorithms import batch_kernel
from repro.algorithms.workspace import LabelInterner
from repro.costs import UnitCostModel, WeightedCostModel
from repro.datasets import random_tree
from repro.exceptions import CorpusError, QueryError
from repro.io import to_bracket
from repro.join.batch import batch_similarity_join
from repro.join.corpus import CorpusSnapshot, TreeCorpus
from repro.join.query import QueryEngine
from repro.trees import Node, Tree

from test_service import _get, _post, run_service

#: JoinStats counters that must match a fresh corpus exactly (timings and
#: worker counts are execution details, not observable corpus state).
_STAT_FIELDS = (
    "pairs_total",
    "candidate_pairs",
    "index_pruned",
    "accepted_early",
    "exact_computed",
    "exact_matched",
    "aborted_early",
    "matches",
    "total_subproblems",
)


def _forest(count, seed, lo=3, hi=8):
    rng = random.Random(seed)
    return [random_tree(rng.randint(lo, hi), rng=seed * 1000 + i) for i in range(count)]


#: The FilterArrays rows the join and the queries read.
_ARRAY_FIELDS = (
    "sizes",
    "label_off",
    "label_code",
    "label_count",
    "branch_off",
    "branch_key",
    "branch_count",
    "branch_tree",
)


def _assert_same_filter_arrays(live, fresh=None):
    """``live``'s filter arrays equal a fresh corpus's over the same trees,
    coded by the same interner."""
    if fresh is None:
        fresh = TreeCorpus(list(live.trees))
    got = live.filter_arrays()
    want = fresh.filter_arrays(live.interner())
    for name in _ARRAY_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# --------------------------------------------------------------------------- #
# Versioned store mechanics
# --------------------------------------------------------------------------- #
class TestVersionedCorpus:
    def test_epoch_bumps_and_dense_ids(self):
        trees = _forest(6, seed=1)
        corpus = TreeCorpus(trees[:4])
        assert corpus.epoch == 0
        added = corpus.add_trees(trees[4:])
        assert added == [4, 5]
        assert corpus.epoch == 1
        removed = corpus.remove_trees([1, 3])
        assert removed == [1, 3]
        assert corpus.epoch == 2
        assert len(corpus) == 4
        assert corpus.trees == (trees[0], trees[2], trees[4], trees[5])
        assert corpus.mutation_counters() == {
            "adds": 1,
            "removals": 1,
            "trees_added": 2,
            "trees_removed": 2,
        }

    def test_mutation_validation(self):
        corpus = TreeCorpus(_forest(3, seed=2))
        with pytest.raises(CorpusError):
            corpus.add_trees(["{a}"])  # strings must be parsed by the caller
        with pytest.raises(CorpusError):
            corpus.remove_trees([3])
        with pytest.raises(CorpusError):
            corpus.remove_trees([-1])
        assert corpus.epoch == 0  # failed mutations leave the corpus untouched

    def test_incremental_index_maintenance(self):
        trees = _forest(12, seed=3)
        corpus = TreeCorpus(trees[:8])
        # Build the arrays first, so the mutations must invalidate them.
        corpus.filter_arrays()
        corpus.add_trees(trees[8:])
        corpus.remove_trees([0, 5])
        _assert_same_filter_arrays(corpus)
        assert [corpus.profile(i).index for i in range(len(corpus))] == list(
            range(len(corpus))
        )

    def test_mass_removal_drops_state_without_rebuild(self):
        trees = _forest(24, seed=4)
        corpus = TreeCorpus(trees)
        corpus.filter_arrays()
        interner = corpus.interner()
        profiles = corpus.profiles()
        kept = {slot: profiles[slot] for slot in range(16, 24)}
        corpus.remove_trees(list(range(16)))
        # Survivors keep their slot profiles (nothing rebuilt); removed
        # trees leave neither a profile nor a cached code array behind.
        assert set(corpus._slot_profiles) == set(kept)
        for slot, prof in kept.items():
            assert corpus._slot_profiles[slot] is prof
        assert {id(tree) for tree, _ in interner._tree_codes.values()} == {
            id(tree) for tree in trees[16:]
        }
        _assert_same_filter_arrays(corpus)
        assert [corpus.profile(i).tree for i in range(len(corpus))] == trees[16:]

    def test_trees_tuple_resists_in_place_mutation(self):
        corpus = TreeCorpus(_forest(3, seed=5))
        with pytest.raises(TypeError):
            corpus.trees[0] = corpus.trees[1]


class TestSnapshot:
    def test_pin_delta_translate(self):
        trees = _forest(8, seed=6)
        corpus = TreeCorpus(trees[:6])
        snap = corpus.snapshot()
        assert isinstance(snap, CorpusSnapshot)
        assert snap.epoch == corpus.epoch and snap.is_current()
        assert snap.delta() == ([], [])
        assert corpus.snapshot() is snap  # cached per epoch
        corpus.add_trees(trees[6:])
        corpus.remove_trees([2])
        assert not snap.is_current()
        added, removed = snap.delta()
        assert added == [5, 6]  # parent dense ids of the post-pin inserts
        assert removed == [2]  # snapshot dense ids the parent dropped
        assert snap.to_parent(2) is None
        assert snap.to_parent(0) == 0 and snap.to_parent(3) == 2
        assert snap.trees == tuple(trees[:6])  # the pin never moves

    def test_snapshot_is_immutable(self):
        corpus = TreeCorpus(_forest(4, seed=7))
        snap = corpus.snapshot()
        with pytest.raises(CorpusError):
            snap.add_trees([corpus.trees[0]])
        with pytest.raises(CorpusError):
            snap.remove_trees([0])
        assert snap.snapshot() is snap

    def test_snapshot_queries_match_parent_at_pin(self):
        trees = _forest(10, seed=8)
        corpus = TreeCorpus(trees)
        snap = corpus.snapshot()
        threshold = 3.0
        live = batch_similarity_join(corpus, threshold)
        pinned = batch_similarity_join(snap, threshold)
        assert live.matches == pinned.matches

    def test_snapshot_profiles_survive_parent_removal(self):
        trees = _forest(6, seed=9)
        corpus = TreeCorpus(trees)
        snap = corpus.snapshot()
        corpus.remove_trees([0, 1])
        # The parent dropped the trees' profiles; the snapshot rebuilds its
        # own and still answers with the pinned membership.
        result = batch_similarity_join(snap, 3.0)
        fresh = batch_similarity_join(TreeCorpus(trees), 3.0)
        assert result.matches == fresh.matches


# --------------------------------------------------------------------------- #
# Satellite 1 regression: pack cache vs late interner sharing and mutation
# --------------------------------------------------------------------------- #
class TestPackEpochKeying:
    def test_pack_invalidated_by_share_interner(self):
        pytest.importorskip("numpy")
        trees = _forest(10, seed=10)
        a = TreeCorpus(trees[:5])
        b = TreeCorpus(trees[5:])
        stale = b.pack()
        assert stale is not None
        b.share_interner(a.interner())
        rebuilt = b.pack()
        # The old pack's label codes came from b's private interner; serving
        # it after the switch would mix incompatible code spaces.
        assert rebuilt is not stale
        assert b.shares_interner(a)
        assert b.pack() is rebuilt  # stable within (interner, epoch)

    def test_pack_invalidated_by_mutation(self):
        pytest.importorskip("numpy")
        trees = _forest(7, seed=11)
        corpus = TreeCorpus(trees[:6])
        before = corpus.pack()
        assert before is not None and before.n_trees == 6
        corpus.add_trees(trees[6:])
        after = corpus.pack()
        assert after is not before and after.n_trees == 7
        corpus.remove_trees([0])
        assert corpus.pack().n_trees == 6

    def test_share_interner_rejects_none(self):
        corpus = TreeCorpus(_forest(2, seed=12))
        with pytest.raises(CorpusError):
            corpus.share_interner(None)

    def test_snapshot_pack_delegates_while_current(self):
        pytest.importorskip("numpy")
        corpus = TreeCorpus(_forest(5, seed=13))
        snap = corpus.snapshot()
        assert snap.pack() is corpus.pack()
        corpus.add_trees(_forest(1, seed=14))
        # Parent moved on: the snapshot now needs its own pinned-membership pack.
        assert snap.pack() is not corpus.pack()
        assert snap.pack().n_trees == 5 and corpus.pack().n_trees == 6


    def test_snapshot_keeps_the_pack_it_served(self, monkeypatch):
        corpus = TreeCorpus(_forest(6, seed=15))
        snap = corpus.snapshot()
        served = snap.pack()
        built = _spy_builds(monkeypatch)
        corpus.add_trees(_forest(1, seed=16))
        corpus.remove_trees([0])
        # The pinned trees are the ones the served pack holds, under the
        # same interner: no second lowering.
        assert snap.pack() is served
        assert built == []
        assert corpus.pack().n_trees == 6
        assert built == [1]  # the parent lowered only its added tree


def _spy_builds(monkeypatch):
    """Record the tree count of every ``build_corpus_pack`` call."""
    built = []
    real = batch_kernel.build_corpus_pack

    def counting(trees, interner):
        built.append(len(trees))
        return real(trees, interner)

    monkeypatch.setattr(batch_kernel, "build_corpus_pack", counting)
    return built


def _assert_fresh_pack(pack, trees, interner):
    """``pack`` is byte-identical to a full build over ``trees``."""
    fresh = batch_kernel.build_corpus_pack(list(trees), interner)
    assert pack.block.dtype == fresh.block.dtype and pack.block.flags.c_contiguous
    assert pack.block.tobytes() == fresh.block.tobytes()
    assert pack.gate_rows() == fresh.gate_rows()


def _uninternable(seed):
    """A small tree with one unhashable label (no packed rows)."""
    return Tree(Node(["x", seed], [Node("a"), Node("b", [Node(["y"])])]))


# --------------------------------------------------------------------------- #
# Packs derived across epochs: equal to a full build, lowering only additions
# --------------------------------------------------------------------------- #
class TestDerivedPack:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_writes_match_a_fresh_build(self, seed):
        rng = random.Random(seed)
        pool = _forest(60, seed=seed, lo=1, hi=10) + [_uninternable(i) for i in range(6)]
        rng.shuffle(pool)
        corpus = TreeCorpus(pool[:10])
        foreign = LabelInterner()
        for step in range(80):
            if len(corpus) and rng.random() < 0.45:
                corpus.remove_trees(rng.sample(range(len(corpus)), rng.randint(1, min(3, len(corpus)))))
            else:
                corpus.add_trees(rng.sample(pool, rng.randint(1, 3)))
            if step % 20 == 10:
                # Remove every tree, then grow again from nothing.
                corpus.remove_trees(range(len(corpus)))
                _assert_fresh_pack(corpus.pack(), corpus.trees, corpus.interner())
                corpus.add_trees(rng.sample(pool, 2))
            if rng.random() < 0.6:
                _assert_fresh_pack(corpus.pack(), corpus.trees, corpus.interner())
            if rng.random() < 0.3:
                _assert_fresh_pack(corpus.pack_for(foreign), corpus.trees, foreign)
        assert corpus.pack() is corpus.pack()

    def test_each_write_lowers_only_the_added_trees(self, monkeypatch):
        trees = _forest(202, seed=34, lo=4, hi=10)
        corpus = TreeCorpus(trees[:200])
        foreign = LabelInterner()
        corpus.pack()
        corpus.pack_for(foreign)
        built = _spy_builds(monkeypatch)
        corpus.add_trees(trees[200:202])
        corpus.remove_trees([3, 150])
        own, other = corpus.pack(), corpus.pack_for(foreign)
        assert built == [2, 2]
        _assert_fresh_pack(own, corpus.trees, corpus.interner())
        _assert_fresh_pack(other, corpus.trees, foreign)
        del built[:]
        corpus.remove_trees([0])
        _assert_fresh_pack(corpus.pack(), corpus.trees, corpus.interner())
        assert built == [199]  # the fresh build of the check alone

    def test_interner_switch_and_new_foreign_interner_lower_everything(self, monkeypatch):
        trees = _forest(12, seed=35)
        corpus = TreeCorpus(trees[:10])
        corpus.pack()
        corpus.pack_for(LabelInterner())
        built = _spy_builds(monkeypatch)
        corpus.add_trees(trees[10:])
        other = LabelInterner()
        _assert_fresh_pack(corpus.pack_for(other), corpus.trees, other)
        assert built[0] == 12  # not the interner the cached pack was coded by
        shared = TreeCorpus(trees[:3]).interner()
        corpus.share_interner(shared)
        del built[:]
        _assert_fresh_pack(corpus.pack(), corpus.trees, shared)
        assert built[0] == 12

    def test_range_read_after_writes_lowers_only_the_added_tree(self, monkeypatch):
        trees = _forest(201, seed=36, lo=4, hi=12)
        corpus = TreeCorpus(trees[:200])
        engine = QueryEngine(corpus)
        query = trees[7]
        engine.range_query(query, 3.0)
        built = _spy_builds(monkeypatch)
        corpus.add_trees(trees[200:])
        corpus.remove_trees([11])
        result = engine.range_query(query, 3.0)
        # One one-tree lowering for the query itself and one for the added
        # tree; the 199 surviving trees are carried over, not relowered.
        assert sorted(built) == [1, 1]
        assert result.stats.side_evaluated == 1
        fresh = QueryEngine(TreeCorpus(list(corpus.trees))).range_query(query, 3.0)
        assert result.matches == fresh.matches
        _assert_fresh_pack(corpus.pack(), corpus.trees, corpus.interner())


# --------------------------------------------------------------------------- #
# Engine staleness: pinning, side lists, prebuilt-index refusal
# --------------------------------------------------------------------------- #
class TestEngineStaleness:
    def test_pin_survives_small_drift(self):
        trees = _forest(42, seed=17)
        corpus = TreeCorpus(trees[:40])
        query = random_tree(6, rng=170)
        engine = QueryEngine(corpus)
        engine.knn(query, 3)
        pinned = engine.snapshot_epoch
        corpus.add_trees(trees[40:])
        corpus.remove_trees([1])
        result = engine.knn(query, 3)
        assert engine.snapshot_epoch == pinned  # drift 3 <= budget 10
        assert result.stats.side_candidates == 2
        fresh = QueryEngine(TreeCorpus(list(corpus.trees))).knn(query, 3)
        assert result.matches == fresh.matches

    def test_pin_refreshes_past_budget(self):
        trees = _forest(14, seed=18)
        corpus = TreeCorpus(trees[:8])
        query = random_tree(6, rng=180)
        engine = QueryEngine(corpus, staleness_budget=0.25)
        engine.knn(query, 3)
        corpus.add_trees(trees[8:])  # drift 6 > budget 2
        result = engine.knn(query, 3)
        assert engine.snapshot_epoch == corpus.epoch
        assert result.stats.side_candidates == 0
        fresh = QueryEngine(TreeCorpus(list(corpus.trees))).knn(query, 3)
        assert result.matches == fresh.matches

    def test_staleness_budget_validation(self):
        corpus = TreeCorpus(_forest(3, seed=19))
        with pytest.raises(QueryError):
            QueryEngine(corpus, staleness_budget=-0.5)



# --------------------------------------------------------------------------- #
# The mutation-equivalence invariant, randomized
# --------------------------------------------------------------------------- #
class TestMutationEquivalence:
    """≥200 randomized operations per cost model, checked at every step."""

    OPERATIONS = 200
    THRESHOLD = 3.0

    def _check_step(self, live, engine, cost_model, query):
        fresh = TreeCorpus(list(live.trees))
        assert live.trees == fresh.trees
        _assert_same_filter_arrays(live, fresh)
        live_join = batch_similarity_join(live, self.THRESHOLD, cost_model=cost_model)
        fresh_join = batch_similarity_join(fresh, self.THRESHOLD, cost_model=cost_model)
        assert live_join.matches == fresh_join.matches
        for field in _STAT_FIELDS:
            assert getattr(live_join.stats, field) == getattr(
                fresh_join.stats, field
            ), field
        fresh_engine = QueryEngine(fresh, cost_model=cost_model)
        assert (
            engine.knn(query, 4).matches == fresh_engine.knn(query, 4).matches
        )
        assert (
            engine.range_query(query, 2.5).matches
            == fresh_engine.range_query(query, 2.5).matches
        )

    def _run_interleaving(self, cost_model, seed):
        rng = random.Random(seed)
        pool = _forest(160, seed=seed, lo=3, hi=8)
        cursor = 18
        live = TreeCorpus(pool[:cursor])
        live.filter_arrays()  # built before the first mutation
        engine = QueryEngine(live, cost_model=cost_model)
        query = random_tree(6, rng=seed + 1)
        mutations = 0
        for step in range(self.OPERATIONS):
            op = rng.random()
            if op < 0.45 and cursor < len(pool):
                take = min(rng.randint(1, 3), len(pool) - cursor)
                live.add_trees(pool[cursor:cursor + take])
                cursor += take
                mutations += 1
            elif op < 0.80 and len(live) > 6:
                victims = rng.sample(range(len(live)), rng.randint(1, 2))
                live.remove_trees(victims)
                mutations += 1
            else:
                # A query op: exercised against the engine mid-drift (the
                # equivalence check below queries too, but through a fresh
                # baseline — this one hits whatever pin state the engine is in).
                engine.knn(query, 3)
            self._check_step(live, engine, cost_model, query)
        assert mutations >= 80  # the interleaving actually mutated
        assert live.epoch == mutations

    def test_unit_cost_interleaving(self):
        self._run_interleaving(UnitCostModel(), seed=23)

    def test_fractional_cost_interleaving(self):
        self._run_interleaving(
            WeightedCostModel(delete_cost=0.5, insert_cost=0.5, rename_cost=0.75),
            seed=24,
        )


# --------------------------------------------------------------------------- #
# Service: corpus management + epoch-keyed pair caching
# --------------------------------------------------------------------------- #
def _delete(base, path, timeout=30):
    import json as _json
    import urllib.error
    import urllib.request

    request = urllib.request.Request(base + path, method="DELETE")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, _json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, _json.loads(error.read())


class TestServiceManagement:
    def test_create_add_remove_lifecycle(self):
        async def body(service, base):
            brackets = [to_bracket(t) for t in _forest(4, seed=25)]
            status, _, payload = await asyncio.to_thread(
                _post, base, "/corpora", {"name": "scratch", "trees": brackets[:2]}
            )
            assert status == 200
            assert payload == {"name": "scratch", "size": 2, "epoch": 0}
            status, _, payload = await asyncio.to_thread(
                _post, base, "/corpora/scratch/trees", {"trees": brackets[2:]}
            )
            assert status == 200
            assert payload["added"] == [2, 3]
            assert payload["size"] == 4 and payload["epoch"] == 1
            status, payload = await asyncio.to_thread(
                _delete, base, "/corpora/scratch/trees/0"
            )
            assert status == 200
            assert payload["size"] == 3 and payload["epoch"] == 2
            # The new corpus serves queries like any registered one.
            status, _, payload = await asyncio.to_thread(
                _post, base, "/knn", {"corpus": "scratch", "query": brackets[1], "k": 2}
            )
            assert status == 200 and len(payload["matches"]) == 2

        run_service(body)

    def test_create_conflict_and_bad_requests(self):
        async def body(service, base):
            status, _, _ = await asyncio.to_thread(
                _post, base, "/corpora", {"name": "default"}
            )
            assert status == 409
            status, _, _ = await asyncio.to_thread(
                _post, base, "/corpora", {"trees": []}
            )
            assert status == 400  # missing name
            status, _, _ = await asyncio.to_thread(
                _post, base, "/corpora/nowhere/trees", {"trees": ["{a}"]}
            )
            assert status == 400  # unknown corpus
            status, payload = await asyncio.to_thread(
                _delete, base, "/corpora/default/trees/999"
            )
            assert status == 400  # out of range -> CorpusError -> 400
            status, payload = await asyncio.to_thread(
                _delete, base, "/corpora/default/trees/abc"
            )
            assert status == 400  # non-integer id

        run_service(body)

    def test_pair_cache_hit_miss_and_epoch_invalidation(self):
        async def body(service, base):
            request = {"corpus": "default", "i": 0, "j": 1}
            status, _, first = await asyncio.to_thread(_post, base, "/distance", request)
            assert status == 200
            assert first["cached"] is False and first["epoch"] == 0
            status, _, second = await asyncio.to_thread(_post, base, "/distance", request)
            assert second["cached"] is True
            assert second["distance"] == first["distance"]
            # A mutation bumps the epoch: the same (i, j) misses and recomputes.
            tree = to_bracket(random_tree(8, rng=260))
            status, _, payload = await asyncio.to_thread(
                _post, base, "/corpora/default/trees", {"trees": [tree]}
            )
            assert status == 200 and payload["epoch"] == 1
            status, _, third = await asyncio.to_thread(_post, base, "/distance", request)
            assert third["cached"] is False and third["epoch"] == 1
            assert third["distance"] == first["distance"]
            status, _, stats = await asyncio.to_thread(_get, base, "/stats")
            default = stats["corpora"]["default"]
            assert default["pair_cache_hits"] == 1
            assert default["pair_cache_misses"] == 2
            assert default["epoch"] == 1
            assert default["adds"] == 1 and default["trees_added"] == 1

        run_service(body)

    def test_pair_cache_rejects_out_of_range_ids(self):
        async def body(service, base):
            status, _, payload = await asyncio.to_thread(
                _post, base, "/distance", {"corpus": "default", "i": 0, "j": 999}
            )
            assert status == 400
            assert "tree ids" in payload["error"]

        run_service(body)

    def test_stats_surfaces_snapshot_epoch(self):
        async def body(service, base):
            query = to_bracket(random_tree(6, rng=270))
            status, _, _ = await asyncio.to_thread(
                _post, base, "/knn", {"query": query, "k": 2}
            )
            assert status == 200
            status, _, stats = await asyncio.to_thread(_get, base, "/stats")
            default = stats["corpora"]["default"]
            assert default["snapshot_epoch"] == 0  # engine pinned at epoch 0

        run_service(body)
