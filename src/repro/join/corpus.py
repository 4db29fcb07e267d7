"""Corpus-indexed filter artifacts for batch similarity joins.

A join over ``N`` trees evaluates up to ``N·(N−1)/2`` pairs, but every filter
in the bound cascade only consumes *per-tree* quantities: sizes, label
multisets, traversal label strings, binary-branch profiles and pq-gram
profiles.  :class:`TreeCorpus` computes each of these artifacts **once per
tree** and reuses them across all pairs — the per-pair work of the cheap
stages drops to a multiset intersection.

On top of the per-tree profiles the corpus maintains *inverted indexes*
(binary-branch → tree ids, pq-gram → tree ids).  For a selective threshold
the binary-branch index generates candidate pairs directly: the branch
distance satisfies ``BBD(F, G) ≤ 5 · TED_ops(F, G)``, and two trees sharing
no branch have ``BBD = |F| + |G|``, so any pair with
``(|F| + |G|) / 5 ≥ τ_ops`` and an empty branch intersection is pruned
*without ever being materialized*.  The pq-gram index plays the same role for
approximate joins (pq-grams do not lower-bound the TED — see the soundness
rule in ``DESIGN.md``).

**Live corpora (the versioned store).**  A corpus is no longer frozen at
construction: :meth:`TreeCorpus.add_trees` and :meth:`TreeCorpus.remove_trees`
mutate membership while maintaining the inverted indexes *incrementally* —
an add appends postings for the new trees only, a removal tombstones its
slot (postings are filtered lazily and compacted past a dead-entry
threshold; removal never triggers a full rebuild).  Every mutation bumps a
monotonic :attr:`TreeCorpus.epoch`; all derived caches — the dense index
views, ``size_order``, the batch-kernel pack — are keyed on the epoch, so a
mutated corpus can never silently serve stale artifacts.  The invariant the
property suite enforces: after **any** interleaving of adds and removals the
corpus is observably identical (distances, join matches, kNN/range results,
cascade stats) to a fresh :class:`TreeCorpus` built from the same final tree
sequence.

Downstream consumers that need a stable view across queries (the query
engine's VP-tree, long refinement plans) pin a :class:`CorpusSnapshot` — an
epoch-pinned immutable corpus that shares the parent's per-tree profiles and
reports the membership drift (:meth:`CorpusSnapshot.delta`) since the pin.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import (
    Counter as CounterType,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..bounds.binary_branch import binary_branch_profile
from ..bounds.pq_gram import pq_gram_profile
from ..exceptions import CorpusError
from ..trees.tree import Tree


@dataclass
class TreeProfile:
    """Per-tree filter artifacts, computed once and shared by every pair."""

    index: int
    tree: Tree
    size: int
    label_histogram: CounterType[object]
    preorder_labels: List[object]
    postorder_labels: List[object]
    branch_profile: CounterType[Tuple[object, object, object]]
    pq_profile: Optional[CounterType[Tuple[object, ...]]] = field(default=None, repr=False)


class TreeCorpus:
    """A versioned collection of trees with per-tree artifacts and indexes.

    Parameters
    ----------
    trees:
        The trees of the collection (kept in order; pair indices returned by
        the join refer to positions in the *current* live sequence).
    p, q:
        pq-gram shape parameters used when the pq-gram artifacts are
        requested (approximate joins only).

    A corpus is cheap to construct: a tree's profile (sizes, label multiset,
    traversal strings and binary-branch profile — all ``O(n)``) is built on
    its first :meth:`profile` access and cached; only the pq-gram artifacts,
    which no sound stage consumes, are deferred further until
    :meth:`pq_profile` / :meth:`pq_index` is called.

    **Versioning.**  Internally trees live in append-only *slots*; a removal
    tombstones its slot (slot ids are never reused or renumbered, so pinned
    snapshots stay translatable), and the public *dense* indices — what
    ``corpus.trees[i]``, join matches and query results mean — are the live
    slots in ascending slot order.  Every mutation bumps :attr:`epoch`;
    dense views (the ``trees`` tuple, :meth:`branch_index`, :meth:`pq_index`,
    :meth:`size_order`, :meth:`pack`) are rebuilt lazily when their cached
    epoch is stale, and the inverted postings themselves are maintained
    incrementally (appends for adds, tombstone filtering plus threshold
    compaction for removals — never a full reprofile).

    The dense tree sequence is exposed as a tuple, so accidental in-place
    mutation still surfaces as an error at the mutation site
    (``corpus.trees[i] = t`` raises ``TypeError``); membership changes go
    through :meth:`add_trees` / :meth:`remove_trees`.  Consumers that cache
    per-index results must key them on :attr:`epoch` or hold a
    :meth:`snapshot`.

    ``interner`` optionally shares another corpus's label dictionary (see
    :meth:`interner`), so that e.g. a one-tree query corpus produces label
    codes compatible with the main corpus's cached batch-kernel pack.
    """

    #: Dead posting entries tolerated before :meth:`remove_trees` compacts
    #: the inverted indexes in place (also requires dead > live, so small
    #: corpora never churn).  Compaction filters tombstoned slot ids out of
    #: every posting list; slot ids are never renumbered.
    COMPACTION_THRESHOLD = 64

    def __init__(
        self,
        trees: Sequence[Tree],
        p: int = 2,
        q: int = 3,
        interner=None,
    ) -> None:
        # Append-only slot storage: removed slots become None and their ids
        # join the tombstone set; slot ids are stable for the corpus's life.
        self._slots: List[Optional[Tree]] = list(trees)
        self._dead: Set[int] = set()
        self._epoch = 0
        self.p = p
        self.q = q
        self._interner = interner
        # Slot-keyed artifacts: survive mutations untouched.
        self._slot_profiles: Dict[int, TreeProfile] = {}
        self._branch_postings: Optional[Dict[object, List[int]]] = None
        self._pq_postings: Optional[Dict[object, List[int]]] = None
        self._postings_live = 0
        self._postings_dead = 0
        # Per-epoch dense views, rebuilt lazily after a mutation.
        self._view_epoch = -1
        self._view_slots: List[int] = []
        self._view_trees: Tuple[Tree, ...] = ()
        self._dense_of: Dict[int, int] = {}
        self._dense_profiles: List[Optional[TreeProfile]] = []
        self._branch_view: Optional[Dict[object, List[int]]] = None
        self._branch_view_epoch = -1
        self._pq_view: Optional[Dict[object, List[int]]] = None
        self._pq_view_epoch = -1
        self._size_order: Optional[Tuple[List[int], List[int]]] = None
        self._size_order_epoch = -1
        self._pack = None
        self._pack_key: Optional[Tuple[int, int]] = None
        self._snapshot_cache: Optional["CorpusSnapshot"] = None
        # Mutation ledger (exposed verbatim by the service's /stats).
        self.adds = 0
        self.removals = 0
        self.trees_added = 0
        self.trees_removed = 0
        self.compactions = 0

    # ------------------------------------------------------------------ #
    # Versioning
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Monotonic version counter; every mutation call bumps it by one.

        All derived caches (dense views, size order, the batch-kernel pack,
        the service's pair-result cache) key on the epoch, so invalidation
        after a mutation is free — stale entries simply never match.
        """
        return self._epoch

    def _refresh_view(self) -> None:
        """Rebuild the dense (live-slot) view if the epoch moved."""
        if self._view_epoch == self._epoch:
            return
        if self._dead:
            dead = self._dead
            live = [s for s in range(len(self._slots)) if s not in dead]
        else:
            live = list(range(len(self._slots)))
        self._view_slots = live
        self._view_trees = tuple(self._slots[s] for s in live)
        self._dense_of = {s: i for i, s in enumerate(live)}
        self._dense_profiles = [None] * len(live)
        self._view_epoch = self._epoch

    def add_trees(self, trees: Iterable[Tree]) -> List[int]:
        """Append trees to the corpus; returns their new dense indices.

        Incremental by construction: new slots are appended, and if the
        inverted indexes were already built their postings are *extended*
        with the new trees only — existing entries are untouched, so the
        cost is proportional to the added trees, not the corpus.  Bumps
        :attr:`epoch`.
        """
        new_trees = list(trees)
        if not new_trees:
            return []
        for tree in new_trees:
            if not isinstance(tree, Tree):
                raise CorpusError(
                    f"add_trees expects Tree objects, got {type(tree).__name__}"
                )
        self._refresh_view()
        first_dense = len(self._view_slots)
        new_slots = []
        for tree in new_trees:
            slot = len(self._slots)
            self._slots.append(tree)
            new_slots.append(slot)
        if self._branch_postings is not None:
            count = 0
            for slot in new_slots:
                for branch in self._slot_profile(slot).branch_profile:
                    self._branch_postings.setdefault(branch, []).append(slot)
                    count += 1
            self._postings_live += count
        if self._pq_postings is not None:
            count = 0
            for slot in new_slots:
                for gram in self._slot_pq_profile(slot):
                    self._pq_postings.setdefault(gram, []).append(slot)
                    count += 1
            self._postings_live += count
        self._epoch += 1
        self.adds += 1
        self.trees_added += len(new_slots)
        return [first_dense + offset for offset in range(len(new_slots))]

    def remove_trees(self, indices: Iterable[int]) -> List[int]:
        """Remove trees by their current dense indices; returns them sorted.

        Removal never rebuilds: each tree's slot is tombstoned, its cached
        profile dropped, and its posting entries counted as dead — the
        postings themselves are filtered lazily by the dense index views and
        compacted in place once dead entries exceed
        ``max(COMPACTION_THRESHOLD, live entries)``.  Bumps :attr:`epoch`.
        Raises :class:`~repro.exceptions.CorpusError` for out-of-range ids.
        """
        self._refresh_view()
        n = len(self._view_slots)
        dense = sorted({int(i) for i in indices})
        if not dense:
            return []
        if dense[0] < 0 or dense[-1] >= n:
            bad = dense[0] if dense[0] < 0 else dense[-1]
            raise CorpusError(
                f"tree index {bad} out of range for a corpus of {n} trees"
            )
        for index in dense:
            slot = self._view_slots[index]
            prof = self._slot_profiles.pop(slot, None)
            if prof is not None:
                if self._branch_postings is not None:
                    entries = len(prof.branch_profile)
                    self._postings_dead += entries
                    self._postings_live -= entries
                if self._pq_postings is not None and prof.pq_profile is not None:
                    entries = len(prof.pq_profile)
                    self._postings_dead += entries
                    self._postings_live -= entries
            tree = self._slots[slot]
            self._slots[slot] = None
            self._dead.add(slot)
            if self._interner is not None and tree is not None:
                forget = getattr(self._interner, "forget_tree", None)
                if forget is not None:
                    forget(tree)
        self._epoch += 1
        self.removals += 1
        self.trees_removed += len(dense)
        self._maybe_compact()
        return dense

    def _maybe_compact(self) -> None:
        """Filter tombstoned slots out of the postings past the threshold."""
        if self._postings_dead <= max(self.COMPACTION_THRESHOLD, self._postings_live):
            return
        dead = self._dead
        for postings in (self._branch_postings, self._pq_postings):
            if postings is None:
                continue
            for key in list(postings):
                live = [s for s in postings[key] if s not in dead]
                if live:
                    postings[key] = live
                else:
                    del postings[key]
        self._postings_dead = 0
        self.compactions += 1

    def snapshot(self) -> "CorpusSnapshot":
        """An immutable view pinned at the current epoch (cached per epoch)."""
        snap = self._snapshot_cache
        if snap is None or snap.epoch != self._epoch:
            snap = CorpusSnapshot(self)
            self._snapshot_cache = snap
        return snap

    def mutation_counters(self) -> Dict[str, int]:
        """The mutation ledger (adds/removals/compactions) as a dict."""
        return {
            "adds": self.adds,
            "removals": self.removals,
            "trees_added": self.trees_added,
            "trees_removed": self.trees_removed,
            "compactions": self.compactions,
        }

    # ------------------------------------------------------------------ #
    @property
    def trees(self) -> Tuple[Tree, ...]:
        """The live trees in dense order (a fresh tuple per epoch)."""
        self._refresh_view()
        return self._view_trees

    def __len__(self) -> int:
        self._refresh_view()
        return len(self._view_slots)

    def __getitem__(self, index: int) -> Tree:
        return self.trees[index]

    def __iter__(self) -> Iterator[Tree]:
        return iter(self.trees)

    # ------------------------------------------------------------------ #
    def _slot_profile(self, slot: int) -> TreeProfile:
        """The slot-keyed profile (``index`` holds the *slot* id)."""
        prof = self._slot_profiles.get(slot)
        if prof is None:
            tree = self._slots[slot]
            prof = TreeProfile(
                index=slot,
                tree=tree,
                size=tree.n,
                label_histogram=Counter(tree.labels),
                preorder_labels=tree.labels_preorder(),
                postorder_labels=tree.labels_postorder(),
                branch_profile=binary_branch_profile(tree),
            )
            self._slot_profiles[slot] = prof
        return prof

    def _slot_pq_profile(self, slot: int) -> CounterType[Tuple[object, ...]]:
        prof = self._slot_profile(slot)
        if prof.pq_profile is None:
            prof.pq_profile = pq_gram_profile(prof.tree, p=self.p, q=self.q)
        return prof.pq_profile

    def profile(self, index: int) -> TreeProfile:
        """The (cached) filter artifacts of the tree at dense ``index``.

        ``profile.index`` always equals the dense index (the cascade and
        pipeline consume it as such); when tombstones shift a slot away from
        its dense position the slot profile is wrapped with the corrected
        index, sharing every expensive artifact with the slot-keyed cache.
        """
        self._refresh_view()
        cached = self._dense_profiles[index]
        if cached is None:
            slot = self._view_slots[index]
            base = self._slot_profile(slot)
            cached = base if base.index == index else replace(base, index=index)
            self._dense_profiles[index] = cached
        return cached

    def profiles(self) -> List[TreeProfile]:
        """Artifacts for every live tree (computing any still missing)."""
        return [self.profile(i) for i in range(len(self))]

    def pq_profile(self, index: int) -> CounterType[Tuple[object, ...]]:
        """The (cached) pq-gram profile of the tree at dense ``index``."""
        self._refresh_view()
        pq = self._slot_pq_profile(self._view_slots[index])
        wrapper = self._dense_profiles[index]
        if wrapper is not None and wrapper.pq_profile is None:
            wrapper.pq_profile = pq
        return pq

    # ------------------------------------------------------------------ #
    # Label interning (the amortized batch verification path)
    # ------------------------------------------------------------------ #
    def interner(self):
        """The corpus's shared label dictionary (lazily created).

        A :class:`~repro.algorithms.workspace.LabelInterner` mapping labels
        to dense integer codes; per-tree code arrays are interned on first
        use and cached on the interner, so every batch over this corpus —
        and every :class:`~repro.algorithms.workspace.TedWorkspace` built
        from it, whatever its cost model — reuses one dictionary.  Trees
        from *other* collections (cross joins, one-vs-many queries) may be
        interned into the same dictionary; it only ever grows, so codes
        stay stable across corpus mutations (``remove_trees`` only drops
        the removed tree's cached code array, never its codes).
        """
        if self._interner is None:
            from ..algorithms.workspace import LabelInterner

            self._interner = LabelInterner()
        return self._interner

    def share_interner(self, interner) -> None:
        """Adopt ``interner`` as this corpus's label dictionary.

        The supported way to set up interner sharing *after* construction
        (e.g. to align an existing corpus with another's cached pack).  The
        pack cache is keyed on the interner's identity, so a pack built
        under the old dictionary — whose label codes the new dictionary need
        not agree with — can never be served again after the switch.
        """
        if interner is None:
            raise CorpusError("share_interner requires a LabelInterner")
        self._interner = interner

    def shares_interner(self, other: "TreeCorpus") -> bool:
        """Whether both corpora already hold the *same* label dictionary.

        True only when the interners exist and are one object (e.g. this
        corpus was built with ``interner=other.interner()``), in which case
        their packs' label codes agree and cached packs can be mixed in one
        batch.  Deliberately side-effect free: it never creates an interner.
        """
        return self._interner is not None and self._interner is other._interner

    def pack(self):
        """The corpus's (cached) batch-kernel pack, or ``None`` sans NumPy.

        A :class:`~repro.algorithms.batch_kernel.CorpusPack` built over
        :meth:`interner` — the struct-of-arrays input of the batched
        small-pair kernels.  The cache is keyed on **(interner identity,
        epoch)**: a corpus mutation or a late :meth:`share_interner` switch
        invalidates it (a pack whose label codes or tree rows no longer
        match the corpus must never be served), while repeated batches
        within one epoch share a single pack, including zero-copy export to
        worker processes via :mod:`repro.join.shared`.
        """
        from ..algorithms.batch_kernel import build_corpus_pack, kernel_available

        if not kernel_available():
            return None
        key = (id(self.interner()), self._epoch)
        if self._pack_key != key:
            self._pack = build_corpus_pack(self.trees, self.interner())
            self._pack_key = key
        return self._pack

    # ------------------------------------------------------------------ #
    # Inverted indexes
    # ------------------------------------------------------------------ #
    def _ensure_branch_postings(self) -> Dict[object, List[int]]:
        """The slot-keyed branch postings (built once, then incremental)."""
        if self._branch_postings is None:
            postings: Dict[object, List[int]] = defaultdict(list)
            count = 0
            self._refresh_view()
            for slot in self._view_slots:
                for branch in self._slot_profile(slot).branch_profile:
                    postings[branch].append(slot)
                    count += 1
            self._branch_postings = dict(postings)
            self._postings_live += count
        return self._branch_postings

    def _ensure_pq_postings(self) -> Dict[object, List[int]]:
        """The slot-keyed pq-gram postings (built once, then incremental)."""
        if self._pq_postings is None:
            postings: Dict[object, List[int]] = defaultdict(list)
            count = 0
            self._refresh_view()
            for slot in self._view_slots:
                for gram in self._slot_pq_profile(slot):
                    postings[gram].append(slot)
                    count += 1
            self._pq_postings = dict(postings)
            self._postings_live += count
        return self._pq_postings

    def _dense_postings(
        self, postings: Dict[object, List[int]]
    ) -> Dict[object, List[int]]:
        """Slot-id postings filtered to live slots and mapped to dense ids.

        With no tombstones slot ids *are* dense ids and the postings are
        returned as-is (the view is only guaranteed for the epoch it was
        obtained in); otherwise dead entries are dropped and survivors
        translated — ascending slot order is ascending dense order, so the
        result is exactly what a fresh corpus over the live trees builds.
        """
        self._refresh_view()
        dead = self._dead
        if not dead:
            return postings
        dense_of = self._dense_of
        view: Dict[object, List[int]] = {}
        for key, slots in postings.items():
            live = [dense_of[s] for s in slots if s not in dead]
            if live:
                view[key] = live
        return view

    def branch_index(self) -> Dict[object, List[int]]:
        """Inverted index: binary branch → sorted list of dense tree indices.

        The returned view is valid for the current :attr:`epoch`; it is
        rebuilt (cheaply, from the incrementally maintained postings) after
        a mutation.
        """
        if self._branch_view is None or self._branch_view_epoch != self._epoch:
            self._branch_view = self._dense_postings(self._ensure_branch_postings())
            self._branch_view_epoch = self._epoch
        return self._branch_view

    def pq_index(self) -> Dict[object, List[int]]:
        """Inverted index: pq-gram → sorted list of dense tree indices.

        Epoch-keyed like :meth:`branch_index`.
        """
        if self._pq_view is None or self._pq_view_epoch != self._epoch:
            self._pq_view = self._dense_postings(self._ensure_pq_postings())
            self._pq_view_epoch = self._epoch
        return self._pq_view

    def size_order(self) -> Tuple[List[int], List[int]]:
        """``(indices, sizes)`` of the live trees in ascending size order.

        Cached per epoch; used by one-vs-corpus candidate generation (the
        small-tree sweep) and by query planners that want to examine
        near-sized trees first.
        """
        if self._size_order is None or self._size_order_epoch != self._epoch:
            trees = self.trees
            order = sorted(range(len(trees)), key=lambda i: trees[i].n)
            self._size_order = (order, [trees[i].n for i in order])
            self._size_order_epoch = self._epoch
        return self._size_order

    def query_candidates(
        self, profile: TreeProfile, ops_threshold: float
    ) -> Tuple[Set[int], int]:
        """Sound one-vs-corpus candidate generation from the branch index.

        The asymmetric counterpart of :func:`branch_candidate_pairs`: for a
        *query* profile (typically from a one-tree corpus, not from this
        one) returns ``(candidates, pruned)`` where ``candidates`` is the
        set of corpus tree indices that may still satisfy
        ``TED(query, tree) < τ`` — trees sharing at least one binary branch
        with the query, plus trees small enough to pass with a disjoint
        branch profile — and ``pruned`` counts the corpus trees eliminated
        without ever being examined.  ``ops_threshold`` is the threshold in
        operation-count space (``τ / min_operation_cost``); ``inf``
        disables pruning (every tree is a candidate).

        Soundness: ``BBD(F, G) ≤ 5 · TED_ops`` (Yang et al., SIGMOD 2005)
        and disjoint branch profiles force ``BBD = |F| + |G|``, so a
        disjoint-profile tree can only match when
        ``|F| + |G| < 5 · τ_ops``.
        """
        n = len(self)
        if ops_threshold == float("inf"):
            return set(range(n)), 0
        candidates: Set[int] = set()
        index = self.branch_index()
        for branch in profile.branch_profile:
            postings = index.get(branch)
            if postings:
                candidates.update(postings)
        # Small-tree sweep: trees below the size budget stay candidates even
        # with a fully disjoint branch profile.
        order, sizes = self.size_order()
        limit = bisect_left(sizes, 5.0 * ops_threshold - profile.size)
        candidates.update(order[:limit])
        return candidates, n - len(candidates)


class CorpusSnapshot(TreeCorpus):
    """An epoch-pinned, immutable view of a live :class:`TreeCorpus`.

    A snapshot *is* a corpus (every join/query/pack consumer works on it
    unchanged) whose membership is the parent's live trees at pin time.  It
    shares the parent's label interner and — for trees the parent still
    holds — its per-tree profiles, so pinning is cheap and the expensive
    artifacts stay amortized in one place.  Mutators raise
    :class:`~repro.exceptions.CorpusError`.

    Snapshots make corpus mutation safe for long-lived consumers: the query
    engine pins one (plus the VP-tree built over it) and consults
    :meth:`delta` per query — the *deferred-insert side list* (parent trees
    added since the pin) is evaluated exactly and merged, parent removals
    are filtered from the snapshot's results via :meth:`to_parent`, and once
    the drift exceeds the engine's staleness budget a fresh snapshot (and
    lazily a fresh index) replaces the pin.
    """

    def __init__(self, parent: TreeCorpus) -> None:
        parent._refresh_view()
        super().__init__(
            parent._view_trees, p=parent.p, q=parent.q, interner=parent.interner()
        )
        self._parent = parent
        self._pinned_epoch = parent._epoch
        # Parent slot ids of this snapshot's dense positions, plus the slot
        # watermark: any parent slot >= next_slot was added after the pin.
        self._slot_ids: Tuple[int, ...] = tuple(parent._view_slots)
        self._next_slot = len(parent._slots)

    # -- versioning ----------------------------------------------------- #
    @property
    def epoch(self) -> int:
        """The parent epoch this snapshot pins (the snapshot never moves)."""
        return self._pinned_epoch

    @property
    def parent(self) -> TreeCorpus:
        return self._parent

    def is_current(self) -> bool:
        """Whether the parent has not mutated since the pin."""
        return self._parent._epoch == self._pinned_epoch

    def delta(self) -> Tuple[List[int], List[int]]:
        """Membership drift since the pin: ``(added, removed)``.

        ``added`` are *parent* dense indices of trees inserted after the
        pin (the exact side list a pinned search must additionally
        evaluate); ``removed`` are *snapshot* dense indices whose trees the
        parent has since removed (results naming them must be dropped).
        """
        parent = self._parent
        if parent._epoch == self._pinned_epoch:
            return [], []
        parent._refresh_view()
        next_slot = self._next_slot
        added = [i for i, s in enumerate(parent._view_slots) if s >= next_slot]
        dead = parent._dead
        removed = [i for i, s in enumerate(self._slot_ids) if s in dead]
        return added, removed

    def to_parent(self, index: int) -> Optional[int]:
        """The parent's *current* dense index of snapshot tree ``index``.

        ``None`` when the parent removed the tree after the pin.  Ascending
        snapshot order maps to ascending parent order (both are ascending
        slot order), so translated result lists keep their tie order.
        """
        parent = self._parent
        parent._refresh_view()
        return parent._dense_of.get(self._slot_ids[index])

    def snapshot(self) -> "CorpusSnapshot":
        """A snapshot is its own snapshot (already pinned)."""
        return self

    def add_trees(self, trees: Iterable[Tree]) -> List[int]:
        raise CorpusError(
            "a CorpusSnapshot is immutable; mutate its parent corpus instead"
        )

    def remove_trees(self, indices: Iterable[int]) -> List[int]:
        raise CorpusError(
            "a CorpusSnapshot is immutable; mutate its parent corpus instead"
        )

    # -- artifact sharing with the parent -------------------------------- #
    def _slot_profile(self, slot: int) -> TreeProfile:
        # Snapshot slot ids are 0..n-1 (no tombstones ever); delegate to the
        # parent's slot-keyed cache while the parent still holds the tree,
        # falling back to a locally built profile once the parent dropped it.
        prof = self._slot_profiles.get(slot)
        if prof is not None:
            return prof
        parent = self._parent
        parent_slot = self._slot_ids[slot]
        if parent._slots[parent_slot] is None:
            return super()._slot_profile(slot)
        base = parent._slot_profile(parent_slot)
        prof = base if base.index == slot else replace(base, index=slot)
        self._slot_profiles[slot] = prof
        return prof

    def _slot_pq_profile(self, slot: int) -> CounterType[Tuple[object, ...]]:
        parent = self._parent
        parent_slot = self._slot_ids[slot]
        if parent._slots[parent_slot] is None:
            return super()._slot_pq_profile(slot)
        pq = parent._slot_pq_profile(parent_slot)
        prof = self._slot_profile(slot)
        if prof.pq_profile is None:
            prof.pq_profile = pq
        return pq

    def pack(self):
        # While the parent has not mutated, the snapshot's pack *is* the
        # parent's (same trees, same interner, same epoch-keyed cache) —
        # one pack serves both.  After a mutation the snapshot builds its
        # own (the parent's new pack no longer matches the pinned trees).
        if self.is_current():
            return self._parent.pack()
        return super().pack()


def _small_pairs(
    sizes_a: Sequence[int],
    sizes_b: Optional[Sequence[int]],
    size_budget: float,
) -> Iterator[Tuple[int, int]]:
    """All pairs whose combined size stays below ``size_budget``.

    These are the pairs that can beat the threshold *without* sharing a single
    binary branch (``BBD = |F| + |G| < 5·τ_ops``), so index-based candidate
    generation must keep them even when their posting lists never meet.
    Enumerated via a sorted-size sweep, so the cost is proportional to the
    number of qualifying pairs, not to all pairs.
    """
    if size_budget <= 0:
        return
    if sizes_b is None:
        order = sorted(range(len(sizes_a)), key=lambda i: sizes_a[i])
        ordered = [sizes_a[i] for i in order]
        for pos, i in enumerate(order):
            # partners after `pos` in size order with size < budget - size_i
            limit = bisect_left(ordered, size_budget - ordered[pos], lo=pos + 1)
            for other in range(pos + 1, limit):
                j = order[other]
                yield (min(i, j), max(i, j))
    else:
        order_b = sorted(range(len(sizes_b)), key=lambda j: sizes_b[j])
        ordered_b = [sizes_b[j] for j in order_b]
        for i, size_a in enumerate(sizes_a):
            limit = bisect_left(ordered_b, size_budget - size_a)
            for pos in range(limit):
                yield (i, order_b[pos])


def branch_candidate_pairs(
    corpus_a: TreeCorpus,
    corpus_b: Optional[TreeCorpus],
    ops_threshold: float,
) -> Tuple[Set[Tuple[int, int]], int]:
    """Sound candidate generation from the binary-branch inverted index.

    Returns ``(candidates, pairs_skipped)`` where ``candidates`` is the set of
    pairs that may still satisfy ``TED < τ`` — pairs sharing at least one
    binary branch, plus pairs small enough to pass with a disjoint profile —
    and ``pairs_skipped`` counts the pairs eliminated without being
    materialized.  ``ops_threshold`` is the threshold converted to
    operation-count space (``τ / min_operation_cost``); pass ``inf`` to
    disable pruning (every pair is a candidate).

    Soundness: ``BBD(F, G) ≤ 5 · TED_ops`` (Yang et al., SIGMOD 2005) and
    disjoint profiles force ``BBD = |F| + |G|``.
    """
    if corpus_b is None:
        total = len(corpus_a) * (len(corpus_a) - 1) // 2
    else:
        total = len(corpus_a) * len(corpus_b)

    if ops_threshold == float("inf"):
        if corpus_b is None:
            candidates = {
                (i, j) for i in range(len(corpus_a)) for j in range(i + 1, len(corpus_a))
            }
        else:
            candidates = {
                (i, j) for i in range(len(corpus_a)) for j in range(len(corpus_b))
            }
        return candidates, 0

    candidates: Set[Tuple[int, int]] = set()

    if corpus_b is None:
        index = corpus_a.branch_index()
        # Posting-list self-products cost Σ |postings|²; when the corpus shares
        # branches so widely that this far exceeds the all-pairs count, the
        # index cannot prune enough to pay for itself — fall back to all pairs
        # (the per-pair cascade stages still run).
        if sum(len(p) * len(p) for p in index.values()) > 8 * max(total, 1):
            return (
                {(i, j) for i in range(len(corpus_a)) for j in range(i + 1, len(corpus_a))},
                0,
            )
        for postings in index.values():
            for ai in range(len(postings)):
                for bi in range(ai + 1, len(postings)):
                    candidates.add((postings[ai], postings[bi]))
        sizes = [tree.n for tree in corpus_a.trees]
        candidates.update(_small_pairs(sizes, None, 5.0 * ops_threshold))
    else:
        index_a = corpus_a.branch_index()
        index_b = corpus_b.branch_index()
        # Same blowup guard as the self-join branch: posting-list products
        # cost Σ |postings_a|·|postings_b| over shared branches; when that far
        # exceeds the all-pairs count the index cannot pay for itself.
        product_work = sum(
            len(postings_a) * len(index_b.get(branch, ()))
            for branch, postings_a in index_a.items()
        )
        if product_work > 8 * max(total, 1):
            return (
                {(i, j) for i in range(len(corpus_a)) for j in range(len(corpus_b))},
                0,
            )
        for branch, postings_a in index_a.items():
            postings_b = index_b.get(branch)
            if not postings_b:
                continue
            for i in postings_a:
                for j in postings_b:
                    candidates.add((i, j))
        sizes_a = [tree.n for tree in corpus_a.trees]
        sizes_b = [tree.n for tree in corpus_b.trees]
        candidates.update(_small_pairs(sizes_a, sizes_b, 5.0 * ops_threshold))

    return candidates, total - len(candidates)
