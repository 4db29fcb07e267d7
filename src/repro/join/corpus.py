"""Corpus-indexed filter artifacts for batch similarity joins.

A join over ``N`` trees evaluates up to ``N·(N−1)/2`` pairs, but every filter
in the bound cascade only consumes *per-tree* quantities: sizes, label
multisets, binary-branch multisets and traversal label strings.
:class:`TreeCorpus` computes each of these **once per tree** (or
once per epoch) and reuses it across all pairs.  The size, label and
binary-branch multisets are lowered into flat arrays
(:meth:`TreeCorpus.filter_arrays`, see :mod:`repro.join.pairs`): candidate
generation and the three linear stages run over those arrays for whole
blocks of pairs, while the per-tree profiles (traversal strings) serve the
stages that still work pair by pair.

**Live corpora (the versioned store).**  A corpus is not frozen at
construction: :meth:`TreeCorpus.add_trees` appends slots and
:meth:`TreeCorpus.remove_trees` tombstones them; neither rebuilds anything.
Every mutation bumps a monotonic :attr:`TreeCorpus.epoch`; all derived
caches — the dense views, the batch-kernel pack and the filter arrays — are
keyed on the epoch, so a mutated corpus can never silently serve stale
artifacts.  The invariant the property suite enforces: after **any**
interleaving of adds and removals the corpus is observably identical
(distances, join matches, kNN/range results, cascade stats) to a fresh
:class:`TreeCorpus` built from the same final tree sequence.

Downstream consumers that need a stable view across queries (the query
engine, long refinement plans) pin a :class:`CorpusSnapshot` — an
epoch-pinned immutable corpus that shares the parent's per-tree profiles and
reports the membership drift (:meth:`CorpusSnapshot.delta`) since the pin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..exceptions import CorpusError
from ..trees.tree import Tree


@dataclass
class TreeProfile:
    """Per-tree filter artifacts, computed once and shared by every pair."""

    index: int
    tree: Tree
    size: int
    preorder_labels: List[object]
    postorder_labels: List[object]


class TreeCorpus:
    """A versioned collection of trees with per-tree artifacts.

    Parameters
    ----------
    trees:
        The trees of the collection (kept in order; pair indices returned by
        the join refer to positions in the *current* live sequence).

    A corpus is cheap to construct: a tree's profile (size and traversal
    strings, ``O(n)``) is built on its first :meth:`profile` access and
    cached, and the filter arrays and pack on the first join or query of an
    epoch.

    **Versioning.**  Internally trees live in append-only *slots*; a removal
    tombstones its slot (slot ids are never reused or renumbered, so pinned
    snapshots stay translatable), and the public *dense* indices — what
    ``corpus.trees[i]``, join matches and query results mean — are the live
    slots in ascending slot order.  Every mutation bumps :attr:`epoch`;
    dense views (the ``trees`` tuple, :meth:`profile` wrappers,
    :meth:`filter_arrays`) are rebuilt lazily when their cached epoch is
    stale, :meth:`pack` is derived from the previous epoch's pack, and
    slot-keyed profiles survive mutations.

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

    def __init__(
        self,
        trees: Sequence[Tree],
        interner=None,
    ) -> None:
        # Append-only slot storage: removed slots become None and their ids
        # join the tombstone set; slot ids are stable for the corpus's life.
        self._slots: List[Optional[Tree]] = list(trees)
        self._dead: Set[int] = set()
        self._epoch = 0
        self._interner = interner
        # Slot-keyed artifacts: survive mutations untouched.
        self._slot_profiles: Dict[int, TreeProfile] = {}
        # Per-epoch dense views, rebuilt lazily after a mutation.
        self._view_epoch = -1
        self._view_slots: List[int] = []
        self._view_trees: Tuple[Tree, ...] = ()
        self._dense_of: Dict[int, int] = {}
        self._dense_profiles: List[Optional[TreeProfile]] = []
        # Interner-coded arrays (batch-kernel pack, filter arrays), per epoch:
        # (name, own interner?) → (interner, epoch, arrays, slot ids).
        self._coded: Dict[Tuple[str, bool], Tuple[object, int, object, List[int]]] = {}
        self._snapshot_cache: Optional["CorpusSnapshot"] = None
        # Mutation ledger (exposed verbatim by the service's /stats).
        self.adds = 0
        self.removals = 0
        self.trees_added = 0
        self.trees_removed = 0

    # ------------------------------------------------------------------ #
    # Versioning
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Monotonic version counter; every mutation call bumps it by one.

        All derived caches (dense views, the filter arrays, the batch-kernel
        pack, the service's pair-result cache) key on the epoch, so
        invalidation after a mutation is free — stale entries simply never
        match.
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

        Only appends slots (nothing is profiled or rebuilt here).  Bumps
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
        self._slots.extend(new_trees)
        self._epoch += 1
        self.adds += 1
        self.trees_added += len(new_trees)
        return list(range(first_dense, first_dense + len(new_trees)))

    def remove_trees(self, indices: Iterable[int]) -> List[int]:
        """Remove trees by their current dense indices; returns them sorted.

        Removal never rebuilds: each tree's slot is tombstoned and its
        cached profile and interner code array are dropped.  Bumps
        :attr:`epoch`.
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
            self._slot_profiles.pop(slot, None)
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
        return dense

    def snapshot(self) -> "CorpusSnapshot":
        """An immutable view pinned at the current epoch (cached per epoch)."""
        snap = self._snapshot_cache
        if snap is None or snap.epoch != self._epoch:
            snap = CorpusSnapshot(self)
            self._snapshot_cache = snap
        return snap

    def mutation_counters(self) -> Dict[str, int]:
        """The mutation ledger (adds/removals, trees added/removed) as a dict."""
        return {
            "adds": self.adds,
            "removals": self.removals,
            "trees_added": self.trees_added,
            "trees_removed": self.trees_removed,
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
                preorder_labels=tree.labels_preorder(),
                postorder_labels=tree.labels_postorder(),
            )
            self._slot_profiles[slot] = prof
        return prof

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
        """The corpus's (cached) batch-kernel pack.

        A :class:`~repro.algorithms.batch_kernel.CorpusPack` built over
        :meth:`interner` — the struct-of-arrays input of the batched
        small-pair kernels.  The cache is keyed on **(interner identity,
        epoch)**: repeated batches within one epoch share a single pack,
        including the one handed to worker processes through the pool
        initializer.  The first pack of a new epoch is derived from the
        previous one (see :meth:`pack_for`); a late :meth:`share_interner`
        switch lowers every tree again, since a pack whose label codes no
        longer match the corpus must never be served.
        """
        return self.pack_for(self.interner())

    def pack_for(self, interner):
        """The batch-kernel pack coded by ``interner`` (cached like
        :meth:`pack`); a cross batch packs side b against side a's
        interner so the codes of both packs agree.

        When the cached pack is from an earlier epoch but the same
        interner, the new one is derived from it
        (:func:`~repro.algorithms.batch_kernel.extend_corpus_pack`): the
        surviving trees' rows are copied and only the trees added since
        are lowered, giving the same block a full build would.  The first
        pack, or the first under another interner, lowers every tree.
        """
        from ..algorithms import batch_kernel

        return self._coded_arrays(
            "pack", batch_kernel.build_corpus_pack, interner, batch_kernel.extend_corpus_pack
        )

    def filter_arrays(self, interner=None):
        """The size, label and binary-branch arrays of the cascade.

        A :class:`~repro.join.pairs.FilterArrays` over the live trees,
        coded by ``interner`` (default: :meth:`interner`) and cached per
        epoch like :meth:`pack`.  Built on first use by a join or query,
        never by :meth:`add_trees` / :meth:`remove_trees`.
        """
        from .pairs import build_filter_arrays

        if interner is None:
            interner = self.interner()
        return self._coded_arrays("filters", build_filter_arrays, interner)

    def _coded_arrays(self, name, build, interner, extend=None):
        """``build(trees, interner)``, cached per epoch and interner under
        ``name``: one slot for the corpus's own interner and one for the
        latest foreign one.

        Each entry records the slot ids it was built over.  With ``extend``,
        a stale entry under the same interner is carried into the new epoch
        as ``extend(arrays, keep, new_trees, interner)`` instead of being
        rebuilt: ``keep`` are its dense positions whose slots are still
        live, ``new_trees`` the trees added since.  Slots are append-only
        and dense order is slot order, so the live view is exactly the kept
        slots followed by the new ones.  The stale entry is replaced, so
        its arrays are freed once no batch holds them.
        """
        self._refresh_view()
        key = (name, interner is self._interner)
        cached = self._coded.get(key)
        if cached is not None and cached[0] is interner and cached[1] == self._epoch:
            return cached[2]
        if extend is not None and cached is not None and cached[0] is interner:
            dead = self._dead
            keep = [i for i, slot in enumerate(cached[3]) if slot not in dead]
            slots = self._slots
            new_trees = [slots[s] for s in self._view_slots[len(keep):]]
            arrays = extend(cached[2], keep, new_trees, interner)
        else:
            arrays = build(self._view_trees, interner)
        self._coded[key] = (interner, self._epoch, arrays, self._view_slots)
        return arrays


class CorpusSnapshot(TreeCorpus):
    """An epoch-pinned, immutable view of a live :class:`TreeCorpus`.

    A snapshot *is* a corpus (every join/query/pack consumer works on it
    unchanged) whose membership is the parent's live trees at pin time.  It
    shares the parent's label interner and — for trees the parent still
    holds — its per-tree profiles, so pinning is cheap and the expensive
    artifacts stay amortized in one place.  Mutators raise
    :class:`~repro.exceptions.CorpusError`.

    Snapshots make corpus mutation safe for long-lived consumers: the query
    engine pins one and consults :meth:`delta` per query — the
    *deferred-insert side list* (parent trees added since the pin) is
    evaluated exactly and merged, parent removals are filtered from the
    snapshot's results via :meth:`to_parent`, and once the drift exceeds
    the engine's staleness budget a fresh snapshot replaces the pin.
    """

    def __init__(self, parent: TreeCorpus) -> None:
        parent._refresh_view()
        super().__init__(parent._view_trees, interner=parent.interner())
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

    def pack(self):
        # While the parent has not mutated, the snapshot's pack *is* the
        # parent's (same trees, same interner) — one pack serves both.  The
        # snapshot files it in its own cache, so after the parent moves on
        # it keeps serving that pack instead of lowering the pinned trees
        # again; packs are immutable, so the parent's later epochs cannot
        # change it.  A snapshot that never served a pack while current
        # builds its own.
        if self.is_current():
            parent = self._parent
            pack = parent.pack()
            interner = parent._interner
            self._refresh_view()
            self._coded[("pack", interner is self._interner)] = (
                interner, self._epoch, pack, self._view_slots,
            )
            return pack
        return super().pack()
