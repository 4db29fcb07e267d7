"""Pair arrays: candidate generation and the linear bounds over index arrays.

The size, label and binary-branch bounds of the cascade read per-tree
quantities only, so a pair's work is an intersection of two small
multisets.  This module lowers those multisets into flat per-corpus arrays
(:class:`FilterArrays`, built once per corpus epoch by
:meth:`TreeCorpus.filter_arrays <repro.join.corpus.TreeCorpus.filter_arrays>`)
and evaluates the bounds for whole blocks of pairs with NumPy:

* **labels** are ``(code, count)`` rows over the corpus's
  :class:`~repro.algorithms.workspace.LabelInterner` codes;
* **binary branches** are ``(key, count)`` rows, a key packing the codes of
  a branch's ``(label, first child, next sibling)`` triple, so two corpora
  coded by one interner (a cross join, a query and its corpus) compare keys
  directly;
* **candidate generation** (:func:`branch_candidate_pairs`) groups sorted
  branch keys: pairs sharing a key are candidates, and summing
  ``min(count)`` over the keys a pair shares yields its branch multiset
  intersection — exactly what the ``BBD / 5`` stage needs — as a
  by-product.  Every other pair shares no branch.

Codes are exact for any alphabet below ``2**21 − 2`` labels.  Past that, and
for labels the interner cannot code (unhashable or non-reflexive ones),
several labels share one code.  Merging multiset keys can only grow an
intersection, so every bound stays a valid lower bound, and candidate
generation stays sound; it only prunes less.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

_INF = float("inf")

#: Code of a missing child / sibling in a binary branch, and the shared code
#: of labels the interner cannot code.  Interner codes are shifted past them.
NULL_CODE = 0
LOOSE_CODE = 1
_CODE_SHIFT = 2

#: Bits per label code in a packed binary-branch key (three codes → 63 bits).
_FIELD_BITS = 21
_FIELD_LIMIT = 1 << _FIELD_BITS

#: Pair rows emitted per step of candidate generation; accumulated rows are
#: merged whenever they outgrow the distinct pairs found so far, so memory
#: stays proportional to the candidates, not to the posting products.
EMIT_CHUNK = 1 << 16


class FilterArrays:
    """The size, label and binary-branch multisets of one corpus side.

    ``T`` trees; the label rows of tree ``t`` are ``[label_off[t],
    label_off[t + 1])`` with ascending codes, likewise the branch rows::

        sizes[T]
        label_off[T + 1]  ─► label_code[L],  label_count[L]
        branch_off[T + 1] ─► branch_key[B],  branch_count[B],  branch_tree[B]

    Built from the live trees of one epoch against one interner; arrays of
    two sides can be compared only when both were coded by the same
    interner (:func:`filter_array_pair`).
    """

    __slots__ = (
        "sizes", "label_off", "label_code", "label_count",
        "branch_off", "branch_key", "branch_count", "branch_tree", "label_width",
        "_ranks", "_by_key", "_by_size",
    )

    def __init__(self, sizes, label_rows, branch_rows) -> None:
        self.sizes = sizes
        self.label_off, self.label_code, self.label_count, _ = label_rows
        self.branch_off, self.branch_key, self.branch_count, self.branch_tree = branch_rows
        self.label_width = int(self.label_code.max()) + 1 if len(self.label_code) else 1
        self._ranks = self._by_key = self._by_size = None

    def __len__(self) -> int:
        return len(self.sizes)

    def branch_ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(vocabulary, ranks)``: the sorted distinct branch keys and each
        branch row's position in it (cached)."""
        if self._ranks is None:
            vocab, ranks = np.unique(self.branch_key, return_inverse=True)
            self._ranks = (vocab, ranks.reshape(-1))
        return self._ranks

    def branches_by_key(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, trees, counts)`` of every branch row, sorted by key then
        tree (cached): the posting lists, back to back."""
        if self._by_key is None:
            order = np.lexsort((self.branch_tree, self.branch_key))
            self._by_key = (
                self.branch_key[order], self.branch_tree[order], self.branch_count[order]
            )
        return self._by_key

    def by_size(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, sorted sizes)``: trees in ascending size order, ties by
        index (cached)."""
        if self._by_size is None:
            order = np.argsort(self.sizes, kind="stable")
            self._by_size = (order, self.sizes[order])
        return self._by_size


def _loose_code(interner, label) -> int:
    try:
        return interner.code(label)
    except TypeError:
        return LOOSE_CODE - _CODE_SHIFT


def _histogram(owner: np.ndarray, values: np.ndarray, n_trees: int):
    """Per-tree ``(off, value, count, tree)`` rows of ``values``, ascending."""
    order = np.lexsort((values, owner))
    owner, values = owner[order], values[order]
    change = np.empty(len(values) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:-1])
    change[1:-1] |= owner[1:] != owner[:-1]
    bounds = np.flatnonzero(change)
    heads = bounds[:-1]
    off = np.zeros(n_trees + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[heads], minlength=n_trees), out=off[1:])
    return off, values[heads], np.diff(bounds), owner[heads]


def build_filter_arrays(trees: Sequence, interner) -> FilterArrays:
    """Lower ``trees`` into :class:`FilterArrays` (one-time, ``O(Σ n log)``).

    ``interner`` provides the label codes and records any new labels.  A
    node ``v``'s binary branch is ``(label(v), label(first child),
    label(next sibling))``; in postorder the previous sibling of ``v`` is
    the node just before ``v``'s subtree, ``lml(v) − 1``.
    """
    n_trees = len(trees)
    sizes = np.fromiter((tree.n for tree in trees), dtype=np.int64, count=n_trees)
    total = int(sizes.sum())
    parts: Tuple[List, List, List, List] = ([], [], [], [])
    for tree in trees:
        codes = interner.codes_postorder(tree)
        if codes is None:
            codes = [_loose_code(interner, label) for label in tree.labels]
        for part, values in zip(parts, (codes, tree.parents, tree.lml, tree.child_index)):
            part.append(values)
    codes, parents, lml, child_index = (
        np.fromiter(chain.from_iterable(part), dtype=np.int64, count=total)
        for part in parts
    )
    codes += _CODE_SHIFT
    owner = np.repeat(np.arange(n_trees), sizes)
    base = (np.cumsum(sizes) - sizes)[owner]
    first_child = np.full(total, NULL_CODE, dtype=np.int64)
    next_sibling = np.full(total, NULL_CODE, dtype=np.int64)
    child = np.flatnonzero(parents >= 0)
    leading = child_index[child] == 0
    first = child[leading]
    first_child[parents[first] + base[first]] = codes[first]
    later = child[~leading]
    next_sibling[lml[later] + base[later] - 1] = codes[later]
    fields = [codes, first_child, next_sibling]
    if total and codes.max() >= _FIELD_LIMIT:
        # Fold oversized codes into the field (sound: merged keys only grow
        # intersections); NULL and loose codes stay put.
        fields = [
            np.where(f < _FIELD_LIMIT, f, 1 + (f - 1) % (_FIELD_LIMIT - 1)) for f in fields
        ]
    keys = (fields[0] << (2 * _FIELD_BITS)) | (fields[1] << _FIELD_BITS) | fields[2]
    return FilterArrays(
        sizes, _histogram(owner, codes, n_trees), _histogram(owner, keys, n_trees)
    )


def filter_array_pair(corpus_a, corpus_b) -> Tuple[FilterArrays, FilterArrays]:
    """The comparable ``(arrays_a, arrays_b)`` of a pair array's two sides.

    Side b is coded by side a's interner — its own cached arrays when the
    corpora already share one — so the codes of both sides agree.
    ``corpus_b=None`` means pairs within ``corpus_a``.
    """
    arrays_a = corpus_a.filter_arrays()
    if corpus_b is None:
        return arrays_a, arrays_a
    return arrays_a, corpus_b.filter_arrays(corpus_a.interner())


# --------------------------------------------------------------------------- #
# Ragged index helpers
# --------------------------------------------------------------------------- #
def _ragged(starts: np.ndarray, lens: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges ``[starts[k], starts[k] + lens[k])`` into
    ``(k, position)`` arrays."""
    owner = np.repeat(np.arange(len(lens)), lens)
    at = np.arange(len(owner)) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return owner, at


def _intersections(off_a, val_a, cnt_a, rows_a, off_b, val_b, cnt_b, rows_b, width):
    """Per pair ``p``: Σ ``min(count)`` over the values rows ``rows_a[p]``
    and ``rows_b[p]`` share.  Values lie in ``[0, width)``, ascending within
    a row; side-a values may repeat within a row only where side b has no
    equal value."""
    owner_a, at_a = _ragged(off_a[rows_a], off_a[rows_a + 1] - off_a[rows_a])
    owner_b, at_b = _ragged(off_b[rows_b], off_b[rows_b + 1] - off_b[rows_b])
    if not len(at_a) or not len(at_b):
        return np.zeros(len(rows_a), dtype=np.int64)
    key_a = owner_a * width + val_a[at_a]
    key_b = owner_b * width + val_b[at_b]
    pos = np.minimum(np.searchsorted(key_a, key_b), len(key_a) - 1)
    hit = key_a[pos] == key_b
    common = np.minimum(cnt_a[at_a[pos[hit]]], cnt_b[at_b[hit]])
    return np.bincount(owner_b[hit], weights=common, minlength=len(rows_a)).astype(np.int64)


class PairSides:
    """The filter arrays of both sides of a pair array, with the derived
    tables their comparisons share (built once per cascade run)."""

    def __init__(self, arrays_a: FilterArrays, arrays_b: FilterArrays) -> None:
        self.a = arrays_a
        self.b = arrays_b
        self._branch_ids = None

    def label_intersection(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        a, b = self.a, self.b
        return _intersections(
            a.label_off, a.label_code, a.label_count, i,
            b.label_off, b.label_code, b.label_count, j,
            max(a.label_width, b.label_width),
        )

    def branch_intersection(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        if self._branch_ids is None:
            self._branch_ids = self._dense_branch_ids()
        ids_a, ids_b, width = self._branch_ids
        a, b = self.a, self.b
        return _intersections(
            a.branch_off, ids_a, a.branch_count, i,
            b.branch_off, ids_b, b.branch_count, j, width,
        )

    def _dense_branch_ids(self):
        """Branch keys as small ids that keep each row ascending: side b's
        ranks in its vocabulary (odd ids), side a's keys at their insertion
        point into that vocabulary (odd when present, even when absent —
        absent keys can never meet a side-b key)."""
        vocab, ranks = self.b.branch_ranks()
        if self.a is self.b:
            return ranks, ranks, max(len(vocab), 1)
        keys = self.a.branch_key
        pos = np.searchsorted(vocab, keys)
        present = np.zeros(len(keys), dtype=bool)
        if len(vocab):
            present = vocab[np.minimum(pos, len(vocab) - 1)] == keys
        return 2 * pos + present, 2 * ranks + 1, 2 * len(vocab) + 1


class PairBlock:
    """A block of pairs ``(i[p], j[p])`` handed to the array stages.

    ``shared`` holds each pair's binary-branch multiset intersection when
    candidate generation produced it, else ``None`` (computed on demand).
    """

    __slots__ = ("sides", "i", "j", "shared")

    def __init__(self, sides: PairSides, i, j, shared=None) -> None:
        self.sides = sides
        self.i = i
        self.j = j
        self.shared = shared

    def take(self, idx: np.ndarray) -> "PairBlock":
        shared = self.shared[idx] if self.shared is not None else None
        return PairBlock(self.sides, self.i[idx], self.j[idx], shared)

    def sizes(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.sides.a.sizes[self.i], self.sides.b.sizes[self.j]

    def label_intersection(self) -> np.ndarray:
        return self.sides.label_intersection(self.i, self.j)

    def branch_intersection(self) -> np.ndarray:
        if self.shared is not None:
            return self.shared
        return self.sides.branch_intersection(self.i, self.j)


# --------------------------------------------------------------------------- #
# Candidate pairs
# --------------------------------------------------------------------------- #
class CandidatePairs:
    """Candidate pairs ``(i, j)`` as index arrays, consumed in blocks.

    Either explicit arrays — in the caller's order, optionally with each
    pair's binary-branch intersection (``shared``) — or, from
    :meth:`all_pairs`, every pair of the two sides in lexicographic order,
    enumerated block by block so even a huge all-pairs set never
    materializes at once.  Iterating yields ``(i, j)`` tuples.
    """

    def __init__(self, i, j, shared: Optional[np.ndarray] = None) -> None:
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)
        self.shared = shared
        self._sides: Optional[Tuple[int, Optional[int]]] = None

    @classmethod
    def all_pairs(cls, n_a: int, n_b: Optional[int] = None) -> "CandidatePairs":
        """Every pair ``i < j`` of ``n_a`` trees, or all ``n_a × n_b`` pairs."""
        pairs = cls(np.zeros(0), np.zeros(0))
        pairs._sides = (n_a, n_b)
        return pairs

    def __len__(self) -> int:
        if self._sides is None:
            return len(self.i)
        n_a, n_b = self._sides
        return n_a * (n_a - 1) // 2 if n_b is None else n_a * n_b

    def blocks(self, size: int) -> Iterator[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        """``(i, j, shared)`` slices of at most ``size`` pairs, in order."""
        if self._sides is not None:
            n_a, n_b = self._sides
            rows = np.arange(n_a, dtype=np.int64)
            row_start = rows * n_a - rows * (rows + 1) // 2  # pairs before row i
        for start in range(0, len(self), size):
            stop = min(start + size, len(self))
            if self._sides is None:
                shared = self.shared[start:stop] if self.shared is not None else None
                yield self.i[start:stop], self.j[start:stop], shared
                continue
            k = np.arange(start, stop, dtype=np.int64)
            if n_b is not None:
                yield k // n_b, k % n_b, None
                continue
            i = np.searchsorted(row_start, k, side="right") - 1
            yield i, k - row_start[i] + i + 1, None

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for i, j, _ in self.blocks(EMIT_CHUNK):
            yield from zip(i.tolist(), j.tolist())


def _merge(codes: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``codes`` ascending, with their summed ``weights``."""
    if not len(codes):
        return codes, weights
    order = np.argsort(codes)
    codes, weights = codes[order], weights[order]
    heads = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[heads], np.add.reduceat(weights, heads)


class _PairAccumulator:
    """Collects ``(pair code, weight)`` rows chunk by chunk, merging
    duplicates whenever the raw rows outgrow twice the merged ones."""

    def __init__(self) -> None:
        self.codes: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        self.weights: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        self.rows = 0
        self.merged = 0

    def add(self, codes: np.ndarray, weights: np.ndarray) -> None:
        self.codes.append(codes)
        self.weights.append(weights)
        self.rows += len(codes)
        if self.rows > 2 * self.merged + EMIT_CHUNK:
            self.result()

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        codes, weights = _merge(np.concatenate(self.codes), np.concatenate(self.weights))
        self.codes, self.weights = [codes], [weights]
        self.rows = self.merged = len(codes)
        return codes, weights

    def add_ranges(self, lo, reps, make) -> None:
        """Emit, for every row ``r``, partners ``lo[r] … lo[r] + reps[r] − 1``
        through ``make(rows, partners) → (codes, weights)``, chunk by chunk."""
        ends = np.cumsum(reps)
        if not len(ends) or not ends[-1]:
            return
        start = 0
        while start < len(reps):
            floor = ends[start] - reps[start]
            stop = max(int(np.searchsorted(ends, floor + EMIT_CHUNK, side="right")), start + 1)
            rows, partners = _ragged(lo[start:stop], reps[start:stop])
            self.add(*make(rows + start, partners))
            start = stop


def _shared_branch_pairs(
    arrays_a: FilterArrays,
    arrays_b: FilterArrays,
    self_join: bool,
    ops_threshold: float,
    work_limit: Optional[int],
) -> Optional[CandidatePairs]:
    """Pairs sharing a binary branch plus the small-size sweep, with each
    pair's branch multiset intersection; ``None`` when the posting-product
    work exceeds ``work_limit``."""
    n_b = len(arrays_b)
    keys_b, trees_b, counts_b = arrays_b.branches_by_key()
    if self_join:
        keys_a, trees_a, counts_a = keys_b, trees_b, counts_b
        # Each row pairs with the later rows of its key's posting list.
        heads = np.flatnonzero(np.concatenate(([True], keys_b[1:] != keys_b[:-1])))
        postings = np.diff(np.append(heads, len(keys_b)))
        lo = np.arange(1, len(keys_b) + 1)
        hi = np.repeat(heads + postings, postings)
        work = int((postings * postings).sum())  # Σ |postings|²
    else:
        keys_a = arrays_a.branch_key
        trees_a = arrays_a.branch_tree
        counts_a = arrays_a.branch_count
        lo = np.searchsorted(keys_b, keys_a, side="left")
        hi = np.searchsorted(keys_b, keys_a, side="right")
        work = int((hi - lo).sum())  # Σ |postings_a| · |postings_b|
    if work_limit is not None and work > work_limit:
        return None

    found = _PairAccumulator()
    found.add_ranges(
        lo, hi - lo,
        lambda rows, partners: (
            trees_a[rows] * n_b + trees_b[partners],
            np.minimum(counts_a[rows], counts_b[partners]),
        ),
    )
    # Small-size sweep: pairs with |F| + |G| < 5·τ_ops may match with fully
    # disjoint branch profiles (BBD = |F| + |G|), so they stay candidates.
    budget = 5.0 * ops_threshold
    sizes_a = arrays_a.sizes
    order_b, sorted_b = arrays_b.by_size()
    if self_join:
        # Partners after position p in size order, as a sorted-size sweep.
        sweep_lo = np.arange(1, n_b + 1)
        limit = np.maximum(np.searchsorted(sorted_b, budget - sorted_b, side="left"), sweep_lo)

        def sweep(rows, partners):
            first, second = order_b[rows], order_b[partners]
            return (
                np.minimum(first, second) * n_b + np.maximum(first, second),
                np.zeros(len(rows), dtype=np.int64),
            )
    else:
        sweep_lo = np.zeros(len(sizes_a), dtype=np.int64)
        limit = np.searchsorted(sorted_b, budget - sizes_a, side="left")

        def sweep(rows, partners):
            return rows * n_b + order_b[partners], np.zeros(len(rows), dtype=np.int64)

    found.add_ranges(sweep_lo, limit - sweep_lo, sweep)
    codes, shared = found.result()
    return CandidatePairs(codes // max(n_b, 1), codes % max(n_b, 1), shared)


def branch_candidate_pairs(corpus_a, corpus_b, ops_threshold: float) -> Tuple[CandidatePairs, int]:
    """Sound candidate generation from shared binary branches.

    Returns ``(candidates, pairs_skipped)``: ``candidates`` are the pairs
    that may still satisfy ``TED < τ`` — pairs sharing at least one binary
    branch, plus pairs small enough to pass with a disjoint profile — in
    lexicographic order, each carrying its branch multiset intersection;
    ``pairs_skipped`` counts the pairs eliminated without being
    materialized.  ``corpus_b=None`` joins ``corpus_a`` with itself
    (pairs ``i < j``).  ``ops_threshold`` is the threshold in
    operation-count space (``τ / min_operation_cost``); ``inf`` disables
    pruning (every pair is a candidate).

    Soundness: ``BBD(F, G) ≤ 5 · TED_ops`` (Yang et al., SIGMOD 2005) and
    disjoint profiles force ``BBD = |F| + |G|``.  When the posting-list
    products (``Σ |postings|²``, or ``Σ |postings_a|·|postings_b|`` across
    two corpora) exceed eight times the all-pairs count, the index cannot
    pay for itself and every pair is a candidate (the cascade stages still
    run).
    """
    n_a = len(corpus_a)
    n_b = None if corpus_b is None else len(corpus_b)
    every = CandidatePairs.all_pairs(n_a, n_b)
    if ops_threshold == _INF:
        return every, 0
    total = len(every)
    found = _shared_branch_pairs(
        *filter_array_pair(corpus_a, corpus_b),
        self_join=corpus_b is None,
        ops_threshold=ops_threshold,
        work_limit=8 * max(total, 1),
    )
    if found is None:
        return every, 0
    return found, total - len(found)


def query_candidate_pairs(query_corpus, corpus, ops_threshold: float) -> Tuple[CandidatePairs, int]:
    """One-vs-corpus candidates ``(0, j)`` for the one-tree ``query_corpus``.

    The asymmetric counterpart of :func:`branch_candidate_pairs`, with the
    same soundness argument: corpus trees sharing a branch with the query,
    plus trees small enough to pass with a disjoint profile.  There is no
    posting-product fallback — a single query's products are linear.
    Returns ``(candidates, trees_pruned)``.
    """
    n = len(corpus)
    if ops_threshold == _INF:
        return CandidatePairs.all_pairs(1, n), 0
    found = _shared_branch_pairs(
        *filter_array_pair(query_corpus, corpus),
        self_join=False,
        ops_threshold=ops_threshold,
        work_limit=None,
    )
    return found, n - len(found)
