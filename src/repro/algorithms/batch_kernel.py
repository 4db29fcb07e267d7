"""The unit-cost small-pair program and its batch driver.

Small unit-cost pairs (both trees within ``SMALL_PAIR_CUTOFF`` nodes) skip
the strategy executor and run one flat program: the left-path keyroot
sweep of the Zhang–Shasha recurrence over per-tree ``(lml, keyroots,
codes)`` arrays.  The program has exactly two implementations:

* **the C kernel** — :func:`repro.algorithms.native.native_batch`, used
  whenever a compiled provider is present;
* **the Python twin** — :func:`small_pair_regions` in this module, used
  otherwise (no C compiler, or ``RTED_NO_NATIVE=1``).

Single pairs (:meth:`TedWorkspace.compute_small
<repro.algorithms.workspace.TedWorkspace.compute_small>`) and batch lanes
(:func:`kernel_chunk_entries`) both take the C kernel when it is there and
the twin when it is not, so every path runs the same program.

* **Packing** — :func:`build_corpus_pack` lowers a corpus into
  struct-of-arrays form (:class:`CorpusPack`): per-tree sizes and gate
  flags plus the concatenated ``lml`` / label-code / keyroot arrays the C
  kernel reads.  A pack is built once per corpus epoch and can be exported
  zero-copy to worker processes (:mod:`repro.join.shared`).
* **Batches** — :func:`kernel_chunk_entries` applies the per-pair gates of
  ``compute_small`` and runs the surviving lanes in one
  :func:`~repro.algorithms.native.native_batch` call, or lane by lane
  through :func:`run_batch` (the twin over the pack arrays) without a
  provider.

Bit-identity
------------
Both implementations execute the same integer-valued float64 arithmetic —
every add is by 1.0, every min is exact — and the bounded mode runs the
same banded sweep, per-row abort test and band cell accounting, so values,
subproblem counts and abort flags are equal, not just close.  The property
suite asserts exact equality against ``zhang_shasha_distance`` and between
the two implementations.
"""

from __future__ import annotations

from itertools import chain
from math import ceil, inf
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime import active_deadline
from . import native
from .base import CutoffExceeded, check_row_cutoff

try:  # Optional accelerator, mirroring repro.algorithms.workspace.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None


def kernel_available() -> bool:
    """Whether corpus packs can be built (NumPy importable)."""
    return _np is not None


def small_pair_regions(
    n, m, cutoff, band_w, lml_f, keyroots_f, codes_f,
    lml_g, keyroots_g, codes_g, D, fd, deadline=None,
) -> Tuple[float, int]:
    """The small-pair program in Python: the twin of the C kernel.

    Sweeps every keyroot-pair region of the left-path program over the
    per-tree ``lml`` / ``keyroots`` / label-code arrays and returns
    ``(distance, cells)``.  ``D`` is a flat buffer of at least ``n · m``
    subtree distances and ``fd`` at least ``n + 1`` forest-distance rows
    of width ``m + 1``; both may hold stale values from earlier pairs.
    ``band_w`` is ``None`` for an unbounded run, otherwise
    :func:`band_width` of the cutoff; bounded callers must have run the
    size pre-check (``|n − m| < cutoff``), which keeps the final corner
    in-band.

    Bounded runs raise :class:`~repro.algorithms.base.CutoffExceeded` with
    the cutoff as the proving bound and the evaluated cell count attached,
    so aborted runs report work in the same currency as finished ones.
    """
    cells = 0
    for kf in keyroots_f:
        lf = lml_f[kf]
        rows = kf - lf + 2
        for kg in keyroots_g:
            # Keyroots ascend, so the whole-tree region runs last; only
            # its rows are whole-tree prefix distances, making the row
            # abort sound there (unit band 1).
            final = cutoff is not None and kf == n - 1 and kg == m - 1
            lg = lml_g[kg]
            cols = kg - lg + 2
            row = fd[0]
            for j in range(cols):
                row[j] = float(j)
            if band_w is None:
                for i in range(1, rows):
                    if deadline is not None:
                        deadline.tick()
                    node_f = lf + i - 1
                    spans_f = lml_f[node_f] == lf
                    code_f = codes_f[node_f]
                    offset = node_f * m
                    prev = fd[i - 1]
                    row = fd[i]
                    row[0] = float(i)
                    split_row = fd[lml_f[node_f] - lf]
                    for j in range(1, cols):
                        node_g = lg + j - 1
                        best = prev[j] + 1.0
                        candidate = row[j - 1] + 1.0
                        if candidate < best:
                            best = candidate
                        if spans_f and lml_g[node_g] == lg:
                            candidate = prev[j - 1] + (
                                0.0 if code_f == codes_g[node_g] else 1.0
                            )
                            if candidate < best:
                                best = candidate
                            row[j] = best
                            D[offset + node_g] = best
                        else:
                            candidate = split_row[lml_g[node_g] - lg] + D[offset + node_g]
                            if candidate < best:
                                best = candidate
                            row[j] = best
                cells += (rows - 1) * (cols - 1)
                continue
            # τ-bounded sweep: each row only fills its |i − j| ≤ band_w
            # window; out-of-band values are ≥ cutoff by the size
            # argument, so reading them as +inf only inflates cells that
            # are themselves ≥ cutoff (sub-cutoff cells and their
            # winning candidate chains stay in-band and bit-identical).
            # The reused buffers hold stale garbage outside the window,
            # hence the inf sentinels flanking each row and the explicit
            # band predicates on split/subtree reads.
            for i in range(1, rows):
                if deadline is not None:
                    deadline.tick()
                lo = i - band_w
                if lo < 1:
                    lo = 1
                hi = i + band_w
                if hi > cols - 1:
                    hi = cols - 1
                if lo > hi:
                    # The band left the table; every later row is
                    # farther out still, so the region is finished.
                    break
                node_f = lf + i - 1
                spans_f = lml_f[node_f] == lf
                code_f = codes_f[node_f]
                offset = node_f * m
                prev = fd[i - 1]
                row = fd[i]
                row[0] = float(i)
                if lo > 1:
                    row[lo - 1] = inf
                si = lml_f[node_f] - lf
                split_row = fd[si]
                rem_f_node = node_f - lml_f[node_f]
                for j in range(lo, hi + 1):
                    node_g = lg + j - 1
                    best = prev[j] + 1.0
                    candidate = row[j - 1] + 1.0
                    if candidate < best:
                        best = candidate
                    if spans_f and lml_g[node_g] == lg:
                        candidate = prev[j - 1] + (
                            0.0 if code_f == codes_g[node_g] else 1.0
                        )
                        if candidate < best:
                            best = candidate
                        row[j] = best
                        D[offset + node_g] = best
                    else:
                        sc = lml_g[node_g] - lg
                        if si == 0 or sc == 0 or (si - band_w <= sc <= si + band_w):
                            candidate = split_row[sc]
                        else:
                            candidate = inf
                        # The subtree pair's spanning cell was written
                        # iff it was in-band in its own region.
                        if abs(rem_f_node - (node_g - lml_g[node_g])) <= band_w:
                            candidate += D[offset + node_g]
                        else:
                            candidate = inf
                        if candidate < best:
                            best = candidate
                        row[j] = best
                if hi + 1 <= cols - 1:
                    row[hi + 1] = inf
                cells += hi - lo + 1
                if final:
                    try:
                        check_row_cutoff(
                            row, cols, rows - 1 - i, cutoff, 1.0, lo, hi,
                            exact_values=False,
                        )
                    except CutoffExceeded as exceeded:
                        exceeded.subproblems = cells
                        raise
    distance = D[(n - 1) * m + m - 1]
    if cutoff is not None and distance >= cutoff:
        # Banded values at or above the cutoff may be inflated; the
        # cutoff itself is the certified lower bound.
        exceeded = CutoffExceeded(cutoff)
        exceeded.subproblems = cells
        raise exceeded
    return distance, cells


def band_width(cutoff: Optional[float]) -> Optional[int]:
    """The unit-cost band half-width of a bounded run (``None`` unbounded).

    ``|i − j| > band_w`` ⇔ the cell's forest sizes differ by at least
    ``cutoff`` operations ⇔ its value is ``≥ cutoff``.
    """
    return None if cutoff is None else max(0, ceil(cutoff) - 1)


class CorpusPack:
    """Struct-of-arrays form of one corpus side for the small-pair kernels.

    All fields are flat NumPy arrays indexed by tree, or by node / keyroot
    through the per-tree offsets; trees that do not qualify for the kernel
    (too large, zero-sized, or uninternable labels) contribute empty slices
    and are flagged off in :attr:`eligible`.  A pack is immutable and can
    serve both sides of a batch; packs meant for one batch must share one
    :class:`~repro.algorithms.workspace.LabelInterner` so their codes agree.

    The layout (``N`` = total nodes, ``K`` = total keyroots of the
    eligible trees)::

        sizes[n_trees]   size_ok[n_trees]   eligible[n_trees]
        node_off[n_trees] ─► lml_flat[N], codes_flat[N]  (tree-local lml)
        kr_off[n_trees], kr_count[n_trees] ─► kroots[K]  (ascending)

    ``sizes``/``size_ok``/``eligible`` feed the per-pair gates of
    :func:`kernel_chunk_entries`; the rest is what the C kernel and
    :func:`run_batch` read.
    """

    __slots__ = (
        "n_trees", "small_pair_cutoff",
        "sizes", "size_ok", "eligible",
        "kr_off", "kr_count", "node_off", "lml_flat", "codes_flat", "kroots",
        "_shm",
    )

    def __init__(self, **arrays) -> None:
        for name in self.__slots__:
            if name != "_shm":
                setattr(self, name, arrays[name])
        #: Keeps an attached shared-memory block alive for the pack's
        #: lifetime (see :mod:`repro.join.shared`); ``None`` for packs that
        #: own their arrays.
        self._shm = arrays.get("_shm")

    #: The array fields (in a fixed order) — the serialization contract of
    #: :mod:`repro.join.shared`.
    ARRAY_FIELDS = (
        "sizes", "size_ok", "eligible",
        "kr_off", "kr_count", "node_off", "lml_flat", "codes_flat", "kroots",
    )


def build_corpus_pack(trees: Sequence, interner, small_pair_cutoff: int) -> CorpusPack:
    """Lower ``trees`` into a :class:`CorpusPack` (one-time, ``O(Σ n)``).

    ``interner`` provides the label codes (and records any new labels);
    ``small_pair_cutoff`` bounds the tree sizes the kernel handles —
    larger trees are packed as ineligible stubs and fall back to the
    per-pair path.
    """
    if _np is None:  # pragma: no cover - callers gate on kernel_available()
        raise RuntimeError("corpus packs require numpy")
    n_trees = len(trees)
    sizes = _np.zeros(n_trees, dtype=_np.int64)
    size_ok = _np.zeros(n_trees, dtype=bool)
    eligible = _np.zeros(n_trees, dtype=bool)
    kr_off = _np.zeros(n_trees, dtype=_np.int64)
    kr_count = _np.zeros(n_trees, dtype=_np.int64)
    node_off = _np.zeros(n_trees, dtype=_np.int64)
    lml_parts: List[List[int]] = []
    code_parts: List[Sequence[int]] = []
    kr_parts: List[List[int]] = []
    total_kr = 0
    total_nodes = 0
    for idx, tree in enumerate(trees):
        n = tree.n
        sizes[idx] = n
        if not 0 < n <= small_pair_cutoff:
            continue
        size_ok[idx] = True
        codes = interner.codes_postorder(tree)
        if codes is None:
            continue
        eligible[idx] = True
        keyroots = tree.keyroots_left()
        kr_off[idx] = total_kr
        kr_count[idx] = len(keyroots)
        node_off[idx] = total_nodes
        lml_parts.append(tree.lml)
        code_parts.append(codes)
        kr_parts.append(keyroots)
        total_kr += len(keyroots)
        total_nodes += n

    def flat(parts, size):
        return _np.fromiter(chain.from_iterable(parts), dtype=_np.int64, count=size)

    return CorpusPack(
        n_trees=n_trees, small_pair_cutoff=int(small_pair_cutoff),
        sizes=sizes, size_ok=size_ok, eligible=eligible,
        kr_off=kr_off, kr_count=kr_count, node_off=node_off,
        lml_flat=flat(lml_parts, total_nodes),
        codes_flat=flat(code_parts, total_nodes),
        kroots=flat(kr_parts, total_kr),
    )


def _lane_arrays(pack: CorpusPack, tree: int, cache: Dict[int, tuple]) -> tuple:
    """``(n, lml, keyroots, codes)`` of one packed tree as Python lists."""
    arrays = cache.get(tree)
    if arrays is None:
        n = int(pack.sizes[tree])
        node = int(pack.node_off[tree])
        kr = int(pack.kr_off[tree])
        arrays = (
            n,
            pack.lml_flat[node : node + n].tolist(),
            pack.kroots[kr : kr + int(pack.kr_count[tree])].tolist(),
            pack.codes_flat[node : node + n].tolist(),
        )
        cache[tree] = arrays
    return arrays


def run_batch(
    pack_a: CorpusPack,
    pack_b: CorpusPack,
    fi,
    gi,
    cutoff: Optional[float] = None,
):
    """Run the Python twin over the pack lanes ``(fi[p], gi[p])``.

    The no-provider counterpart of
    :func:`repro.algorithms.native.native_batch`, with the same contract:
    every lane must be eligible in its pack and — in bounded mode — must
    have passed the size pre-check (``|n − m| < cutoff``); the chunk driver
    (:func:`kernel_chunk_entries`) handles both.  Returns
    ``(values, cells, aborted)`` arrays in lane order: for finished lanes
    ``values`` is the exact distance, for bounded lanes at/above the cutoff
    it is the proving bound (the cutoff itself) with ``aborted=True``.
    """
    fi = _np.ascontiguousarray(fi, dtype=_np.int64)
    gi = _np.ascontiguousarray(gi, dtype=_np.int64)
    lanes = fi.size
    values = _np.empty(lanes, dtype=_np.float64)
    cells = _np.zeros(lanes, dtype=_np.int64)
    aborted = _np.zeros(lanes, dtype=bool)
    if lanes == 0:
        return values, cells, aborted
    band_w = band_width(cutoff)
    max_n = int(pack_a.sizes[fi].max())
    max_m = int(pack_b.sizes[gi].max())
    D = [0.0] * (max_n * max_m)
    fd = [[0.0] * (max_m + 1) for _ in range(max_n + 1)]
    deadline = active_deadline()
    cache_a: Dict[int, tuple] = {}
    cache_b = cache_a if pack_b is pack_a else {}
    for p, (i, j) in enumerate(zip(fi.tolist(), gi.tolist())):
        n, lml_f, keyroots_f, codes_f = _lane_arrays(pack_a, i, cache_a)
        m, lml_g, keyroots_g, codes_g = _lane_arrays(pack_b, j, cache_b)
        try:
            values[p], cells[p] = small_pair_regions(
                n, m, cutoff, band_w, lml_f, keyroots_f, codes_f,
                lml_g, keyroots_g, codes_g, D, fd, deadline,
            )
        except CutoffExceeded as exceeded:
            values[p] = exceeded.lower_bound
            cells[p] = exceeded.subproblems
            aborted[p] = True
    return values, cells, aborted


def kernel_chunk_entries(
    pack_a: CorpusPack,
    pack_b: CorpusPack,
    pairs: Sequence[Tuple[int, int]],
    cutoff: Optional[float],
    fallback: Callable[[int, int], Tuple],
    workspace=None,
) -> List[Tuple]:
    """Batch result tuples for one chunk, kernel-eligible lanes batched.

    Replicates the scalar dispatch of :meth:`TedWorkspace.compute_small`
    pair by pair — in order: size gate (oversized pairs fall back), bounded
    size pre-check (``|n − m| ≥ cutoff`` aborts with the difference as the
    bound *before* label codes are consulted), code gate (uninternable
    labels fall back) — so the emitted tuples are bit-identical to the
    per-pair path, including the ``aborted`` flag and subproblem counts.
    ``fallback`` computes one pair through the ordinary per-pair machinery
    and must return a finished result tuple.  The lanes run through the C
    kernel (:func:`repro.algorithms.native.native_batch`) when a provider
    is available and through :func:`run_batch` otherwise.
    """
    entries: List[Optional[Tuple]] = [None] * len(pairs)
    lane_pos: List[int] = []
    lane_i: List[int] = []
    lane_j: List[int] = []
    sizes_a = pack_a.sizes
    sizes_b = pack_b.sizes
    size_ok_a = pack_a.size_ok
    size_ok_b = pack_b.size_ok
    elig_a = pack_a.eligible
    elig_b = pack_b.eligible
    for pos, (i, j) in enumerate(pairs):
        if not (size_ok_a[i] and size_ok_b[j]):
            entries[pos] = fallback(i, j)
            continue
        if cutoff is not None:
            diff = abs(int(sizes_a[i]) - int(sizes_b[j]))
            if diff >= cutoff:
                entries[pos] = (i, j, float(diff), 0, True)
                continue
        if not (elig_a[i] and elig_b[j]):
            entries[pos] = fallback(i, j)
            continue
        lane_pos.append(pos)
        lane_i.append(i)
        lane_j.append(j)
    if lane_pos:
        # An infinite cutoff bounds nothing and has no band width.
        kernel_cutoff = None if cutoff == inf else cutoff
        deadline = active_deadline()
        if deadline is not None:
            # The C kernel runs a whole chunk to completion, so check once
            # up front: a chunk is bounded (small pairs only) and the
            # granularity matches the supervisor's per-chunk deadline
            # handling.  The twin additionally ticks per row.
            deadline.check()
        out = native.native_batch(pack_a, pack_b, lane_i, lane_j, cutoff=kernel_cutoff)
        if out is None:
            out = run_batch(pack_a, pack_b, lane_i, lane_j, cutoff=kernel_cutoff)
        elif workspace is not None:
            workspace.stats.native_runs += len(lane_pos)
        values, cell_counts, aborts = out
        if workspace is not None:
            workspace.stats.small_pair_runs += len(lane_pos)
            workspace.stats.batch_lanes += len(lane_pos)
        if cutoff is None:
            for p, pos in enumerate(lane_pos):
                entries[pos] = (
                    lane_i[p], lane_j[p], float(values[p]), int(cell_counts[p]),
                )
        else:
            for p, pos in enumerate(lane_pos):
                entries[pos] = (
                    lane_i[p], lane_j[p], float(values[p]), int(cell_counts[p]),
                    bool(aborts[p]),
                )
    return entries
