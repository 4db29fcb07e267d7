"""The unit-cost small-pair program and its batch driver.

Unit-cost pairs whose sweep fits the cell budget skip the strategy executor
and run one flat program: the left-path keyroot sweep of the Zhang–Shasha
recurrence over per-tree ``(lml, keyroots, codes)`` arrays.  The program
has exactly two implementations:

* **the C kernel** — :func:`repro.algorithms.native.native_batch`, used
  whenever a compiled provider is present;
* **the Python twin** — :func:`small_pair_regions` in this module, used
  otherwise (no C compiler, or ``RTED_NO_NATIVE=1``).

Single pairs (:meth:`TedWorkspace.compute_small
<repro.algorithms.workspace.TedWorkspace.compute_small>`) and batch lanes
(:func:`kernel_chunk_entries`) both take the C kernel when it is there and
the twin when it is not, so every path runs the same program.

* **The cell gate** — an unbounded left sweep evaluates exactly
  ``S_L(F) · S_L(G)`` cells, with ``S_L(T)`` the summed subtree sizes of
  ``T``'s left keyroots (:func:`sweep_sizes`); the right sweep evaluates
  ``S_R(F) · S_R(G)``.  :func:`choose_sweep` admits a pair iff the cheaper
  direction fits :data:`SMALL_PAIR_CELLS` and picks that direction, the
  left one on ties.
* **The right sweep** is the same program over the mirrored arrays of
  :func:`mirrored_arrays` — reverse-postorder ``lml`` / keyroots / codes,
  built from :meth:`Tree.rpost_of_post <repro.trees.Tree.rpost_of_post>`
  without a mirrored tree.
* **Packing** — :func:`build_corpus_pack` lowers a corpus into
  struct-of-arrays form (:class:`CorpusPack`): per-tree sizes, sweep sizes
  and eligibility plus the concatenated ``lml`` / label-code / keyroot
  arrays the C kernel reads, the mirrored trees stored as extra tree rows.
  A pack is built once per corpus epoch and can be exported zero-copy to
  worker processes (:mod:`repro.join.shared`).
* **Batches** — :func:`kernel_chunk_entries` applies the per-pair gates of
  ``compute_small`` and runs the surviving lanes, left and right, in one
  :func:`~repro.algorithms.native.native_batch` call — under a deadline,
  in calls of at most :data:`SMALL_PAIR_CELLS` summed cells — or lane by
  lane through :func:`run_batch` (the twin over the pack arrays) without
  a provider.

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
from ..trees.tree import LEFT, RIGHT
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


#: Largest cell count the small-pair program may evaluate for one pair:
#: ``1056²``, the left-sweep count of two 64-node right combs whose spine
#: ends in a one-leaf node (``S_L = 64 + 62 + … + 2``) — the costliest pair
#: the former 64-node size gate admitted.  The C kernel has no deadline
#: hook, so this bounds its longest uncancellable call (batches run in calls
#: of at most this many summed cells under a deadline); and since
#: ``S(T) ≥ |T|`` it also bounds ``n · m``, hence the program's buffers.
SMALL_PAIR_CELLS = 1056 * 1056


def sweep_sizes(tree) -> Tuple[int, int]:
    """``(S_L, S_R)``: the summed subtree sizes of ``tree``'s left and
    right keyroots.  A left sweep over ``(F, G)`` evaluates exactly
    ``S_L(F) · S_L(G)`` cells unbounded, a right sweep ``S_R(F) · S_R(G)``.
    """
    sizes = tree.sizes
    return (
        sum(sizes[k] for k in tree.keyroots_left()),
        sum(sizes[k] for k in tree.keyroots_right()),
    )


def choose_sweep(
    sweep_f: Tuple[int, int], sweep_g: Tuple[int, int], budget: int
) -> Optional[str]:
    """The cell gate: ``LEFT`` or ``RIGHT``, whichever evaluates fewer
    cells (``LEFT`` on ties), or ``None`` when even that exceeds
    ``budget``.  ``sweep_*`` are :func:`sweep_sizes` pairs."""
    left = sweep_f[0] * sweep_g[0]
    right = sweep_f[1] * sweep_g[1]
    if left <= right:
        return LEFT if left <= budget else None
    return RIGHT if right <= budget else None


def mirrored_arrays(tree, codes: Sequence[int]) -> Tuple[List[int], List[int], List[int]]:
    """``(lml, keyroots, codes)`` of the mirrored tree, for the right sweep.

    Indexed by reverse-postorder id — the postorder of the mirrored tree —
    so the left-path program over these arrays is the right-path program
    over ``tree``: node ``v`` at ``r = rpost_of_post[v]`` spans
    ``[r − sizes[v] + 1, r]`` and keeps its label code.
    """
    rpost = tree.rpost_of_post()
    sizes = tree.sizes
    n = len(rpost)
    lml = [0] * n
    mirrored_codes = [0] * n
    for v, r in enumerate(rpost):
        lml[r] = r - sizes[v] + 1
        mirrored_codes[r] = codes[v]
    keyroots = sorted(rpost[k] for k in tree.keyroots_right())
    return lml, keyroots, mirrored_codes


def twin_buffers(n: int, m: int) -> Tuple[List[float], List[List[float]]]:
    """Fresh ``(D, fd)`` buffers of the twin for an ``n × m`` pair: ``n · m``
    subtree distances and ``n + 1`` forest-distance rows of width ``m + 1``.
    Allocating them costs far less than an unbounded sweep (``n · m`` is
    at most its cell count), and nothing outlives the call."""
    return [0.0] * (n * m), [[0.0] * (m + 1) for _ in range(n + 1)]


class CorpusPack:
    """Struct-of-arrays form of one corpus side for the small-pair kernels.

    All fields are flat NumPy arrays indexed by tree row, or by node /
    keyroot through the per-row offsets.  Tree ``t`` has two rows: row
    ``t`` holds its arrays for the left sweep and row ``n_trees + t`` the
    :func:`mirrored_arrays` for the right sweep, so a right lane ``(i, j)``
    is the left program over rows ``(n_trees_a + i, n_trees_b + j)``.
    Trees with uninternable labels contribute empty slices and are flagged
    off in :attr:`eligible`.  A
    pack is immutable and can serve both sides of a batch; packs meant for
    one batch must share one
    :class:`~repro.algorithms.workspace.LabelInterner` so their codes agree.

    The layout (``T`` = ``n_trees``, ``N`` = total nodes, ``K`` = total
    keyroots over both rows of the eligible trees)::

        eligible[T]   sweep_l[T]   sweep_r[T]          (per tree)
        sizes[2T]   node_off[2T] ─► lml_flat[N], codes_flat[N]  (row-local lml)
        kr_off[2T], kr_count[2T] ─► kroots[K]  (ascending)

    ``sweep_l``/``sweep_r`` (:func:`sweep_sizes`, set for every tree) and
    ``eligible`` feed the per-pair gates of :func:`kernel_chunk_entries`;
    the row arrays are what the C kernel and :func:`run_batch` read.
    """

    __slots__ = (
        "n_trees",
        "eligible", "sweep_l", "sweep_r",
        "sizes", "kr_off", "kr_count", "node_off", "lml_flat", "codes_flat", "kroots",
        "_shm", "_gate",
    )

    def __init__(self, **arrays) -> None:
        for name in self.__slots__:
            if name not in ("_shm", "_gate"):
                setattr(self, name, arrays[name])
        #: Keeps an attached shared-memory block alive for the pack's
        #: lifetime (see :mod:`repro.join.shared`); ``None`` for packs that
        #: own their arrays.
        self._shm = arrays.get("_shm")
        self._gate = None

    def gate_rows(self) -> Tuple[List[int], List[bool], List[Tuple[int, int]]]:
        """Per-tree ``(sizes, eligible, sweep sizes)`` as Python lists,
        built on first use: the per-pair gates read single entries, which
        is far cheaper from a list than from a NumPy array."""
        if self._gate is None:
            self._gate = (
                self.sizes[: self.n_trees].tolist(),
                self.eligible.tolist(),
                list(zip(self.sweep_l.tolist(), self.sweep_r.tolist())),
            )
        return self._gate

    #: The array fields (in a fixed order) — the serialization contract of
    #: :mod:`repro.join.shared`.
    ARRAY_FIELDS = (
        "eligible", "sweep_l", "sweep_r",
        "sizes", "kr_off", "kr_count", "node_off", "lml_flat", "codes_flat", "kroots",
    )


def build_corpus_pack(trees: Sequence, interner) -> CorpusPack:
    """Lower ``trees`` into a :class:`CorpusPack` (one-time, ``O(Σ n)``).

    ``interner`` provides the label codes (and records any new labels).
    Every tree with internable labels gets both rows; which pairs the
    kernel runs is decided per pair, by the cell gate.
    """
    if _np is None:  # pragma: no cover - callers gate on kernel_available()
        raise RuntimeError("corpus packs require numpy")
    n_trees = len(trees)
    eligible = _np.zeros(n_trees, dtype=bool)
    sweep_l = _np.zeros(n_trees, dtype=_np.int64)
    sweep_r = _np.zeros(n_trees, dtype=_np.int64)
    sizes = _np.zeros(2 * n_trees, dtype=_np.int64)
    kr_off = _np.zeros(2 * n_trees, dtype=_np.int64)
    kr_count = _np.zeros(2 * n_trees, dtype=_np.int64)
    node_off = _np.zeros(2 * n_trees, dtype=_np.int64)
    lml_parts: List[Sequence[int]] = []
    code_parts: List[Sequence[int]] = []
    kr_parts: List[Sequence[int]] = []
    total_kr = 0
    total_nodes = 0
    for idx, tree in enumerate(trees):
        n = tree.n
        sizes[idx] = sizes[n_trees + idx] = n
        sweep_l[idx], sweep_r[idx] = sweep_sizes(tree)
        codes = interner.codes_postorder(tree)
        if codes is None:
            continue
        eligible[idx] = True
        rows = (
            (idx, (tree.lml, tree.keyroots_left(), codes)),
            (n_trees + idx, mirrored_arrays(tree, codes)),
        )
        for row, (lml, keyroots, row_codes) in rows:
            kr_off[row] = total_kr
            kr_count[row] = len(keyroots)
            node_off[row] = total_nodes
            lml_parts.append(lml)
            code_parts.append(row_codes)
            kr_parts.append(keyroots)
            total_kr += len(keyroots)
            total_nodes += n

    def flat(parts, size):
        return _np.fromiter(chain.from_iterable(parts), dtype=_np.int64, count=size)

    return CorpusPack(
        n_trees=n_trees,
        eligible=eligible, sweep_l=sweep_l, sweep_r=sweep_r,
        sizes=sizes, kr_off=kr_off, kr_count=kr_count, node_off=node_off,
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
    ``fi`` / ``gi`` are tree rows (a mirrored row runs the right sweep),
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
    deadline = active_deadline()
    cache_a: Dict[int, tuple] = {}
    cache_b = cache_a if pack_b is pack_a else {}
    for p, (i, j) in enumerate(zip(fi.tolist(), gi.tolist())):
        n, lml_f, keyroots_f, codes_f = _lane_arrays(pack_a, i, cache_a)
        m, lml_g, keyroots_g, codes_g = _lane_arrays(pack_b, j, cache_b)
        try:
            values[p], cells[p] = small_pair_regions(
                n, m, cutoff, band_w, lml_f, keyroots_f, codes_f,
                lml_g, keyroots_g, codes_g, *twin_buffers(n, m), deadline,
            )
        except CutoffExceeded as exceeded:
            values[p] = exceeded.lower_bound
            cells[p] = exceeded.subproblems
            aborted[p] = True
    return values, cells, aborted


def _call_groups(lane_cells: Sequence[int]):
    """Split lanes into consecutive ``[start, stop)`` groups whose summed
    cell counts stay within :data:`SMALL_PAIR_CELLS` (each lane alone
    already does, by the cell gate)."""
    start = total = 0
    for p, cells in enumerate(lane_cells):
        if p > start and total + cells > SMALL_PAIR_CELLS:
            yield start, p
            start, total = p, 0
        total += cells
    yield start, len(lane_cells)


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
    pair by pair — in order: cell gate (:func:`choose_sweep` over
    :data:`SMALL_PAIR_CELLS`; pairs over budget fall back), bounded size
    pre-check (``|n − m| ≥ cutoff`` aborts with the difference as the bound
    *before* label codes are consulted), code gate (uninternable labels
    fall back) — and runs each lane in the direction the gate chose, so the
    emitted tuples are bit-identical to the per-pair path, including the
    ``aborted`` flag and subproblem counts.  ``fallback`` computes one pair
    through the ordinary per-pair machinery and must return a finished
    result tuple.  Left and right lanes run together, through the C kernel
    (:func:`repro.algorithms.native.native_batch`) when a provider is
    available and through :func:`run_batch` otherwise.

    The C kernel cannot be interrupted, so under an ambient deadline the
    lanes run in calls of at most :data:`SMALL_PAIR_CELLS` summed cells —
    no call outlasts the costliest single pair — with a deadline check
    before each.
    """
    entries: List[Optional[Tuple]] = [None] * len(pairs)
    lane_pos: List[int] = []
    lane_i: List[int] = []
    lane_j: List[int] = []
    # Tree rows the kernel reads: i / j for a left lane, the mirrored rows
    # n_trees + i / n_trees + j for a right lane.
    row_i: List[int] = []
    row_j: List[int] = []
    # Unbounded cell count of each lane's sweep (bounded runs evaluate less).
    lane_cells: List[int] = []
    right_lanes = 0
    sizes_a, elig_a, sweeps_a = pack_a.gate_rows()
    sizes_b, elig_b, sweeps_b = pack_b.gate_rows()
    mirror_a = pack_a.n_trees
    mirror_b = pack_b.n_trees
    for pos, (i, j) in enumerate(pairs):
        sweep_f, sweep_g = sweeps_a[i], sweeps_b[j]
        sweep = choose_sweep(sweep_f, sweep_g, SMALL_PAIR_CELLS)
        if sweep is None:
            entries[pos] = fallback(i, j)
            continue
        if cutoff is not None:
            diff = abs(sizes_a[i] - sizes_b[j])
            if diff >= cutoff:
                entries[pos] = (i, j, float(diff), 0, True)
                continue
        if not (elig_a[i] and elig_b[j]):
            entries[pos] = fallback(i, j)
            continue
        lane_pos.append(pos)
        lane_i.append(i)
        lane_j.append(j)
        if sweep == LEFT:
            row_i.append(i)
            row_j.append(j)
            lane_cells.append(sweep_f[0] * sweep_g[0])
        else:
            row_i.append(mirror_a + i)
            row_j.append(mirror_b + j)
            lane_cells.append(sweep_f[1] * sweep_g[1])
            right_lanes += 1
    if not lane_pos:
        return entries
    # An infinite cutoff bounds nothing and has no band width.
    kernel_cutoff = None if cutoff == inf else cutoff
    deadline = active_deadline()
    groups = [(0, len(lane_pos))] if deadline is None else _call_groups(lane_cells)
    values: List[float] = []
    cell_counts: List[int] = []
    aborts: List[bool] = []
    native_lanes = 0
    for start, stop in groups:
        if deadline is not None:
            deadline.check()
        fi, gi = row_i[start:stop], row_j[start:stop]
        out = native.native_batch(pack_a, pack_b, fi, gi, cutoff=kernel_cutoff)
        if out is None:
            out = run_batch(pack_a, pack_b, fi, gi, cutoff=kernel_cutoff)
        else:
            native_lanes += stop - start
        values.extend(out[0].tolist())
        cell_counts.extend(out[1].tolist())
        aborts.extend(out[2].tolist())
    if workspace is not None:
        workspace.stats.native_runs += native_lanes
        workspace.stats.small_pair_runs += len(lane_pos)
        workspace.stats.batch_lanes += len(lane_pos)
        workspace.stats.right_sweeps += right_lanes
    if cutoff is None:
        for p, pos in enumerate(lane_pos):
            entries[pos] = (lane_i[p], lane_j[p], values[p], cell_counts[p])
    else:
        for p, pos in enumerate(lane_pos):
            entries[pos] = (lane_i[p], lane_j[p], values[p], cell_counts[p], aborts[p])
    return entries
