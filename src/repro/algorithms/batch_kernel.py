"""The unit-cost small-pair program and its batch driver.

Unit-cost pairs whose sweep fits the cell budget skip the strategy executor
and run one flat program: the left-path keyroot sweep of the Zhang–Shasha
recurrence over per-tree ``(lml, keyroots, codes)`` arrays.  The program
runs in one of two places:

* **the C kernel** — :func:`repro.algorithms.native.native_batch`, used
  whenever a compiled provider is present;
* **spf's scalar kernel** — :func:`repro.algorithms.spf._region_py`, the
  keyroot-region kernel of the strategy executor, driven region by region
  by :func:`run_batch` otherwise (no C compiler, or ``RTED_NO_NATIVE=1``).

Every small pair enters through :func:`kernel_chunk_entries`, which takes
the C kernel when it is there and :func:`run_batch` when it is not; a
single pair (:meth:`TedWorkspace.compute_small
<repro.algorithms.workspace.TedWorkspace.compute_small>`) is a one-lane
batch, so every path runs the same gates and the same program.

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
* **Packing** — :func:`build_corpus_pack` lowers trees into
  struct-of-arrays form (:class:`CorpusPack`, one int64 block): per-tree
  sizes and sweep sizes plus the concatenated ``lml`` / label-code /
  keyroot arrays the C kernel reads, the mirrored trees stored as extra
  tree rows.  A corpus caches one pack per epoch (the multiprocessing
  fan-out hands the parent's pack to its workers through the pool
  initializer); a live corpus derives each new epoch's pack from the last
  with :func:`extend_corpus_pack`, which lowers only the trees added since.
  A workspace caches one one-tree pack per tree.
* **Dispatch** — :func:`kernel_chunk_entries` applies the per-pair gates
  (cell gate, bounded size pre-check, code gate) and runs the surviving
  lanes, left and right, in one
  :func:`~repro.algorithms.native.native_batch` call — under a deadline,
  in calls of at most :data:`SMALL_PAIR_CELLS` summed cells — or lane by
  lane through :func:`run_batch` without a provider.

Bit-identity
------------
Both kernels execute the same integer-valued float64 arithmetic — every
add is by 1.0, every min is exact — and the bounded mode runs the same
banded sweep, per-row abort test and band cell accounting, so values,
subproblem counts and abort flags are equal, not just close.  The property
suite asserts exact equality between the two, against the ``zhang-l`` /
``zhang-r`` registry entries (GTED with the left/right-path strategy on
the ``spf`` executor) — values and cell counts — and, since the Python
lanes share ``_region_py`` with ``spf``, against the ``SimpleTED`` oracle.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from math import ceil, inf
from operator import ne
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..runtime import active_deadline
from ..trees.tree import LEFT, RIGHT
from . import native
from .base import CutoffExceeded
from .spf import _region_py


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


class CorpusPack:
    """Struct-of-arrays form of one corpus side for the small-pair kernels.

    Every field is a view into one C-contiguous int64 :attr:`block`,
    indexed by tree row, or by node / keyroot through the per-row offsets.
    Tree ``t`` has two rows: row ``t`` holds its arrays for the left sweep
    and row ``n_trees + t`` the :func:`mirrored_arrays` for the right sweep,
    so a right lane ``(i, j)`` is the left program over rows
    ``(n_trees_a + i, n_trees_b + j)``.  Trees with uninternable labels
    contribute empty slices (no keyroots), which is what :attr:`eligible`
    reads.  A pack is immutable and can serve both sides of a batch; packs
    meant for one batch must share one
    :class:`~repro.algorithms.workspace.LabelInterner` so their codes agree.
    It pickles as its block, without its caches, which is how it reaches
    ``spawn`` and ``forkserver`` workers.

    The block layout (``T`` = ``n_trees``, ``N`` = total nodes, ``K`` =
    total keyroots over both rows of the eligible trees)::

        T, N, K                                         (header)
        sweep_l[T]   sweep_r[T]                         (per tree)
        sizes[2T]   node_off[2T] ─► lml_flat[N], codes_flat[N]  (row-local lml)
        kr_off[2T], kr_count[2T] ─► kroots[K]  (ascending)

    ``sweep_l``/``sweep_r`` (:func:`sweep_sizes`, set for every tree) and
    :attr:`eligible` feed the per-pair gates of :func:`kernel_chunk_entries`;
    the row arrays are what the C kernel and :func:`run_batch` read.  A
    single pair runs on two one-tree packs, as lane ``(0, 0)``.
    """

    __slots__ = (
        "block", "n_trees", "sweep_l", "sweep_r",
        "sizes", "node_off", "kr_off", "kr_count", "lml_flat", "codes_flat", "kroots",
        "_row_offsets", "_gate", "_addresses",
    )
    #: The row arrays in the order the C kernel takes them.
    _ROW_FIELDS = (
        "lml_flat", "codes_flat", "kroots", "node_off", "kr_off", "kr_count", "sizes",
    )

    def __init__(self, block: _np.ndarray, gate=None) -> None:
        t, n, k = block[:3].tolist()
        self.block = block
        self.n_trees = t
        offsets = {}
        offset = 3
        for name, length in (
            ("sweep_l", t), ("sweep_r", t), ("sizes", 2 * t), ("node_off", 2 * t),
            ("kr_off", 2 * t), ("kr_count", 2 * t), ("lml_flat", n), ("codes_flat", n),
            ("kroots", k),
        ):
            setattr(self, name, block[offset : offset + length])
            offsets[name] = offset
            offset += length
        self._row_offsets = tuple(offsets[name] for name in self._ROW_FIELDS)
        self._gate = gate
        self._addresses = None

    def __reduce__(self):
        # The caches stay behind: addresses are only valid in the process
        # that computed them (a forked child inherits them along with the
        # block, copy-on-write).
        return CorpusPack, (self.block,)

    @property
    def eligible(self) -> _np.ndarray:
        """Per-tree flags: does the tree have packed rows?  Every tree has
        at least one keyroot, so only uninternable ones have none."""
        return self.kr_count[: self.n_trees] > 0

    def gate_rows(self) -> Tuple[List[int], List[bool], List[Tuple[int, int]]]:
        """Per-tree ``(sizes, eligible, sweep sizes)`` as Python lists —
        handed over by :func:`build_corpus_pack`, rebuilt on first use
        after unpickling: the per-pair gates read single entries, which is
        far cheaper from a list than from a NumPy array."""
        if self._gate is None:
            self._gate = (
                self.sizes[: self.n_trees].tolist(),
                self.eligible.tolist(),
                list(zip(self.sweep_l.tolist(), self.sweep_r.tolist())),
            )
        return self._gate

    def addresses(self) -> Tuple[int, ...]:
        """The data addresses of the seven row arrays, in the C kernel's
        argument order: offsets from the block's address, looked up on
        first use and cached for the pack's life (the block never moves)."""
        if self._addresses is None:
            block = self.block
            if block.dtype != _np.int64 or not block.flags.c_contiguous:
                raise TypeError("a pack block must be C-contiguous int64")
            base = block.ctypes.data
            self._addresses = tuple(base + 8 * offset for offset in self._row_offsets)
        return self._addresses


def build_corpus_pack(trees: Sequence, interner) -> CorpusPack:
    """Lower ``trees`` into a :class:`CorpusPack` (one-time, ``O(Σ n)``).

    ``interner`` provides the label codes (and records any new labels).
    Every tree with internable labels gets both rows; which pairs the
    kernel runs is decided per pair, by the cell gate.
    """
    n_trees = len(trees)
    sweep_l: List[int] = []
    sweep_r: List[int] = []
    eligible: List[bool] = []
    sizes = [0] * (2 * n_trees)
    node_off = [0] * (2 * n_trees)
    kr_off = [0] * (2 * n_trees)
    kr_count = [0] * (2 * n_trees)
    lml_parts: List[Sequence[int]] = []
    code_parts: List[Sequence[int]] = []
    kr_parts: List[Sequence[int]] = []
    total_kr = 0
    total_nodes = 0
    for idx, tree in enumerate(trees):
        n = tree.n
        sizes[idx] = sizes[n_trees + idx] = n
        left, right = sweep_sizes(tree)
        sweep_l.append(left)
        sweep_r.append(right)
        codes = interner.codes_postorder(tree)
        eligible.append(codes is not None)
        if codes is None:
            continue
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
    block = _np.fromiter(
        chain(
            (n_trees, total_nodes, total_kr), sweep_l, sweep_r,
            sizes, node_off, kr_off, kr_count,
            chain.from_iterable(lml_parts),
            chain.from_iterable(code_parts),
            chain.from_iterable(kr_parts),
        ),
        dtype=_np.int64,
        count=3 + 10 * n_trees + 2 * total_nodes + total_kr,
    )
    return CorpusPack(block, gate=(sizes[:n_trees], eligible, list(zip(sweep_l, sweep_r))))


def _spans(starts: _np.ndarray, lengths: _np.ndarray) -> _np.ndarray:
    """The indices of the spans ``[starts[i], starts[i] + lengths[i])``,
    concatenated in order."""
    first = _np.cumsum(lengths) - lengths
    return _np.arange(int(lengths.sum())) + _np.repeat(starts - first, lengths)


def _tree_rows(pack: CorpusPack, trees: _np.ndarray) -> tuple:
    """The per-tree arrays of ``pack``'s trees ``trees``, in that order:
    ``(sweep_l, sweep_r, sizes, kr_left, kr_right, lml, codes, kroots)``.

    An eligible tree's two rows are adjacent in the block — the left row's
    ``2n`` nodes are followed by the mirrored row's, its keyroots likewise
    — so each tree is one node span and one keyroot span; ineligible trees
    have empty spans.  The row arrays are row-local, so spans move between
    blocks unchanged.
    """
    t = pack.n_trees
    sizes = pack.sizes[trees]
    kr_left = pack.kr_count[trees]
    kr_right = pack.kr_count[t + trees]
    nodes = _spans(pack.node_off[trees], _np.where(kr_left > 0, 2 * sizes, 0))
    return (
        pack.sweep_l[trees], pack.sweep_r[trees], sizes, kr_left, kr_right,
        pack.lml_flat[nodes], pack.codes_flat[nodes],
        pack.kroots[_spans(pack.kr_off[trees], kr_left + kr_right)],
    )


def extend_corpus_pack(
    pack: CorpusPack, keep: Sequence[int], new_trees: Sequence, interner
) -> CorpusPack:
    """``pack``'s trees ``keep`` (ascending tree indices) followed by
    ``new_trees``, as one new pack.

    The kept trees' spans are gathered out of the old block and only
    ``new_trees`` are lowered (:func:`build_corpus_pack`), so a live
    corpus's next pack costs ``O(Σ n)`` array copies plus the lowering of
    the trees added since.  ``interner`` must be the one ``pack`` was coded
    by (its codes only ever grow, so the kept codes stay valid); the result
    is then byte-identical to :func:`build_corpus_pack` over the same trees.
    """
    parts = [_tree_rows(pack, _np.asarray(keep, dtype=_np.int64))]
    if new_trees:
        added = build_corpus_pack(new_trees, interner)
        parts.append(_tree_rows(added, _np.arange(added.n_trees)))
    sweep_l, sweep_r, sizes, kr_left, kr_right, lml, codes, kroots = (
        _np.concatenate(columns) for columns in zip(*parts)
    )
    eligible = kr_left > 0
    node_len = _np.where(eligible, 2 * sizes, 0)
    node_start = _np.cumsum(node_len) - node_len
    kr_len = kr_left + kr_right
    kr_start = _np.cumsum(kr_len) - kr_len
    block = _np.concatenate((
        _np.array([sizes.size, lml.size, kroots.size], dtype=_np.int64),
        sweep_l, sweep_r, sizes, sizes,
        _np.where(eligible, node_start, 0), _np.where(eligible, node_start + sizes, 0),
        _np.where(eligible, kr_start, 0), _np.where(eligible, kr_start + kr_left, 0),
        kr_left, kr_right, lml, codes, kroots,
    ))
    return CorpusPack(block)


def _lane_arrays(pack: CorpusPack, row: int, cache: Dict[int, tuple]) -> tuple:
    """``(n, lml, keyroots, codes)`` of one packed tree row as Python lists."""
    arrays = cache.get(row)
    if arrays is None:
        n = int(pack.sizes[row])
        node = int(pack.node_off[row])
        kr = int(pack.kr_off[row])
        arrays = (
            n,
            pack.lml_flat[node : node + n].tolist(),
            pack.kroots[kr : kr + int(pack.kr_count[row])].tolist(),
            pack.codes_flat[node : node + n].tolist(),
        )
        cache[row] = arrays
    return arrays


def _run_lane(
    lane_f: tuple, lane_g: tuple, cutoff: Optional[float], deadline
) -> Tuple[float, int]:
    """``(distance, cells)`` of one lane: every keyroot-pair region, in
    ascending order, through spf's scalar kernel :func:`_region_py` with
    unit costs and :func:`operator.ne` over the label codes.

    ``D`` starts out ``+inf`` in a bounded run, which is how ``_region_py``
    reads the subtree distances its band never wrote.  Only the whole-tree
    region (the last one) runs the per-row abort; its rows are prefix
    distances of the two whole trees.  Bounded lanes raise
    :class:`~repro.algorithms.base.CutoffExceeded` with the cutoff as the
    proving bound and every evaluated cell attached.
    """
    n, lml_f, keyroots_f, codes_f = lane_f
    m, lml_g, keyroots_g, codes_g = lane_g
    D = _np.empty((n, m)) if cutoff is None else _np.full((n, m), inf)

    def read_row(node: int, col_posts, lo: int, hi: int) -> List[float]:
        return D[node, col_posts[lo - 1] : col_posts[hi - 1] + 1].tolist()

    region = partial(
        _region_py, lml_f, lml_g, codes_f, codes_g, [1.0] * n, [1.0] * m, ne,
        range(n), range(m), read_row, D, deadline, band_width(cutoff),
    )
    cut = None if cutoff is None else (cutoff, 1.0, 0.0)
    cells = 0
    try:
        for kf in keyroots_f:
            for kg in keyroots_g:
                final = kf == n - 1 and kg == m - 1
                cells += region(kf, kg, cut if final else None)
    except CutoffExceeded as exceeded:
        exceeded.subproblems += cells
        raise
    distance = D.item(n - 1, m - 1)
    if cutoff is not None and distance >= cutoff:
        # Banded values at or above the cutoff may be inflated; the cutoff
        # itself is the certified lower bound.
        exceeded = CutoffExceeded(cutoff)
        exceeded.subproblems = cells
        raise exceeded
    return distance, cells


def run_batch(
    pack_a: CorpusPack,
    pack_b: CorpusPack,
    fi,
    gi,
    cutoff: Optional[float] = None,
):
    """Run the pack lanes ``(fi[p], gi[p])`` in Python, lane by lane.

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
    deadline = active_deadline()
    cache_a: Dict[int, tuple] = {}
    cache_b = cache_a if pack_b is pack_a else {}
    for p, (i, j) in enumerate(zip(fi.tolist(), gi.tolist())):
        lane_f = _lane_arrays(pack_a, i, cache_a)
        lane_g = _lane_arrays(pack_b, j, cache_b)
        try:
            values[p], cells[p] = _run_lane(lane_f, lane_g, cutoff, deadline)
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

    The one dispatcher of the small-pair program: a single pair
    (:meth:`TedWorkspace.compute_small
    <repro.algorithms.workspace.TedWorkspace.compute_small>`) is a one-lane
    chunk over two one-tree packs.  Each pair meets, in order: the cell
    gate (:func:`choose_sweep` over :data:`SMALL_PAIR_CELLS`; pairs over
    budget fall back), the bounded size pre-check (``|n − m| ≥ cutoff``
    aborts with the difference as the bound *before* label codes are
    consulted), and the code gate (uninternable labels fall back); the
    surviving lanes run in the direction the cell gate chose.  Entries are
    ``(i, j, value, cells)`` unbounded and ``(i, j, value, cells, aborted)``
    with a cutoff, an aborted value being the proving bound.  ``fallback``
    computes one refused pair through the ordinary per-pair machinery and
    returns its entry.  Left and right lanes run together, through the C
    kernel (:func:`repro.algorithms.native.native_batch`) when a provider
    is available and through :func:`run_batch` otherwise; ``workspace``,
    when given, counts the lanes in its stats.

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
        workspace.stats.right_sweeps += right_lanes
    if cutoff is None:
        for p, pos in enumerate(lane_pos):
            entries[pos] = (lane_i[p], lane_j[p], values[p], cell_counts[p])
    else:
        for p, pos in enumerate(lane_pos):
            entries[pos] = (lane_i[p], lane_j[p], values[p], cell_counts[p], aborts[p])
    return entries
