"""NumPy kernel for the iterative single-path functions.

Same semantics as the pure-Python kernel in :mod:`repro.algorithms.spf`
(the test-suite cross-checks both), but each forest-distance table row is
computed with a handful of ``O(cols)`` vector operations:

* the delete / rename / split candidates of a row depend only on the previous
  row and on already-final tree distances, so they vectorize directly;
* the insert candidate couples ``fd[i][j]`` to ``fd[i][j-1]``; writing
  ``I[j]`` for the cumulative insert costs, the recurrence
  ``fd[i][j] = min(t[j], fd[i][j-1] + ins[j])`` unrolls to
  ``fd[i][j] = I[j] + min_{k<=j}(t[k] - I[k])``, a prefix minimum computed
  with ``np.minimum.accumulate``.

The kernel operates on ``base``, a dense tree-distance matrix whose row axis
is the decomposed tree — the caller passes ``D`` itself or its transposed
*view* ``D.T`` depending on the decomposition side, so no data is copied.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime import env_int
from .base import CutoffExceeded


def allocate_matrix(n: int, m: int) -> np.ndarray:
    """Dense ``n × m`` tree-distance matrix, NaN-initialized.

    NaN (rather than 0) makes a violated fill-order contract visible: any read
    of a never-written entry propagates into the final distance.
    """
    return np.full((n, m), np.nan, dtype=np.float64)


def as_array(values: Sequence[float]) -> np.ndarray:
    """Cost list → float64 array."""
    return np.asarray(values, dtype=np.float64)


def rename_matrix(
    labels_rows: Sequence[object],
    labels_cols: Sequence[object],
    rename: Callable[[object, object], float],
) -> np.ndarray:
    """Dense rename-cost matrix between two label sequences.

    Labels are interned into integer codes so the cost model is only called
    once per *distinct* label pair (label alphabets are tiny compared to tree
    sizes).  When that does not hold — mostly-distinct labels would make the
    uniques×uniques table larger than the rows×cols result — and for
    unhashable labels, the direct quadratic evaluation is used instead.
    """
    codes: Dict[object, int] = {}
    row_codes = col_codes = None
    try:
        row_codes = np.fromiter(
            (codes.setdefault(label, len(codes)) for label in labels_rows),
            dtype=np.intp,
            count=len(labels_rows),
        )
        col_codes = np.fromiter(
            (codes.setdefault(label, len(codes)) for label in labels_cols),
            dtype=np.intp,
            count=len(labels_cols),
        )
    except TypeError:
        pass
    if col_codes is None or len(codes) ** 2 > len(labels_rows) * len(labels_cols):
        return np.array(
            [[rename(a, b) for b in labels_cols] for a in labels_rows], dtype=np.float64
        )
    uniques = list(codes)
    table = np.empty((len(uniques), len(uniques)), dtype=np.float64)
    for i, label_a in enumerate(uniques):
        for j, label_b in enumerate(uniques):
            table[i, j] = rename(label_a, label_b)
    return table[row_codes[:, None], col_codes[None, :]]


def _frame_arrays(frame) -> Dict[str, np.ndarray]:
    """Integer arrays of a :class:`~repro.algorithms.spf._Frame`, cached on it."""
    arrays = frame.np_arrays
    if arrays is None:
        arrays = {
            "lml": np.asarray(frame.lml, dtype=np.intp),
            "to_post": np.asarray(frame.to_post, dtype=np.intp),
        }
        frame.np_arrays = arrays
    return arrays


#: Minimum region width (columns) for the vectorized kernel.  Rows are swept
#: with ``O(cols)`` array operations whose fixed overhead (~a dozen ufunc
#: dispatches) only pays off for wide tables; narrow regions — the vast
#: majority on branchy trees — run faster through the scalar fallback kernel.
#: The default is set from ``benchmarks/bench_vector_cols.py`` (see the
#: rationale in ``DESIGN.md``); override with ``RTED_MIN_VECTOR_COLS`` for
#: hardware where the crossover sits elsewhere.
MIN_VECTOR_COLS = env_int("RTED_MIN_VECTOR_COLS", 16, minimum=2)


def run_regions(
    dec,
    oth,
    dec_keyroots: List[int],
    oth_keyroots: List[int],
    del_costs: np.ndarray,
    ins_costs: np.ndarray,
    rename: Optional[np.ndarray],
    base: np.ndarray,
    fallback: Callable[[int, int], int],
    unit_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    abort: Optional[Tuple[int, int, float, float, float]] = None,
    deadline=None,
) -> int:
    """Fill every keyroot-pair table of the given keyroot lists.

    Wide tables are swept with the vectorized row kernel; tables narrower
    than :data:`MIN_VECTOR_COLS` are delegated to ``fallback`` (the bound
    pure-Python kernel).  With ``unit_codes`` — frame-order integer label
    codes of the decomposed / other tree, unit-cost workspaces only — the
    row sweep runs the unit specialization: ``rename`` may be ``None`` (no
    rename matrix is ever built) and delete/insert costs are constant-folded
    to 1.  ``abort`` — a ``(kf, kg, cutoff, band, slack)`` spec naming the final
    region of a bounded computation — arms the per-row early-abort check in
    that region (the fallback kernel carries its own copy of the spec).
    Returns the number of forest-distance cells evaluated.
    """
    oth_arrays = _frame_arrays(oth)
    dec_arrays = _frame_arrays(dec)
    oth_lml = oth.lml
    cells = 0
    for kg in oth_keyroots:
        vectorize = kg - oth_lml[kg] + 1 >= MIN_VECTOR_COLS
        for kf in dec_keyroots:
            if deadline is not None:
                # Region-granular check; the vectorized sweep below
                # additionally ticks per row through the ``deadline``
                # argument of :func:`_region`.
                deadline.tick()
            if vectorize:
                cut = abort[2:] if abort is not None and (kf, kg) == abort[:2] else None
                cells += _region(
                    dec, oth, kf, kg, del_costs, ins_costs, rename, base,
                    dec_arrays["to_post"], oth_arrays["to_post"], oth_arrays["lml"],
                    unit_codes, cut, deadline,
                )
            else:
                cells += fallback(kf, kg)
    return cells


#: Cached ``[0.0, 1.0, 2.0, ...]`` prefix for the unit-cost specialization:
#: with all insert costs 1 the cumulative-cost vector is just the index.
_UNIT_PREFIX = np.arange(64, dtype=np.float64)


def _unit_prefix(cols: int) -> np.ndarray:
    global _UNIT_PREFIX
    if cols > _UNIT_PREFIX.size:
        _UNIT_PREFIX = np.arange(2 * cols, dtype=np.float64)
    return _UNIT_PREFIX[:cols]


def _region(
    dec,
    oth,
    kf: int,
    kg: int,
    del_costs: np.ndarray,
    ins_costs: np.ndarray,
    rename: Optional[np.ndarray],
    base: np.ndarray,
    to_post_f: np.ndarray,
    to_post_g: np.ndarray,
    lml_g_array: np.ndarray,
    unit_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    cut: Optional[Tuple[float, float, float]] = None,
    deadline=None,
) -> int:
    """One keyroot-pair forest-distance table, swept row-by-row.

    In unit mode (``unit_codes`` given) no rename matrix exists: the rename
    candidate of a spanning row is ``previous + (codes_g != code_f)`` — a
    code-array equality compare — and the delete/insert costs are the
    constant 1, so the cumulative-cost vector is a cached ``arange``.  All
    unit-mode arithmetic is integer-valued float64 and therefore exact,
    keeping the result bit-identical to the general path.

    ``cut`` — ``(cutoff, band, slack)``, final region of a bounded computation only
    — arms the per-row early abort: after each row the minimum of
    ``row + band · |remaining_F − remaining_G|`` lower-bounds the pair's
    distance (see :func:`repro.algorithms.base.check_row_cutoff`), so
    reaching the cutoff proves ``d ≥ cutoff`` and raises
    :class:`~repro.algorithms.base.CutoffExceeded`.  The check reads the
    finished row and never alters the arithmetic, so sub-cutoff results stay
    bit-identical.
    """
    lml_f = dec.lml
    lf = lml_f[kf]
    lg = oth.lml[kg]
    rows = kf - lf + 2
    cols = kg - lg + 2

    if unit_codes is not None:
        codes_f_region = unit_codes[0]
        codes_g_region = unit_codes[1][lg : kg + 1]
        cumulative = _unit_prefix(cols)
    else:
        inserts = ins_costs[lg : kg + 1]
        cumulative = np.empty(cols, dtype=np.float64)
        cumulative[0] = 0.0
        np.cumsum(inserts, out=cumulative[1:])

    lml_g_region = lml_g_array[lg : kg + 1]
    spans_g = lml_g_region == lg
    split_cols = lml_g_region - lg

    row_posts = to_post_f[lf : kf + 1]
    col_posts = to_post_g[lg : kg + 1]
    # Snapshot of the subtree distances this region may read.  Cells that are
    # *written* by this region (spine × spanning) are never read by it, so the
    # snapshot cannot go stale; their NaNs are masked out below.
    tree_dists = base[row_posts[:, None], col_posts[None, :]]
    rename_block = None if unit_codes is not None else rename[lf : kf + 1, lg : kg + 1]
    write_cols = col_posts[spans_g]

    fd = np.empty((rows, cols), dtype=np.float64)
    fd[0] = cumulative
    deletes = None if unit_codes is not None else del_costs[lf : kf + 1]
    special = np.empty(cols - 1, dtype=np.float64)
    spanning = np.empty(cols - 1, dtype=np.float64)
    if cut is not None:
        cut_cutoff, cut_band, cut_slack = cut
        # remaining-G sizes per column: cols-1-j, constant over rows.
        rem_g = np.arange(cols - 1, -1, -1, dtype=np.float64)

    for i in range(1, rows):
        if deadline is not None:
            deadline.tick()
        node_f = lf + i - 1
        previous = fd[i - 1]
        delete_cost = 1.0 if deletes is None else deletes[i - 1]
        spans_f = lml_f[node_f] == lf

        # Candidate 3 of the recurrence: forest split (read-back of final
        # subtree distances) or, on spanning×spanning cells, rename.
        split_row = fd[lml_f[node_f] - lf]
        np.take(split_row, split_cols, out=special)
        special += tree_dists[i - 1]
        if spans_f:
            if unit_codes is not None:
                np.add(previous[:-1], codes_g_region != codes_f_region[node_f], out=spanning)
            else:
                np.add(previous[:-1], rename_block[i - 1], out=spanning)
            np.copyto(special, spanning, where=spans_g)

        # t[j] = min(delete, special); then the insert candidate couples the
        # row left-to-right, resolved by the prefix minimum of t - I.
        row = fd[i]
        np.add(previous[1:], delete_cost, out=row[1:])
        np.minimum(row[1:], special, out=row[1:])
        row[0] = previous[0] + delete_cost
        row -= cumulative
        np.minimum.accumulate(row, out=row)
        row += cumulative

        if spans_f and write_cols.size:
            base[row_posts[i - 1], write_cols] = row[1:][spans_g]

        if cut is not None:
            # O(1) diagonal probe first (see base.check_row_cutoff): on
            # similar pairs the vector scan never runs.
            rem_f = rows - 1 - i
            diag = cols - 1 - rem_f
            if not (0 <= diag < cols and row[diag] < cut_cutoff):
                bound = float((row + cut_band * np.abs(rem_g - rem_f)).min())
                # Round-off slack for non-dyadic cost sums (base.CUTOFF_SLACK).
                bound *= 1.0 - cut_slack
                if bound >= cut_cutoff:
                    raise CutoffExceeded(bound)

    return (rows - 1) * (cols - 1)


# --------------------------------------------------------------------------- #
# Inner (heavy / arbitrary) path kernel
# --------------------------------------------------------------------------- #

#: Minimum grid width (``m + 1``) for the vectorized inner-path kernel; below
#: this the pure-Python kernel wins on ufunc-dispatch overhead.
MIN_INNER_VECTOR_WIDTH = 12


def _inner_frame_arrays(frame) -> Dict[str, np.ndarray]:
    """Array mirrors of a :class:`~repro.algorithms.spf._GridFrame`, cached.

    Alongside the raw index/cost arrays this caches the per-frame constants of
    the two sweep directions: the canonical-cell masks, the cumulative removal
    costs used by the prefix/suffix-minimum trick, and the jump-target index
    vectors.  They depend only on the frame, so executor task batches that
    decompose many subtrees against the same other-side subtree build them
    once.
    """
    arrays = frame.np_arrays
    if arrays is not None:
        return arrays
    m = frame.m
    width = m + 1
    post_of_pre = np.asarray(frame.post_of_pre, dtype=np.intp)
    pre_of_post = np.asarray(frame.pre_of_post, dtype=np.intp)
    size_pre = np.asarray(frame.size_pre, dtype=np.intp)
    size_post = np.asarray(frame.size_post, dtype=np.intp)
    cost_pre = np.asarray(frame.cost_pre, dtype=np.float64)
    cost_post = np.asarray(frame.cost_post, dtype=np.float64)

    y_range = np.arange(width)
    x_range = np.arange(width)
    # Left removals couple cells along the preorder boundary x: a cell is
    # canonical when the boundary node (preorder x) is inside the forest.
    mask_left = y_range[None, :] > post_of_pre[:, None]  # (m, width)
    c_left = np.where(mask_left, cost_pre[:, None], 0.0)
    suffix_left = np.zeros((width, width), dtype=np.float64)
    suffix_left[:m] = np.cumsum(c_left[::-1], axis=0)[::-1]
    # Right removals couple cells along the postorder boundary y.
    mask_right = pre_of_post[None, :] >= x_range[:, None]  # (width, m)
    d_right = np.where(mask_right, cost_post[None, :], 0.0)
    prefix_right = np.zeros((width, width), dtype=np.float64)
    np.cumsum(d_right, axis=1, out=prefix_right[:, 1:])

    arrays = {
        "post_of_pre": post_of_pre,
        "pre_of_post": pre_of_post,
        "size_pre": size_pre,
        "size_post": size_post,
        "cost_post": cost_post,
        "ins_sum": np.asarray(frame.ins_sum, dtype=np.float64),
        "mask_left": mask_left,
        "suffix_left": suffix_left,
        "mask_right": mask_right,
        "prefix_right": prefix_right,
        "jump_x": np.arange(m) + size_pre,  # x + |G_{y_L}|
        "jump_y": np.arange(1, width) - size_post,  # y - |G_{y_R}|
    }
    frame.np_arrays = arrays
    return arrays


def inner_spine(
    dec_tree,
    chain,
    frame,
    dec_costs: Sequence[float],
    rename: Callable[[object, object], float],
    base: np.ndarray,
    deadline=None,
) -> None:
    """Vectorized inner-path spine kernel (Δ_A / Δ_H).

    Mirrors :meth:`~repro.algorithms.spf.SinglePathContext._inner_spine_py`:
    one boundary grid per chain position, swept with whole-grid vector
    operations.  The insert coupling along the active boundary is resolved
    with the same cumulative-cost prefix/suffix minimum used by the left/right
    kernel; only path-node rows need a per-``x`` loop because their
    forest-split term reads subtree distances produced by the same row.
    """
    g = _inner_frame_arrays(frame)
    m = frame.m
    width = m + 1
    o_lo = frame.o_lo

    nodes = chain.nodes
    on_path = chain.on_path
    remove_right = chain.remove_right
    jump = chain.jump
    n = len(nodes)

    chain_costs = np.asarray([dec_costs[u] for u in nodes], dtype=np.float64)
    del_sum = np.zeros(n + 1, dtype=np.float64)
    del_sum[:n] = np.cumsum(chain_costs[::-1])[::-1]

    readers = [0] * (n + 1)
    for j in range(1, n):
        readers[j] += 1
    for s in range(n):
        if jump[s] < n:
            readers[jump[s]] += 1

    path_nodes = [u for s, u in enumerate(nodes) if on_path[s]]
    ren_rows = rename_matrix(
        [dec_tree.labels[u] for u in path_nodes], frame.labels_post, rename
    )
    path_index = {u: i for i, u in enumerate(path_nodes)}

    post_of_pre = g["post_of_pre"]
    pre_of_post = g["pre_of_post"]
    cost_post = g["cost_post"]
    ins_sum = g["ins_sum"]
    mask_left = g["mask_left"]
    suffix_left = g["suffix_left"]
    mask_right = g["mask_right"]
    prefix_right = g["prefix_right"]
    jump_x = g["jump_x"]
    jump_y = g["jump_y"]

    rows: Dict[int, np.ndarray] = {n: ins_sum}
    for s in range(n - 1, -1, -1):
        u = nodes[s]
        del_u = chain_costs[s]
        row_next = rows[s + 1]
        base_val = del_sum[s]
        if deadline is not None:
            # Whole-grid sweeps below are O(width²) vector work; weight the
            # tick accordingly so detection latency tracks actual cost.
            deadline.tick(width)

        if on_path[s]:
            table = _inner_row_path(
                u, del_u, base_val, row_next, base, o_lo, m, width,
                post_of_pre, pre_of_post, cost_post, ins_sum, mask_right,
                jump_y, ren_rows[path_index[u]], deadline,
            )
        elif remove_right[s]:
            du = base[u, o_lo : o_lo + m]
            jump_grid = rows[jump[s]][:, jump_y]  # (width, m)
            match = np.where(mask_right, du[None, :] + jump_grid, np.inf)
            table = row_next + del_u
            np.minimum(table[:, 1:], match, out=table[:, 1:])
            table[:, 0] = base_val
            table -= prefix_right
            np.minimum.accumulate(table, axis=1, out=table)
            table += prefix_right
        else:
            du_pre = base[u, o_lo : o_lo + m][post_of_pre]
            jump_grid = rows[jump[s]][jump_x, :]  # (m, width)
            match = np.where(mask_left, du_pre[:, None] + jump_grid, np.inf)
            table = np.empty((width, width), dtype=np.float64)
            np.add(row_next[:m], del_u, out=table[:m])
            np.minimum(table[:m], match, out=table[:m])
            table[m] = base_val
            table -= suffix_left
            reversed_view = table[::-1]
            np.minimum.accumulate(reversed_view, axis=0, out=reversed_view)
            table += suffix_left

        rows[s] = table
        readers[s + 1] -= 1
        if readers[s + 1] == 0 and s + 1 < n:
            del rows[s + 1]
        j = jump[s]
        if j < n:
            readers[j] -= 1
            if readers[j] == 0:
                del rows[j]


def _inner_row_path(
    u: int,
    del_u: float,
    base_val: float,
    row_next: np.ndarray,
    base: np.ndarray,
    o_lo: int,
    m: int,
    width: int,
    post_of_pre: np.ndarray,
    pre_of_post: np.ndarray,
    cost_post: np.ndarray,
    ins_sum: np.ndarray,
    mask_right: np.ndarray,
    jump_y: np.ndarray,
    ren_row: np.ndarray,
    deadline=None,
) -> np.ndarray:
    """One path-node row: fills the grid and writes ``D[u][·]`` for all pairs.

    The decomposed forest is the single tree rooted at ``u``; its subtree
    distances against every other-side subtree are produced *by this row* (at
    the tree×tree cells), and the forest-split term of wider cells reads them
    back, which forces the ``x``-descending loop.
    """
    table = np.empty((width, width), dtype=np.float64)
    du_path = np.full(m, np.nan, dtype=np.float64)
    cumulative = np.empty(width, dtype=np.float64)
    for x in range(m, -1, -1):
        if deadline is not None:
            deadline.tick()
        next_row = row_next[x]
        valid = mask_right[x]
        match = np.where(valid, du_path + ins_sum[x][jump_y], np.inf)
        if x < m:
            pstar = post_of_pre[x]
            match[pstar] = next_row[pstar] + ren_row[pstar]
        indep = next_row + del_u
        np.minimum(indep[1:], match, out=indep[1:])
        indep[0] = base_val
        cumulative[0] = 0.0
        np.cumsum(np.where(valid, cost_post, 0.0), out=cumulative[1:])
        indep -= cumulative
        np.minimum.accumulate(indep, out=indep)
        indep += cumulative
        table[x] = indep
        if x < m:
            du_path[pstar] = indep[pstar + 1]
    base[u, o_lo : o_lo + m] = du_path
    return table
