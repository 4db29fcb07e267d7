"""Iterative single-path functions Δ_L, Δ_R and Δ_A over flat index arrays.

This module is the hot execution core of the library: it evaluates the
forest-distance recurrence for *all three* path classes of the paper without
recursion, without tuple forest keys, and with dense tables instead of
hash-map memoization.

* ``Δ_L`` / ``Δ_R`` (Figure 6) — the Zhang–Shasha-style keyroot programs for
  left and right paths, over postorder / reverse-postorder coordinates.
* ``Δ_A`` — the general *inner-path* program in the Demaine/Klein style, used
  for heavy paths (and any other root-leaf path): the decomposed subtree's
  relevant subforests form a single removal chain (:class:`_InnerChain`), the
  other subtree's subforests form a boundary grid (:class:`_GridFrame`), and
  each chain position is one grid-sweep row.

The recursive reference engine
(:class:`~repro.algorithms.forest_engine.DecompositionEngine`) is no longer
on any execution path — it survives purely as the cross-check oracle; see
``DESIGN.md`` for the full architecture.

Two kernels fill each keyroot-pair table, selected by region width:

* a NumPy kernel (:mod:`repro.algorithms.spf_numpy`) that sweeps each row
  of a wide table with vectorized operations — the running-minimum
  coupling between ``fd[i][j-1]`` and ``fd[i][j]`` is resolved with a
  prefix-minimum over ``t[j] - I[j]`` (``I`` = cumulative insert costs), so
  a whole row costs a handful of ``O(cols)`` array operations;
* the scalar kernel :func:`_region_py` for narrow tables (below
  :data:`~repro.algorithms.spf_numpy.MIN_VECTOR_COLS` columns), whose
  per-region cost is lower than the vector kernel's dispatch overhead.  It
  is the one scalar keyroot kernel for every cost model (unit-cost
  workspaces bind it to interned label codes) and does all its arithmetic
  on Python floats.

The right-path variant reuses the left-path recurrence verbatim by switching
to *reverse-postorder* coordinates (``Tree.rpost_of_post``), in which the
mirrored tree's arrays appear without building a mirrored tree.  Both trees,
both path kinds, and both decomposition sides (``F`` or ``G``) are expressed
through the small :class:`_Frame` view below.

Contract shared with the executor (:mod:`repro.algorithms.gted`): after
:meth:`SinglePathContext.run` finishes for a subtree pair ``(v, w)``, the
dense distance matrix ``D`` holds the exact tree edit distance for *every*
pair of subtrees ``(x, y)`` with ``x ∈ F_v`` and ``y ∈ G_w``.
"""

from __future__ import annotations

from functools import partial
from math import ceil, inf, nan
from operator import ne
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..costs import CostModel
from ..runtime import active_deadline
from ..trees.tree import HEAVY, LEFT, RIGHT, Tree
from .base import (
    CutoffExceeded,
    check_row_cutoff,
    cutoff_band,
    cutoff_slack,
    resolve_cost_model,
)
from . import spf_numpy as _np_kernel
from .strategies import SIDE_F, SIDE_G


class _Frame:
    """A tree viewed in left-decomposition coordinates.

    For ``kind == LEFT`` the frame ids are plain postorder ids.  For
    ``kind == RIGHT`` they are reverse-postorder ids, i.e. the postorder ids
    of the mirrored tree; in that coordinate system the *rightmost* leaf of a
    node becomes its frame-``lml`` and the right-path recurrence coincides
    with the left-path one.  ``to_post`` maps frame ids back to postorder ids
    for reads/writes of the shared distance matrix.
    """

    __slots__ = ("kind", "tree", "labels", "lml", "to_post", "of_post", "np_arrays")

    def __init__(self, tree: Tree, kind: str) -> None:
        self.kind = kind
        self.tree = tree
        #: Lazily built integer-array mirrors, populated by the NumPy kernel.
        self.np_arrays = None
        # Frames share the tree's own (cached) arrays where they can; all
        # frame arrays are read-only.
        if kind == LEFT:
            self.labels: Sequence[object] = tree.labels
            self.lml: Sequence[int] = tree.lml
            self.to_post: List[int] = list(range(tree.n))
            self.of_post: List[int] = self.to_post
        elif kind == RIGHT:
            rpost = tree.rpost_of_post()
            post = tree.post_of_rpost()
            self.labels = [tree.labels[p] for p in post]
            self.lml = [rpost[tree.rml[p]] for p in post]
            self.to_post = post
            self.of_post = rpost
        else:
            raise ValueError(f"single-path functions support left/right paths, not {kind!r}")

    def subtree_keyroots(self, v: int) -> List[int]:
        """Frame ids of the keyroots inside the subtree rooted at frame id ``v``."""
        keyroots = self.tree.subtree_keyroots(self.to_post[v], self.kind)
        if self.kind == LEFT:
            return keyroots
        of_post = self.of_post
        return sorted(of_post[k] for k in keyroots)


class _InnerChain:
    """The relevant-subforest chain of a subtree along one root-leaf path.

    The relevant subforests of ``F_v`` with respect to a root-leaf path γ form
    a *single* deterministic sequence: Definition 3's direction rule (remove
    the rightmost root while the leftmost root lies on γ, the leftmost root
    otherwise) removes exactly one node per step, so the chain is fully
    described by the removal order.  Concretely, walking γ from ``v`` down to
    its leaf, each path node ``p`` contributes

    1. ``p`` itself (the forest is exactly ``F_p`` at that point, a single
       tree whose root is on the path, so the root is removed),
    2. the subtrees of ``p``'s children left of the path child, consumed one
       node at a time in *preorder* (left removals), then
    3. the subtrees right of the path child, rightmost subtree first, each
       consumed in *reverse postorder* (right removals).

    ``jump[s] = s + |F_{u_s}|`` is the position at which the whole subtree of
    the node removed at ``s`` is gone — the target of the forest-split term of
    the recurrence.  For path nodes ``jump[s] == n`` (the empty forest), since
    everything outside ``F_p`` is already gone when ``p`` is removed.
    """

    __slots__ = ("nodes", "remove_right", "on_path", "jump")

    def __init__(self, tree: Tree, root: int, kind: str) -> None:
        nodes: List[int] = []
        remove_right: List[bool] = []
        on_path: List[bool] = []
        post_of_pre = tree.post_of_pre
        pre_of_post = tree.pre_of_post
        sizes = tree.sizes
        children = tree.children
        for p in tree.root_leaf_path(root, kind):
            nodes.append(p)
            remove_right.append(True)
            on_path.append(True)
            kids = children[p]
            if not kids:
                continue
            path_child = tree.path_child(p, kind)
            pos = kids.index(path_child)
            for c in kids[:pos]:
                first = pre_of_post[c]
                for pre in range(first, first + sizes[c]):
                    nodes.append(post_of_pre[pre])
                    remove_right.append(False)
                    on_path.append(False)
            for c in reversed(kids[pos + 1 :]):
                for u in range(c, c - sizes[c], -1):
                    nodes.append(u)
                    remove_right.append(True)
                    on_path.append(False)
        if len(nodes) != sizes[root]:  # pragma: no cover - structural invariant
            raise AssertionError("single-path chain does not cover the subtree")
        self.nodes = nodes
        self.remove_right = remove_right
        self.on_path = on_path
        self.jump = [s + sizes[u] for s, u in enumerate(nodes)]


class _GridFrame:
    """The *non-decomposed* subtree viewed as a boundary grid.

    Every subforest of ``G_w`` reachable by left/right root removals is the
    node set ``{u : pre(u) ≥ x, post(u) ≤ y - 1}`` for subtree-local preorder
    boundary ``x`` and (shifted) postorder boundary ``y``; left removals
    advance ``x``, right removals lower ``y``.  Several ``(x, y)`` cells may
    denote the same forest (when the boundary node itself is excluded by the
    other boundary); the inner-path tables keep those duplicates and resolve
    them with O(1) copies, which is what makes every lookup constant-time.

    All arrays are subtree-local; ``o_lo`` maps local postorder ids back to
    global ones (the subtree is postorder-contiguous).  The total removal
    cost of the forest at ``(x, y)`` is the value of every subproblem whose
    decomposed-side forest is empty, and the jump row of the path-node
    removal steps; the NumPy kernel holds it as its ``suffix_left`` array,
    and :meth:`ins_sum_rows` builds it as lists for the scalar kernel.
    """

    __slots__ = (
        "m",
        "o_lo",
        "post_of_pre",
        "pre_of_post",
        "size_pre",
        "size_post",
        "cost_pre",
        "cost_post",
        "labels_post",
        "ins_sum",
        "relevant_cells",
        "np_arrays",
    )

    def __init__(self, tree: Tree, root: int, removal_cost: Callable[[object], float]) -> None:
        m = tree.sizes[root]
        # Canonical cells — those whose two boundary nodes are both inside
        # the forest — biject with the nonempty subforests of the full
        # decomposition A(G_w), so their count is |A(G_w)| of Lemma 1: the
        # per-chain-step subproblem measure of the paper's cost formula.
        self.relevant_cells = tree.full_decomposition_sizes()[root]
        o_lo = root - m + 1
        pre_root = tree.pre_of_post[root]
        global_post_of_pre = tree.post_of_pre
        post_of_pre = [global_post_of_pre[pre_root + x] - o_lo for x in range(m)]
        pre_of_post = [0] * m
        for x, p in enumerate(post_of_pre):
            pre_of_post[p] = x
        self.m = m
        self.o_lo = o_lo
        self.post_of_pre = post_of_pre
        self.pre_of_post = pre_of_post
        self.size_post = [tree.sizes[o_lo + p] for p in range(m)]
        self.size_pre = [self.size_post[p] for p in post_of_pre]
        self.labels_post = [tree.labels[o_lo + p] for p in range(m)]
        self.cost_post = [removal_cost(label) for label in self.labels_post]
        self.cost_pre = [self.cost_post[p] for p in post_of_pre]
        #: Lazily built: the scalar kernel's sum rows, the NumPy kernel's
        #: array mirrors.
        self.ins_sum: Optional[List[List[float]]] = None
        self.np_arrays = None

    def ins_sum_rows(self) -> List[List[float]]:
        """``ins_sum[x][y]`` = Σ cost over ``{pre ≥ x, post ≤ y-1}``, built
        bottom-up over ``x`` on first use: adding the node with preorder
        ``x`` contributes to every ``y`` past its postorder position."""
        if self.ins_sum is None:
            m = self.m
            width = m + 1
            grid: List[List[float]] = [[0.0] * width for _ in range(width)]
            for x in range(m - 1, -1, -1):
                row = list(grid[x + 1])
                cost = self.cost_pre[x]
                for y in range(self.post_of_pre[x] + 1, width):
                    row[y] += cost
                grid[x] = row
            self.ins_sum = grid
        return self.ins_sum


class SinglePathContext:
    """Shared state for running single-path functions over one tree pair.

    Owns the dense ``n_f × n_g`` tree-distance matrix ``D`` (postorder ×
    postorder, initialized to NaN so that a contract violation surfaces as a
    NaN distance instead of a silently wrong number; to ``+inf`` in
    τ-banded contexts, see :attr:`band_w`), the pair's rename matrices, and
    the relevant-subproblem counter ``cells``, which keeps the completed
    keyroot regions of a run that aborted.

    A context is used directly by :func:`spf_L` / :func:`spf_R` for whole
    subtree pairs, and incrementally by the GTED executor which calls
    :meth:`run` once per strategy step with ``spine_only=True``.

    Every per-tree input of the recurrence — coordinate frames, cost arrays,
    node costs, grid frames, heavy-path equivalences and interned label
    codes — comes from a :class:`~repro.algorithms.workspace.TedWorkspace`.
    Rename matrices are integer-code gathers from its alphabet table, and
    unit-cost workspaces skip them entirely (the kernels compare code
    arrays).  A supplied workspace bound to the context's cost model shares
    those inputs across pairs; without one (or with one bound to a
    *different* cost model) the context creates a private workspace, which
    computes the same inputs for this pair alone.
    """

    def __init__(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel] = None,
        workspace=None,
        cutoff: Optional[float] = None,
        cutoff_pair: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.tree_f = tree_f
        self.tree_g = tree_g
        self.cost_model = resolve_cost_model(cost_model)
        if workspace is None or not workspace.matches(self.cost_model):
            # A mismatched workspace is bypassed silently; the bypass is
            # counted once at the WorkspaceTED layer, not per context.  The
            # workspace module builds on this one's frames, so it is
            # imported here, not when this module loads.
            from .workspace import TedWorkspace

            workspace = TedWorkspace(self.cost_model)
        self.workspace = workspace
        #: Number of forest-distance cells evaluated (the relevant subproblems).
        self.cells = 0
        #: Bounded-computation state: ``cutoff_pair`` is the subtree pair
        #: whose distance is the computation's goal (the whole-tree roots for
        #: the executor); only that pair's *final* keyroot region — whose
        #: table spans both whole trees, making the row-abort test sound —
        #: runs the early-abort check.  Mid-row aborts additionally need a
        #: provable per-operation cost floor (``DESIGN.md``, *Bounded
        #: verification*); without one the kernels run unbounded and the
        #: final check happens at the compute layer.
        self.cutoff = None if cutoff is None else float(cutoff)
        self.cutoff_pair = cutoff_pair
        self._cutoff_band = (
            cutoff_band(self.cost_model) if cutoff is not None else None
        )
        self._cutoff_slack = cutoff_slack(self.cost_model)
        #: τ-band of a bounded context with a cost floor (else ``None``):
        #: scalar keyroot regions fill only their ``|i − j| ≤ band_w`` cells,
        #: as an out-of-band cell costs ``≥ cutoff`` by size alone (widened
        #: for float round-off), and read skipped cells as ``+inf``, which
        #: keeps every sub-cutoff value bit-identical (``DESIGN.md``).
        self.band_w: Optional[int] = None
        if self._cutoff_band is not None:
            width = self.cutoff * (1.0 + self._cutoff_slack) / self._cutoff_band
            # A band at least as wide as the trees restricts nothing (and a
            # cutoff near the float maximum would overflow ``ceil``).
            if width <= max(tree_f.n, tree_g.n):
                self.band_w = max(0, ceil(width) - 1)
        #: Ambient cooperative deadline (:mod:`repro.runtime`), captured once
        #: per context; the row kernels test it amortized.  ``None`` on the
        #: (common) deadline-free path — every check is guarded, so the
        #: arithmetic and results are untouched either way.
        self.deadline = active_deadline()

        # Subtree pairs outside their region's band are never written; they
        # must read as +inf, not as the NaN contract sentinel.
        self.D = _np_kernel.allocate_matrix(
            tree_f.n, tree_g.n, fill=nan if self.band_w is None else inf
        )
        self._renames: Dict[Tuple[str, str], object] = {}

    def _rename_matrix(self, side: str, kind: str):
        """Dense rename-cost matrix in frame coordinates (vector keyroot
        kernel): :meth:`_rename_block` over both whole frames, cached per
        orientation."""
        key = (side, kind)
        matrix = self._renames.get(key)
        if matrix is None:
            matrix = self._renames[key] = self._rename_block(side, kind)
        return matrix

    def _rename_block(self, side: str, kind: str, rows=slice(None), cols=slice(None)):
        """Rename costs between the decomposed tree's frame ids ``rows`` (a
        list or a slice; row axis) and the other tree's frame ids ``cols`` (a
        slice; column axis).

        For ``side == SIDE_G`` the stored costs are ``rename(label_F,
        label_G)`` with the *original* argument order, so the swapped
        orientation still charges the correct direction-sensitive cost.  The
        values are an integer-code gather from the workspace's alphabet
        table, without per-pair cost-model calls;
        :func:`repro.algorithms.spf_numpy.rename_matrix` computes them for
        labels that cannot be interned, for alphabets past
        :data:`~repro.algorithms.workspace.MAX_DENSE_ALPHABET` and for
        unit-cost workspaces.
        """
        workspace = self.workspace
        if side == SIDE_F:
            dec_tree, oth_tree = self.tree_f, self.tree_g
        else:
            dec_tree, oth_tree = self.tree_g, self.tree_f
        # Intern both trees before sizing the table, so the alphabet covers
        # every code about to be gathered.
        codes_dec = workspace.frame_codes(dec_tree, kind, as_numpy=True)
        codes_oth = workspace.frame_codes(oth_tree, kind, as_numpy=True)
        table = None
        if codes_dec is not None and codes_oth is not None:
            table = workspace.rename_table()
        if table is not None:
            codes_dec = codes_dec[rows][:, None]
            codes_oth = codes_oth[cols][None, :]
            if side == SIDE_F:
                return table[codes_dec, codes_oth]
            return table[codes_oth, codes_dec]
        rename = self.cost_model.rename
        if side == SIDE_G:
            cm_rename = rename
            rename = lambda a, b: cm_rename(b, a)  # noqa: E731
        labels_dec = workspace.frame(dec_tree, kind).labels
        if isinstance(rows, slice):
            labels_dec = labels_dec[rows]
        else:
            labels_dec = [labels_dec[i] for i in rows]
        labels_oth = workspace.frame(oth_tree, kind).labels[cols]
        return _np_kernel.rename_matrix(labels_dec, labels_oth, rename)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, side: str, kind: str, v: int, w: int, spine_only: bool = False) -> float:
        """Run the single-path function for the subtree pair ``(v, w)``.

        Parameters
        ----------
        side, kind:
            Which tree is decomposed (``"F"`` or ``"G"``) along which path
            (``LEFT`` or ``RIGHT``).
        v, w:
            Postorder ids of the subtree roots in ``tree_f`` / ``tree_g``.
        spine_only:
            When ``False`` (standalone mode) every keyroot of the decomposed
            subtree is processed, which computes the pair from scratch.  When
            ``True`` (executor mode) only the root spine is processed and the
            off-path blocks of ``D`` must already be filled — that is exactly
            the state Algorithm 1 guarantees after its recursive calls.

        Returns the tree edit distance ``d(F_v, G_w)``.
        """
        if kind == HEAVY:
            return self.run_inner(side, kind, v, w, spine_only=spine_only)
        if kind not in (LEFT, RIGHT):
            raise ValueError(f"single-path functions support left/right/heavy paths, not {kind!r}")
        if side == SIDE_F:
            dec_tree, oth_tree = self.tree_f, self.tree_g
            dec_root, oth_root = v, w
        else:
            dec_tree, oth_tree = self.tree_g, self.tree_f
            dec_root, oth_root = w, v

        workspace = self.workspace
        dec = workspace.frame(dec_tree, kind)
        oth = workspace.frame(oth_tree, kind)
        dec_fid = dec.of_post[dec_root]
        oth_fid = oth.of_post[oth_root]

        # Removing a node from the decomposed tree is a *delete* when F is
        # decomposed and an *insert* when G is (and vice versa for the other
        # side), which keeps asymmetric cost models exact.
        del_op = "delete" if side == SIDE_F else "insert"
        ins_op = "insert" if side == SIDE_F else "delete"

        dec_keyroots = [dec_fid] if spine_only else dec.subtree_keyroots(dec_fid)
        oth_keyroots = oth.subtree_keyroots(oth_fid)

        # Early-abort spec for the final keyroot region of the goal pair: the
        # region (dec_fid, oth_fid) spans both subtrees completely, so its
        # rows are prefix-forest distances of the pair being bounded and the
        # row-abort test of DESIGN.md applies.  Only enabled with a provable
        # per-operation cost floor.
        abort = None
        if self._cutoff_band is not None and (v, w) == self.cutoff_pair:
            abort = (dec_fid, oth_fid, self.cutoff, self._cutoff_band, self._cutoff_slack)

        # The other subtree's own region is the widest.  Unit costs are exact
        # in either kernel, so a narrow band runs every region scalar; other
        # models keep the unbounded kernel choice (and every sub-cutoff bit).
        min_cols = _np_kernel.MIN_VECTOR_COLS
        vectorize = oth_fid - oth.lml[oth_fid] + 1 >= min_cols and not (
            self.band_w is not None
            and self._cutoff_slack == 0.0
            and 2 * self.band_w + 1 < min_cols
        )
        del_costs = ins_costs = unit_codes = rename = None
        if vectorize:
            del_costs = workspace.frame_costs(dec_tree, kind, del_op, as_numpy=True)
            ins_costs = workspace.frame_costs(oth_tree, kind, ins_op, as_numpy=True)
            unit_codes = self._unit_codes(dec_tree, oth_tree, kind, as_numpy=True)
            if unit_codes is None:
                rename = self._rename_matrix(side, kind)

        base = self.D if side == SIDE_F else self.D.T
        scalar = self._region_kernel_py(
            side, dec, oth,
            workspace.frame_costs(dec_tree, kind, del_op, as_numpy=False),
            workspace.frame_costs(oth_tree, kind, ins_op, as_numpy=False),
        )
        try:
            self.cells += _np_kernel.run_regions(
                dec, oth, dec_keyroots, oth_keyroots, del_costs, ins_costs, rename, base,
                scalar=scalar,
                unit_codes=unit_codes,
                abort=abort,
                deadline=self.deadline,
                vectorize=vectorize,
            )
        except CutoffExceeded as exceeded:
            # The regions completed before the abort are work done too.
            self.cells += exceeded.subproblems
            raise
        return float(self.D[v][w])

    def _unit_codes(self, dec_tree: Tree, oth_tree: Tree, kind: str, as_numpy: bool):
        """Interned frame-order code arrays for the unit-cost kernel paths.

        Only unit-cost workspaces qualify (the specialization folds delete /
        insert costs to 1 and replaces the rename term with a code equality
        compare); returns ``None`` otherwise, which selects the general
        kernels.
        """
        workspace = self.workspace
        if not workspace.unit_cost:
            return None
        dec_codes = workspace.frame_codes(dec_tree, kind, as_numpy=as_numpy)
        oth_codes = workspace.frame_codes(oth_tree, kind, as_numpy=as_numpy)
        if dec_codes is None or oth_codes is None:
            return None
        return (dec_codes, oth_codes)

    # ------------------------------------------------------------------ #
    # Inner (heavy / arbitrary) paths
    # ------------------------------------------------------------------ #
    def run_inner(self, side: str, kind: str, v: int, w: int, spine_only: bool = False) -> float:
        """Run the *inner-path* single-path function Δ_A for the pair ``(v, w)``.

        Unlike :meth:`run`, which requires ``kind`` to be a left or right
        path, this evaluates the chain/grid formulation that works for any
        root-leaf path — in particular heavy paths, for which no keyroot
        coordinate system exists.  With ``spine_only=True`` (executor mode)
        the distance blocks of all off-path subtrees must already be final in
        ``D``; with ``spine_only=False`` the off-path subtree pairs are
        scheduled iteratively first (the recursion-free equivalent of running
        GTED with the constant ``(side, kind)`` strategy).
        """
        if not spine_only:
            return self._run_fixed_inner(side, kind, v, w)
        if side == SIDE_F:
            dec_tree, dec_root, oth_tree, oth_root = self.tree_f, v, self.tree_g, w
        else:
            dec_tree, dec_root, oth_tree, oth_root = self.tree_g, w, self.tree_f, v
        workspace = self.workspace
        if kind == HEAVY:
            # When γ_H of the decomposed subtree coincides with its left or
            # right path (unary chains, leaning trees), the spine is a
            # left/right spine: same path, same relevant subtrees, but the
            # keyroot program evaluates |Γ|-many prefix forests of the other
            # tree instead of the full (m+1)² boundary grid.
            eq_left, eq_right = workspace.kind_equivalences(dec_tree)
            if eq_left[dec_root]:
                return self.run(side, LEFT, v, w, spine_only=True)
            if eq_right[dec_root]:
                return self.run(side, RIGHT, v, w, spine_only=True)
        chain = _InnerChain(dec_tree, dec_root, kind)
        # Removing a node of F is a delete, removing a node of G an insert.
        del_op, ins_op = ("delete", "insert") if side == SIDE_F else ("insert", "delete")
        frame = workspace.grid_frame(oth_tree, oth_root, ins_op)
        dec_costs = workspace.node_costs(dec_tree, del_op)
        if frame.m + 1 >= _np_kernel.MIN_INNER_VECTOR_WIDTH:
            base = self.D if side == SIDE_F else self.D.T
            # Rename rows of the path nodes against the frame's subtree; left
            # frame ids are postorder ids.
            path_nodes = [u for u, on in zip(chain.nodes, chain.on_path) if on]
            ren_rows = self._rename_block(
                side, LEFT, path_nodes, slice(frame.o_lo, frame.o_lo + frame.m)
            )
            _np_kernel.inner_spine(
                chain, frame, dec_costs, ren_rows, base, deadline=self.deadline
            )
        else:
            self._inner_spine_py(side, dec_tree, chain, frame, dec_costs)
        # Count subproblems in the paper's currency — one per (chain step,
        # relevant subforest of the other subtree), i.e. the heavy term of
        # the cost formula — not raw grid cells (which include O(1)
        # duplicate copies and unreachable states).
        self.cells += len(chain.nodes) * frame.relevant_cells
        return float(self.D[v][w])

    def _run_fixed_inner(self, side: str, kind: str, v: int, w: int) -> float:
        """Iterative driver for a constant ``(side, kind)`` strategy.

        Walks the decomposition tree of Algorithm 1 for the fixed strategy
        with an explicit stack: the off-path subtrees of each decomposed
        subtree become sub-tasks (the other-side subtree never changes), and
        the spine run happens once every sub-task block is final.
        """
        dec_tree = self.tree_f if side == SIDE_F else self.tree_g
        dec_root = v if side == SIDE_F else w
        stack: List[Tuple[int, bool]] = [(dec_root, False)]
        done: set = set()
        while stack:
            root, ready = stack.pop()
            if ready:
                pair = (root, w) if side == SIDE_F else (v, root)
                self.run_inner(side, kind, pair[0], pair[1], spine_only=True)
                done.add(root)
                continue
            if root in done:
                continue
            stack.append((root, True))
            for sub in dec_tree.relevant_subtrees(root, kind):
                if sub not in done:
                    stack.append((sub, False))
        return float(self.D[v][w])

    def _inner_spine_py(
        self,
        side: str,
        dec_tree: Tree,
        chain: _InnerChain,
        frame: _GridFrame,
        dec_costs: List[float],
    ) -> None:
        """Scalar inner-path spine kernel, for grids narrower than
        :data:`~repro.algorithms.spf_numpy.MIN_INNER_VECTOR_WIDTH`.

        Processes the relevant-subforest chain of the decomposed subtree from
        the empty forest backwards; each chain position owns one boundary-grid
        table over the other subtree's subforests.  Tables are freed as soon
        as their last reader (the preceding position and any forest-split
        jumps targeting them) has been processed, so live memory is
        ``O(d · m²)`` for nesting depth ``d`` of the off-path subtrees.
        """
        D = self.D
        o_lo = frame.o_lo
        m = frame.m
        width = m + 1
        # The decomposed tree's axis of D: rows when F is decomposed, the
        # transposed view's rows (D's columns) when G is.
        d_rows = D if side == SIDE_F else D.T

        def read_d_row(u: int) -> List[float]:
            return d_rows[u, o_lo : o_lo + m].tolist()

        def write_d_row(u: int, values: List[float]) -> None:
            d_rows[u, o_lo : o_lo + m] = values

        if side == SIDE_F:
            rename = self.cost_model.rename
        else:
            cm_rename = self.cost_model.rename

            def rename(a: object, b: object) -> float:
                return cm_rename(b, a)

        nodes = chain.nodes
        remove_right = chain.remove_right
        on_path = chain.on_path
        jump = chain.jump
        n = len(nodes)

        chain_costs = [float(dec_costs[u]) for u in nodes]
        del_sum = [0.0] * (n + 1)
        for s in range(n - 1, -1, -1):
            del_sum[s] = del_sum[s + 1] + chain_costs[s]

        # Reference counts: row j is read by row j-1 (delete term) and by
        # every chain position whose forest-split jump targets it.
        readers = [0] * (n + 1)
        for j in range(1, n):
            readers[j] += 1
        for s in range(n):
            if jump[s] < n:
                readers[jump[s]] += 1

        post_of_pre = frame.post_of_pre
        pre_of_post = frame.pre_of_post
        size_pre = frame.size_pre
        size_post = frame.size_post
        cost_pre = frame.cost_pre
        cost_post = frame.cost_post
        labels_post = frame.labels_post

        deadline = self.deadline
        # Region-granular deadline amortization (see :func:`_region_py`):
        # narrow grids pay one weighted tick per chain position; wide grids —
        # where a tick call is dwarfed by the row's inner loop — also check
        # per row.
        row_deadline = deadline if (deadline is not None and width >= 64) else None
        ins_sum = frame.ins_sum_rows()
        rows: Dict[int, List[List[float]]] = {n: ins_sum}
        for s in range(n - 1, -1, -1):
            u = nodes[s]
            del_u = chain_costs[s]
            row_next = rows[s + 1]
            base = del_sum[s]
            if deadline is not None:
                deadline.tick(width * width)
            table: List[List[float]] = [None] * width  # type: ignore[list-item]

            if on_path[s]:
                # F-side forest is the single tree rooted at the path node u:
                # direction right, forest-split jumps to the empty forest
                # (ins_sum), tree×tree cells write D and use the rename term.
                label_u = dec_tree.labels[u]
                rename_row = [rename(label_u, labels_post[p]) for p in range(m)]
                du_path = [nan] * m
                for x in range(m, -1, -1):
                    if row_deadline is not None:
                        row_deadline.tick(width)
                    trow = [0.0] * width
                    nrow = row_next[x]
                    jrow = ins_sum[x]
                    trow[0] = base
                    for y in range(1, width):
                        p = y - 1
                        xp = pre_of_post[p]
                        if xp >= x:
                            best = nrow[y] + del_u
                            cand = trow[y - 1] + cost_post[p]
                            if cand < best:
                                best = cand
                            if xp == x:
                                cand = nrow[y - 1] + rename_row[p]
                            else:
                                cand = du_path[p] + jrow[y - size_post[p]]
                            if cand < best:
                                best = cand
                            trow[y] = best
                            if xp == x:
                                du_path[p] = best
                        else:
                            trow[y] = trow[y - 1]
                    table[x] = trow
                write_d_row(u, du_path)
            elif remove_right[s]:
                # Off-path node removed from the right: the other-side forest
                # also sheds its rightmost root; subtree distances of u are
                # final in D (executor contract).
                du = read_d_row(u)
                jump_row = rows[jump[s]]
                for x in range(width):
                    if row_deadline is not None:
                        row_deadline.tick(width)
                    trow = [0.0] * width
                    nrow = row_next[x]
                    jrow = jump_row[x]
                    trow[0] = base
                    for y in range(1, width):
                        p = y - 1
                        if pre_of_post[p] >= x:
                            best = nrow[y] + del_u
                            cand = trow[y - 1] + cost_post[p]
                            if cand < best:
                                best = cand
                            cand = du[p] + jrow[y - size_post[p]]
                            if cand < best:
                                best = cand
                            trow[y] = best
                        else:
                            trow[y] = trow[y - 1]
                    table[x] = trow
            else:
                # Off-path node removed from the left: both forests shed
                # their leftmost root, so the coupling runs along the
                # preorder boundary x instead of y.
                du = read_d_row(u)
                jump_row = rows[jump[s]]
                table[m] = [base] * width
                for x in range(m - 1, -1, -1):
                    if row_deadline is not None:
                        row_deadline.tick(width)
                    p = post_of_pre[x]
                    cost_x = cost_pre[x]
                    jrow = jump_row[x + size_pre[x]]
                    nrow = row_next[x]
                    below = table[x + 1]
                    dval = du[p]
                    trow = [0.0] * width
                    for y in range(width):
                        if y > p:
                            best = nrow[y] + del_u
                            cand = below[y] + cost_x
                            if cand < best:
                                best = cand
                            cand = dval + jrow[y]
                            if cand < best:
                                best = cand
                            trow[y] = best
                        else:
                            trow[y] = below[y]
                    table[x] = trow

            rows[s] = table
            readers[s + 1] -= 1
            if readers[s + 1] == 0 and s + 1 < n:
                del rows[s + 1]
            j = jump[s]
            if j < n:
                readers[j] -= 1
                if readers[j] == 0:
                    del rows[j]

    # ------------------------------------------------------------------ #
    # Scalar region kernel
    # ------------------------------------------------------------------ #
    def _region_kernel_py(
        self,
        side: str,
        dec: _Frame,
        oth: _Frame,
        del_costs: List[float],
        ins_costs: List[float],
    ) -> Callable[[int, int, Optional[Tuple[float, float, float]]], int]:
        """Bind the scalar region kernel :func:`_region_py` to one orientation.

        The returned callable ``(kf, kg, cut)`` fills a single keyroot-pair
        table; it runs the regions narrower than
        :data:`~repro.algorithms.spf_numpy.MIN_VECTOR_COLS`, where the vector
        kernel's per-region setup overhead would dominate (the many tiny
        tables produced by branchy trees).  ``del_costs`` / ``ins_costs`` are
        Python-float lists.  When both trees' labels intern, the kernel reads
        frame-order codes instead of labels: unit-cost workspaces compare
        them with :func:`operator.ne` (a ``bool`` added to an
        integer-valued float is exact), other workspaces look them up in the
        alphabet's rename table
        (:meth:`~repro.algorithms.workspace.TedWorkspace.rename_table`, whose
        entries are the cost model's own values) once it is built — either
        way the distances are bit-identical to calling the cost model, which
        is then not called per cell.  The binding is a
        :func:`functools.partial`, so a region costs no extra Python frame.
        """
        base = self.D if side == SIDE_F else self.D.T
        # Rows of ``D`` are read as plain Python floats: NumPy scalars would
        # make every candidate sum a slow NumPy-scalar operation.  Left
        # frames number the other tree in postorder, so a region's columns
        # are one contiguous slice (``tolist``); right frames gather theirs
        # with ``ndarray.item``.
        if oth.kind == LEFT:
            def read_row(node_post: int, col_posts: List[int], lo: int, hi: int) -> List[float]:
                return base[node_post, col_posts[lo - 1] : col_posts[hi - 1] + 1].tolist()
        else:
            item = base.item

            def read_row(node_post: int, col_posts: List[int], lo: int, hi: int) -> List[float]:
                return [item(node_post, p) for p in col_posts[lo - 1 : hi]]

        workspace = self.workspace
        labels_f = workspace.frame_codes(dec.tree, dec.kind, as_numpy=False)
        labels_g = workspace.frame_codes(oth.tree, oth.kind, as_numpy=False)
        rename: Optional[Callable[[object, object], float]] = None
        if labels_f is not None and labels_g is not None:
            if workspace.unit_cost:
                rename = ne
            else:
                # Only a table built already (by the vector kernel or an
                # earlier pair): on a one-off pair of small trees its K²
                # entries cost more than the cells they would serve.
                table = workspace.rename_table(build=False)
                if table is not None:
                    # The transposed view keeps rename(label_F, label_G)
                    # when G is decomposed.
                    rename = (table if side == SIDE_F else table.T).item
        if rename is None:
            labels_f, labels_g = dec.labels, oth.labels
            rename = self.cost_model.rename
            if side == SIDE_G:
                cm_rename = rename

                def rename(a: object, b: object) -> float:
                    return cm_rename(b, a)

        return partial(
            _region_py, dec.lml, oth.lml, labels_f, labels_g, del_costs, ins_costs, rename,
            dec.to_post, oth.to_post, read_row, base, self.deadline, self.band_w,
        )


def _region_py(
    lml_f: List[int],
    lml_g: List[int],
    labels_f: List[object],
    labels_g: List[object],
    del_costs: List[float],
    ins_costs: List[float],
    rename: Callable[[object, object], float],
    to_post_dec: List[int],
    to_post_oth: List[int],
    read_row: Callable[[int, List[int], int, int], List[float]],
    base,
    deadline,
    band_w: Optional[int],
    kf: int,
    kg: int,
    cut: Optional[Tuple[float, float, float]] = None,
) -> int:
    """Fill one keyroot-pair forest-distance table (scalar kernel).

    The recurrence is the classic Zhang–Shasha one over frame-contiguous
    prefix forests; distances between pairs of complete subtrees are written
    to ``base`` (``D``, or its transposed view when ``G`` is decomposed), and
    distances of previously completed subtree pairs are read back for the
    forest-split case.  ``cut`` — ``(cutoff, band, slack)``, final region of
    a bounded computation only — arms the per-row early abort
    (:func:`repro.algorithms.base.check_row_cutoff`).  ``band_w`` (see
    :attr:`SinglePathContext.band_w`) restricts each row to its
    ``|i − j| ≤ band_w`` window of a table that starts out ``+inf``; rows
    wholly outside the band are never built.  Returns the number of cells
    evaluated; a row abort attaches the cells evaluated in this region to
    the :class:`~repro.algorithms.base.CutoffExceeded` it raises.
    """
    lf, lg = lml_f[kf], lml_g[kg]
    rows = kf - lf + 2
    cols = kg - lg + 2

    # Deadline amortization: most regions are tiny (a handful of rows), so a
    # per-row tick call would dominate their cost.  Small regions pay one
    # weighted tick at entry; only wide regions — where a tick is dwarfed by
    # the row's inner loop — also check per row.
    row_deadline = None
    if deadline is not None:
        deadline.tick((rows - 1) * (cols - 1))
        if cols >= 64:
            row_deadline = deadline

    col_posts = to_post_oth[lg : kg + 1]

    stop, last_j = rows, cols
    if band_w is not None:
        stop = rows if rows < cols + band_w else cols + band_w
        last_j = cols if cols <= band_w else band_w + 1
    row = [inf] * cols
    row[0] = 0.0
    for j in range(1, last_j):
        row[j] = row[j - 1] + ins_costs[lg + j - 1]
    fd: List[Optional[List[float]]] = [row]

    cells = 0
    lo, hi = 1, cols - 1
    for i in range(1, stop):
        if band_w is not None:
            lo = i - band_w if i > band_w else 1
            hi = i + band_w if i + band_w < cols else cols - 1
        node_f = lf + i - 1
        lml_node = lml_f[node_f]
        spans_f = lml_node == lf
        delete_cost = del_costs[node_f]
        label_f = labels_f[node_f]
        node_f_post = to_post_dec[node_f]
        prev = row
        row = [inf] * cols
        row[0] = prev[0] + delete_cost
        fd.append(row)
        split_row = fd[lml_node - lf]
        if lml_node != node_f:
            # A split reads ``fd[lml(node) − lf]``, the row just before a
            # leaf; ``prev`` precedes a non-leaf, so no split will read it
            # and a region keeps one row per leaf instead of every row.
            fd[i - 1] = None
        dist_row = None if spans_f else read_row(node_f_post, col_posts, lo, hi)
        for j in range(lo, hi + 1):
            node_g = lg + j - 1
            best = prev[j] + delete_cost
            candidate = row[j - 1] + ins_costs[node_g]
            if candidate < best:
                best = candidate
            if spans_f and lml_g[node_g] == lg:
                candidate = prev[j - 1] + rename(label_f, labels_g[node_g])
                if candidate < best:
                    best = candidate
                row[j] = best
                base[node_f_post, col_posts[j - 1]] = best
            else:
                if dist_row is None:
                    dist_row = read_row(node_f_post, col_posts, lo, hi)
                candidate = split_row[lml_g[node_g] - lg] + dist_row[j - lo]
                if candidate < best:
                    best = candidate
                row[j] = best
        cells += hi - lo + 1
        if cut is not None:
            try:
                check_row_cutoff(row, cols, rows - 1 - i, cut[0], cut[1], lo, hi,
                                 exact_values=False, slack=cut[2])
            except CutoffExceeded as exceeded:
                exceeded.subproblems = cells
                raise
        if row_deadline is not None:
            row_deadline.tick(cols)

    return cells


# --------------------------------------------------------------------------- #
# Public single-path functions
# --------------------------------------------------------------------------- #
def spf_L(
    tree_f: Tree,
    tree_g: Tree,
    v: Optional[int] = None,
    w: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    workspace=None,
) -> float:
    """Tree edit distance via the iterative left-path single-path function.

    Computes ``d(F_v, G_w)`` (whole trees by default) by decomposing both
    trees along left paths — the strategy of Zhang-L — entirely with
    iterative keyroot tables: no recursion is involved, so arbitrarily deep
    trees are handled without touching the interpreter recursion limit.
    """
    context = SinglePathContext(tree_f, tree_g, cost_model=cost_model, workspace=workspace)
    return context.run(
        SIDE_F, LEFT, tree_f.root if v is None else v, tree_g.root if w is None else w
    )


def spf_R(
    tree_f: Tree,
    tree_g: Tree,
    v: Optional[int] = None,
    w: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    workspace=None,
) -> float:
    """Tree edit distance via the iterative right-path single-path function.

    The mirror image of :func:`spf_L` (the strategy of Zhang-R), executed in
    reverse-postorder coordinates instead of on mirrored tree copies.
    """
    context = SinglePathContext(tree_f, tree_g, cost_model=cost_model, workspace=workspace)
    return context.run(
        SIDE_F, RIGHT, tree_f.root if v is None else v, tree_g.root if w is None else w
    )


def spf_H(
    tree_f: Tree,
    tree_g: Tree,
    v: Optional[int] = None,
    w: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    workspace=None,
) -> float:
    """Tree edit distance via the iterative heavy-path single-path function.

    Computes ``d(F_v, G_w)`` by decomposing the left-hand tree along heavy
    paths — the strategy of Klein — entirely iteratively: the off-path
    subtree pairs are scheduled with an explicit stack and each spine runs
    the chain/grid dynamic program of Δ_A, so no recursion is involved and
    arbitrarily deep trees are handled without touching the interpreter
    recursion limit.
    """
    return spf_A(
        tree_f, tree_g, HEAVY, v=v, w=w, cost_model=cost_model, workspace=workspace
    )


def spf_A(
    tree_f: Tree,
    tree_g: Tree,
    kind: str = HEAVY,
    v: Optional[int] = None,
    w: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    workspace=None,
) -> float:
    """Tree edit distance via the general inner-path single-path function.

    ``kind`` may be any path kind (``left``, ``right`` or ``heavy``): the
    chain/grid formulation does not depend on a keyroot coordinate system, so
    the same code executes all three.  For left/right paths this is the
    (slower, fully general) cross-check twin of :func:`spf_L` /
    :func:`spf_R`; for heavy paths it is the production implementation.
    """
    context = SinglePathContext(tree_f, tree_g, cost_model=cost_model, workspace=workspace)
    return context.run_inner(
        SIDE_F, kind, tree_f.root if v is None else v, tree_g.root if w is None else w
    )
