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

Two interchangeable kernels fill each keyroot-pair table:

* a pure-Python kernel (always available), and
* a NumPy kernel (:mod:`repro.algorithms.spf_numpy`) that sweeps each table
  row with vectorized operations — the running-minimum coupling between
  ``fd[i][j-1]`` and ``fd[i][j]`` is resolved with a prefix-minimum over
  ``t[j] - I[j]`` (``I`` = cumulative insert costs), so a whole row costs a
  handful of ``O(cols)`` array operations.

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

from math import nan
from typing import Callable, Dict, List, Optional, Tuple

from ..costs import CostModel
from ..runtime import active_deadline
from ..trees.tree import HEAVY, LEFT, RIGHT, Tree
from .base import CutoffExceeded, check_row_cutoff, cutoff_band, cutoff_slack, resolve_cost_model
from .strategies import SIDE_F, SIDE_G

try:  # NumPy is an optional accelerator, mirroring repro.counting's split.
    from . import spf_numpy as _np_kernel
except ImportError:  # pragma: no cover - exercised only without numpy
    _np_kernel = None


def numpy_available() -> bool:
    """``True`` when the NumPy kernel can be used."""
    return _np_kernel is not None


def _resolve_use_numpy(use_numpy: Optional[bool]) -> bool:
    if use_numpy is None:
        return numpy_available()
    if use_numpy and not numpy_available():
        raise RuntimeError("NumPy kernel requested but numpy is not importable")
    return bool(use_numpy)


class _Frame:
    """A tree viewed in left-decomposition coordinates.

    For ``kind == LEFT`` the frame ids are plain postorder ids.  For
    ``kind == RIGHT`` they are reverse-postorder ids, i.e. the postorder ids
    of the mirrored tree; in that coordinate system the *rightmost* leaf of a
    node becomes its frame-``lml`` and the right-path recurrence coincides
    with the left-path one.  ``to_post`` maps frame ids back to postorder ids
    for reads/writes of the shared distance matrix.
    """

    __slots__ = ("n", "kind", "tree", "labels", "lml", "sizes", "to_post", "of_post", "np_arrays")

    def __init__(self, tree: Tree, kind: str) -> None:
        self.n = tree.n
        self.kind = kind
        self.tree = tree
        #: Lazily built integer-array mirrors, populated by the NumPy kernel.
        self.np_arrays = None
        if kind == LEFT:
            self.labels: List[object] = list(tree.labels)
            self.lml: List[int] = list(tree.lml)
            self.sizes: List[int] = list(tree.sizes)
            self.to_post: List[int] = list(range(tree.n))
            self.of_post: List[int] = self.to_post
        elif kind == RIGHT:
            rpost = tree.rpost_of_post()
            post = tree.post_of_rpost()
            self.labels = [tree.labels[p] for p in post]
            self.lml = [rpost[tree.rml[p]] for p in post]
            self.sizes = [tree.sizes[p] for p in post]
            self.to_post = list(post)
            self.of_post = list(rpost)
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
    global ones (the subtree is postorder-contiguous).  ``ins_sum[x][y]`` is
    the total removal cost of the forest at ``(x, y)`` — the value of every
    subproblem whose decomposed-side forest is empty, and the jump row of the
    path-node removal steps.
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

        # ins_sum[x][y] = Σ cost over {pre ≥ x, post ≤ y-1}, built bottom-up
        # over x: adding the node with preorder x contributes to every y past
        # its postorder position.
        width = m + 1
        grid: List[List[float]] = [[0.0] * width for _ in range(width)]
        for x in range(m - 1, -1, -1):
            row = list(grid[x + 1])
            cost = self.cost_pre[x]
            for y in range(post_of_pre[x] + 1, width):
                row[y] += cost
            grid[x] = row
        self.ins_sum = grid
        #: Lazily built array mirrors, populated by the NumPy kernel.
        self.np_arrays = None


class SinglePathContext:
    """Shared state for running single-path functions over one tree pair.

    Owns the dense ``n_f × n_g`` tree-distance matrix ``D`` (postorder ×
    postorder, initialized to NaN so that a contract violation surfaces as a
    NaN distance instead of a silently wrong number), the lazily built
    coordinate frames, per-frame cost arrays, and the relevant-subproblem
    counter ``cells``.

    A context is used directly by :func:`spf_L` / :func:`spf_R` for whole
    subtree pairs, and incrementally by the GTED executor which calls
    :meth:`run` once per strategy step with ``spine_only=True``.

    When a :class:`~repro.algorithms.workspace.TedWorkspace` is supplied the
    per-call setup is delegated to its cross-pair caches: coordinate frames,
    cost arrays, grid frames and heavy-path equivalences come from the
    workspace's per-tree caches, the distance matrix is a pooled buffer
    (returned via :meth:`release`), rename matrices become integer-code
    gathers from the workspace's alphabet table, and unit-cost workspaces
    skip rename matrices entirely (the kernels compare code arrays).  A
    workspace bound to a *different* cost model is ignored — the context
    falls back to fresh per-call state, which is always correct.
    """

    def __init__(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel] = None,
        use_numpy: Optional[bool] = None,
        workspace=None,
        cutoff: Optional[float] = None,
        cutoff_pair: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.tree_f = tree_f
        self.tree_g = tree_g
        self.cost_model = resolve_cost_model(cost_model)
        if workspace is not None and not workspace.matches(self.cost_model):
            # Silent fallback to fresh per-call state; the bypass is counted
            # once at the WorkspaceTED layer, not per context.
            workspace = None
        self.workspace = workspace
        self.use_numpy = _resolve_use_numpy(use_numpy)
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
        #: Ambient cooperative deadline (:mod:`repro.runtime`), captured once
        #: per context; the row kernels test it amortized.  ``None`` on the
        #: (common) deadline-free path — every check is guarded, so the
        #: arithmetic and results are untouched either way.
        self.deadline = active_deadline()

        if self.use_numpy:
            if workspace is not None:
                self.D = workspace.acquire_matrix(tree_f.n, tree_g.n)
            else:
                self.D = _np_kernel.allocate_matrix(tree_f.n, tree_g.n)
        else:
            self.D = [[nan] * tree_g.n for _ in range(tree_f.n)]

        self._frames: Dict[Tuple[str, str], _Frame] = {}
        self._costs: Dict[Tuple[str, str, str], List[float]] = {}
        self._renames: Dict[Tuple[str, str], object] = {}
        self._grids: Dict[Tuple[str, int], _GridFrame] = {}
        self._node_cost_arrays: Dict[Tuple[str, str], List[float]] = {}
        self._kind_equiv: Dict[str, Tuple[List[bool], List[bool]]] = {}

    def release(self) -> None:
        """Return the pooled distance matrix to the workspace (if any).

        After release the matrix must not be read again — the executor calls
        this once the final distance has been extracted.  A no-op for
        contexts without a workspace or without the NumPy matrix.
        """
        if self.workspace is not None and self.use_numpy and self.D is not None:
            self.workspace.release_matrix(self.D)
            self.D = None

    # ------------------------------------------------------------------ #
    # Cached per-frame data
    # ------------------------------------------------------------------ #
    def _frame(self, which: str, kind: str) -> _Frame:
        key = (which, kind)
        frame = self._frames.get(key)
        if frame is None:
            tree = self.tree_f if which == SIDE_F else self.tree_g
            if self.workspace is not None:
                frame = self.workspace.frame(tree, kind)
            else:
                frame = _Frame(tree, kind)
            self._frames[key] = frame
        return frame

    def _cost_array(self, which: str, kind: str, operation: str) -> List[float]:
        """Per-frame-id node costs; ``operation`` is ``"delete"`` or ``"insert"``."""
        key = (which, kind, operation)
        costs = self._costs.get(key)
        if costs is None:
            tree = self.tree_f if which == SIDE_F else self.tree_g
            if self.workspace is not None:
                costs = self.workspace.frame_cost_array(tree, kind, operation, self.use_numpy)
            else:
                frame = self._frame(which, kind)
                fn = self.cost_model.delete if operation == "delete" else self.cost_model.insert
                costs = [fn(label) for label in frame.labels]
                if self.use_numpy:
                    costs = _np_kernel.as_array(costs)
            self._costs[key] = costs
        return costs

    def _rename_matrix(self, side: str, kind: str):
        """Dense rename-cost matrix in frame coordinates (NumPy kernel only).

        Row axis is the decomposed tree, column axis the other tree; for
        ``side == SIDE_G`` the stored costs are ``rename(label_F, label_G)``
        with the *original* argument order, so the swapped orientation still
        charges the correct direction-sensitive cost.
        """
        key = (side, kind)
        matrix = self._renames.get(key)
        if matrix is None:
            matrix = self._workspace_rename_matrix(side, kind)
            if matrix is None:
                if side == SIDE_F:
                    rows, cols = self._frame(SIDE_F, kind), self._frame(SIDE_G, kind)
                    rename = self.cost_model.rename
                else:
                    rows, cols = self._frame(SIDE_G, kind), self._frame(SIDE_F, kind)
                    rename = lambda a, b: self.cost_model.rename(b, a)  # noqa: E731
                matrix = _np_kernel.rename_matrix(rows.labels, cols.labels, rename)
            self._renames[key] = matrix
        return matrix

    def _workspace_rename_matrix(self, side: str, kind: str):
        """Rename matrix as an integer-code gather from the workspace's
        alphabet table (``None`` when interning is unavailable) — the same
        values :func:`repro.algorithms.spf_numpy.rename_matrix` would produce
        by calling the cost model, without the per-pair Python calls."""
        workspace = self.workspace
        if workspace is None:
            return None
        # Intern both trees before sizing the table, so the alphabet covers
        # every code about to be gathered.
        codes_f = workspace.frame_codes(self.tree_f, kind, as_numpy=True)
        codes_g = workspace.frame_codes(self.tree_g, kind, as_numpy=True)
        if codes_f is None or codes_g is None:
            return None
        table = workspace.rename_table()
        if table is None:
            return None
        if side == SIDE_F:
            return table[codes_f[:, None], codes_g[None, :]]
        # Swapped orientation: matrix[i, j] = rename(label_F[j], label_G[i]).
        return table[codes_f[None, :], codes_g[:, None]]

    def _node_costs(self, which: str, operation: str) -> List[float]:
        """Per-node removal costs in plain postorder (used by inner paths)."""
        key = (which, operation)
        costs = self._node_cost_arrays.get(key)
        if costs is None:
            tree = self.tree_f if which == SIDE_F else self.tree_g
            if self.workspace is not None:
                costs = self.workspace.node_costs(tree, operation)
            else:
                fn = self.cost_model.delete if operation == "delete" else self.cost_model.insert
                costs = [fn(label) for label in tree.labels]
            self._node_cost_arrays[key] = costs
        return costs

    #: Cached grid frames kept per context; each holds an ``O(m^2)`` grid, so
    #: the cache is bounded (executor task batches reuse the same other-side
    #: subtree many times in a row — see ``_run_fixed_inner``).
    _MAX_GRID_FRAMES = 8

    def _grid_frame(self, which: str, root: int) -> _GridFrame:
        # Removing a node of F is a delete, removing a node of G an
        # insert — the same orientation rule as _node_costs.
        tree = self.tree_f if which == SIDE_F else self.tree_g
        if self.workspace is not None:
            operation = "insert" if which == SIDE_G else "delete"
            return self.workspace.grid_frame(tree, root, operation)
        key = (which, root)
        frame = self._grids.pop(key, None)
        if frame is None:
            removal = self.cost_model.insert if which == SIDE_G else self.cost_model.delete
            frame = _GridFrame(tree, root, removal)
            if len(self._grids) >= self._MAX_GRID_FRAMES:
                self._grids.pop(next(iter(self._grids)))
        # Re-insert on every access so eviction is least-recently-used.
        self._grids[key] = frame
        return frame

    def _heavy_path_equivalences(self, which: str) -> Tuple[List[bool], List[bool]]:
        """Per-node flags: does the heavy path of ``F_v`` equal its left
        (resp. right) path?

        True for every unary chain and for consistently left-/right-leaning
        subtrees.  When it holds, the heavy single-path step *is* a left/right
        step (same path γ, same relevant subtrees), so it can run through the
        much tighter keyroot program instead of the boundary grid.
        """
        cached = self._kind_equiv.get(which)
        if cached is None:
            tree = self.tree_f if which == SIDE_F else self.tree_g
            if self.workspace is not None:
                cached = self.workspace.kind_equivalences(tree)
                self._kind_equiv[which] = cached
                return cached
            n = tree.n
            eq_left = [True] * n
            eq_right = [True] * n
            heavy = tree.heavy_child
            children = tree.children
            for v in range(n):
                kids = children[v]
                if kids:
                    h = heavy[v]
                    eq_left[v] = h == kids[0] and eq_left[h]
                    eq_right[v] = h == kids[-1] and eq_right[h]
            cached = (eq_left, eq_right)
            self._kind_equiv[which] = cached
        return cached

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
            dec_which, oth_which = SIDE_F, SIDE_G
            dec_root, oth_root = v, w
        else:
            dec_which, oth_which = SIDE_G, SIDE_F
            dec_root, oth_root = w, v

        dec = self._frame(dec_which, kind)
        oth = self._frame(oth_which, kind)
        dec_fid = dec.of_post[dec_root]
        oth_fid = oth.of_post[oth_root]

        # Removing a node from the decomposed tree is a *delete* when F is
        # decomposed and an *insert* when G is (and vice versa for the other
        # side), which keeps asymmetric cost models exact.
        del_costs = self._cost_array(dec_which, kind, "delete" if side == SIDE_F else "insert")
        ins_costs = self._cost_array(oth_which, kind, "insert" if side == SIDE_F else "delete")

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

        if self.use_numpy:
            base = self.D if side == SIDE_F else self.D.T
            unit_codes = self._unit_codes(dec_which, oth_which, kind, as_numpy=True)
            rename = None if unit_codes is not None else self._rename_matrix(side, kind)
            fallback_codes = self._unit_codes(dec_which, oth_which, kind, as_numpy=False)
            cells = _np_kernel.run_regions(
                dec, oth, dec_keyroots, oth_keyroots, del_costs, ins_costs, rename, base,
                fallback=self._region_kernel_py(
                    side, dec, oth, del_costs, ins_costs, fallback_codes, abort
                ),
                unit_codes=unit_codes,
                abort=abort,
                deadline=self.deadline,
            )
        else:
            unit_codes = self._unit_codes(dec_which, oth_which, kind, as_numpy=False)
            kernel = self._region_kernel_py(
                side, dec, oth, del_costs, ins_costs, unit_codes, abort
            )
            cells = 0
            deadline = self.deadline
            for kf in dec_keyroots:
                if deadline is not None:
                    deadline.tick()
                for kg in oth_keyroots:
                    cells += kernel(kf, kg)
        self.cells += cells
        return float(self.D[v][w])

    def _unit_codes(self, dec_which: str, oth_which: str, kind: str, as_numpy: bool):
        """Interned frame-order code arrays for the unit-cost kernel paths.

        Only unit-cost workspaces qualify (the specialization folds delete /
        insert costs to 1 and replaces the rename term with a code equality
        compare); returns ``None`` otherwise, which selects the general
        kernels.
        """
        workspace = self.workspace
        if workspace is None or not workspace.unit_cost:
            return None
        dec_tree = self.tree_f if dec_which == SIDE_F else self.tree_g
        oth_tree = self.tree_f if oth_which == SIDE_F else self.tree_g
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
            dec_tree, dec_root, oth_which, oth_root = self.tree_f, v, SIDE_G, w
        else:
            dec_tree, dec_root, oth_which, oth_root = self.tree_g, w, SIDE_F, v
        if kind == HEAVY:
            # When γ_H of the decomposed subtree coincides with its left or
            # right path (unary chains, leaning trees), the spine is a
            # left/right spine: same path, same relevant subtrees, but the
            # keyroot program evaluates |Γ|-many prefix forests of the other
            # tree instead of the full (m+1)² boundary grid.
            eq_left, eq_right = self._heavy_path_equivalences(side)
            if eq_left[dec_root]:
                return self.run(side, LEFT, v, w, spine_only=True)
            if eq_right[dec_root]:
                return self.run(side, RIGHT, v, w, spine_only=True)
        chain = _InnerChain(dec_tree, dec_root, kind)
        frame = self._grid_frame(oth_which, oth_root)
        dec_costs = self._node_costs(side, "delete" if side == SIDE_F else "insert")
        if self.use_numpy and frame.m + 1 >= _np_kernel.MIN_INNER_VECTOR_WIDTH:
            base = self.D if side == SIDE_F else self.D.T
            rename = self.cost_model.rename
            if side == SIDE_G:
                cm_rename = rename
                rename = lambda a, b: cm_rename(b, a)  # noqa: E731
            _np_kernel.inner_spine(
                dec_tree, chain, frame, dec_costs, rename, base,
                deadline=self.deadline,
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
        """Pure-Python inner-path spine kernel.

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
        use_np_matrix = self.use_numpy

        if side == SIDE_F:
            def read_d_row(u: int) -> List[float]:
                row = D[u]
                if use_np_matrix:
                    return row[o_lo : o_lo + m].tolist()
                return row[o_lo : o_lo + m]

            def write_d_row(u: int, values: List[float]) -> None:
                # Slice assignment works for both the list and ndarray matrix.
                D[u][o_lo : o_lo + m] = values

            rename = self.cost_model.rename
        else:
            def read_d_row(u: int) -> List[float]:
                if use_np_matrix:
                    return D[o_lo : o_lo + m, u].tolist()
                return [D[o_lo + p][u] for p in range(m)]

            def write_d_row(u: int, values: List[float]) -> None:
                if use_np_matrix:
                    D[o_lo : o_lo + m, u] = values
                else:
                    for p in range(m):
                        D[o_lo + p][u] = values[p]

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
        rows: Dict[int, List[List[float]]] = {n: frame.ins_sum}
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
                ins_sum = frame.ins_sum
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
    # Pure-Python kernel
    # ------------------------------------------------------------------ #
    def _region_kernel_py(
        self,
        side: str,
        dec: _Frame,
        oth: _Frame,
        del_costs: List[float],
        ins_costs: List[float],
        unit_codes=None,
        abort: Optional[Tuple[int, int, float, float, float]] = None,
    ) -> Callable[[int, int], int]:
        """Bind the pure-Python region kernel to one orientation.

        The returned callable fills a single keyroot-pair table; it is both
        the pure-Python execution path and the small-region fallback of the
        NumPy kernel (whose per-region setup overhead would dominate the many
        tiny tables produced by branchy trees).  With ``unit_codes`` (a pair
        of frame-order code lists, unit-cost workspaces only) the bound
        kernel is the unit specialization: delete/insert constant-folded to
        1 and the rename term a code equality compare.  ``abort`` — a
        ``(kf, kg, cutoff, band, slack)`` spec — arms the early-abort row
        check for the one region it names.
        """
        D = self.D
        to_post_dec = dec.to_post
        to_post_oth = oth.to_post
        if side == SIDE_F:
            rename = self.cost_model.rename

            def read_row(node_post: int, col_posts: List[int]) -> List[float]:
                row = D[node_post]
                return [row[p] for p in col_posts]

            def write(node_post: int, col_post: int, value: float) -> None:
                D[node_post][col_post] = value

        else:
            cm_rename = self.cost_model.rename

            def rename(a: object, b: object) -> float:
                return cm_rename(b, a)

            def read_row(node_post: int, col_posts: List[int]) -> List[float]:
                return [D[p][node_post] for p in col_posts]

            def write(node_post: int, col_post: int, value: float) -> None:
                D[col_post][node_post] = value

        deadline = self.deadline
        if unit_codes is not None:
            codes_dec, codes_oth = unit_codes

            def kernel(kf: int, kg: int) -> int:
                cut = abort[2:] if abort is not None and (kf, kg) == abort[:2] else None
                return _region_py_unit(
                    dec, oth, kf, kg, codes_dec, codes_oth,
                    to_post_dec, to_post_oth, read_row, write, cut, deadline,
                )

            return kernel

        def kernel(kf: int, kg: int) -> int:
            cut = abort[2:] if abort is not None and (kf, kg) == abort[:2] else None
            return _region_py(
                dec, oth, kf, kg, del_costs, ins_costs, rename,
                to_post_dec, to_post_oth, read_row, write, cut, deadline,
            )

        return kernel


def _region_py(
    dec: _Frame,
    oth: _Frame,
    kf: int,
    kg: int,
    del_costs: List[float],
    ins_costs: List[float],
    rename: Callable[[object, object], float],
    to_post_dec: List[int],
    to_post_oth: List[int],
    read_row: Callable[[int, List[int]], List[float]],
    write: Callable[[int, int, float], None],
    cut: Optional[Tuple[float, float, float]] = None,
    deadline=None,
) -> int:
    """Fill one keyroot-pair forest-distance table (pure-Python kernel).

    The recurrence is the classic Zhang–Shasha one over frame-contiguous
    prefix forests; distances between pairs of complete subtrees are written
    to the shared matrix, and distances of previously completed subtree pairs
    are read back for the forest-split case.  ``cut`` —
    ``(cutoff, band, slack)``, final region of a bounded computation only —
    arms the per-row early
    abort (:func:`repro.algorithms.base.check_row_cutoff`).
    """
    lml_f, lml_g = dec.lml, oth.lml
    labels_f, labels_g = dec.labels, oth.labels
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

    fd: List[List[float]] = [[0.0] * cols for _ in range(rows)]
    for i in range(1, rows):
        fd[i][0] = fd[i - 1][0] + del_costs[lf + i - 1]
    first_row = fd[0]
    for j in range(1, cols):
        first_row[j] = first_row[j - 1] + ins_costs[lg + j - 1]

    for i in range(1, rows):
        node_f = lf + i - 1
        spans_f = lml_f[node_f] == lf
        delete_cost = del_costs[node_f]
        label_f = labels_f[node_f]
        node_f_post = to_post_dec[node_f]
        prev = fd[i - 1]
        row = fd[i]
        split_row = fd[lml_f[node_f] - lf]
        dist_row = None if spans_f else read_row(node_f_post, col_posts)
        for j in range(1, cols):
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
                write(node_f_post, col_posts[j - 1], best)
            else:
                if dist_row is None:
                    dist_row = read_row(node_f_post, col_posts)
                candidate = split_row[lml_g[node_g] - lg] + dist_row[j - 1]
                if candidate < best:
                    best = candidate
                row[j] = best
        if cut is not None:
            check_row_cutoff(row, cols, rows - 1 - i, cut[0], cut[1], slack=cut[2])
        if row_deadline is not None:
            row_deadline.tick(cols)

    return (rows - 1) * (cols - 1)


def _region_py_unit(
    dec: _Frame,
    oth: _Frame,
    kf: int,
    kg: int,
    codes_dec: List[int],
    codes_oth: List[int],
    to_post_dec: List[int],
    to_post_oth: List[int],
    read_row: Callable[[int, List[int]], List[float]],
    write: Callable[[int, int, float], None],
    cut: Optional[Tuple[float, float, float]] = None,
    deadline=None,
) -> int:
    """Unit-cost specialization of :func:`_region_py`.

    Delete and insert costs are constant-folded to 1 (so the table borders
    are plain index counts) and the rename term is an integer code equality
    compare instead of a cost-model call.  Every intermediate value is an
    integer-valued float64, evaluated exactly, so the produced distances are
    bit-identical to the general kernels under the unit cost model.
    ``cut`` arms the per-row early abort exactly as in :func:`_region_py`.
    """
    lml_f, lml_g = dec.lml, oth.lml
    lf, lg = lml_f[kf], lml_g[kg]
    rows = kf - lf + 2
    cols = kg - lg + 2

    # Same region-granular deadline amortization as :func:`_region_py`.
    row_deadline = None
    if deadline is not None:
        deadline.tick((rows - 1) * (cols - 1))
        if cols >= 64:
            row_deadline = deadline

    col_posts = to_post_oth[lg : kg + 1]

    fd: List[List[float]] = [[0.0] * cols for _ in range(rows)]
    for i in range(1, rows):
        fd[i][0] = float(i)
    first_row = fd[0]
    for j in range(1, cols):
        first_row[j] = float(j)

    for i in range(1, rows):
        node_f = lf + i - 1
        spans_f = lml_f[node_f] == lf
        code_f = codes_dec[node_f]
        node_f_post = to_post_dec[node_f]
        prev = fd[i - 1]
        row = fd[i]
        split_row = fd[lml_f[node_f] - lf]
        dist_row = None if spans_f else read_row(node_f_post, col_posts)
        for j in range(1, cols):
            node_g = lg + j - 1
            best = prev[j] + 1.0
            candidate = row[j - 1] + 1.0
            if candidate < best:
                best = candidate
            if spans_f and lml_g[node_g] == lg:
                candidate = prev[j - 1] + (0.0 if code_f == codes_oth[node_g] else 1.0)
                if candidate < best:
                    best = candidate
                row[j] = best
                write(node_f_post, col_posts[j - 1], best)
            else:
                if dist_row is None:
                    dist_row = read_row(node_f_post, col_posts)
                candidate = split_row[lml_g[node_g] - lg] + dist_row[j - 1]
                if candidate < best:
                    best = candidate
                row[j] = best
        if cut is not None:
            check_row_cutoff(row, cols, rows - 1 - i, cut[0], cut[1], slack=cut[2])
        if row_deadline is not None:
            row_deadline.tick(cols)

    return (rows - 1) * (cols - 1)


# --------------------------------------------------------------------------- #
# Public single-path functions
# --------------------------------------------------------------------------- #
def spf_L(
    tree_f: Tree,
    tree_g: Tree,
    v: Optional[int] = None,
    w: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    use_numpy: Optional[bool] = None,
    workspace=None,
) -> float:
    """Tree edit distance via the iterative left-path single-path function.

    Computes ``d(F_v, G_w)`` (whole trees by default) by decomposing both
    trees along left paths — the strategy of Zhang-L — entirely with
    iterative keyroot tables: no recursion is involved, so arbitrarily deep
    trees are handled without touching the interpreter recursion limit.
    """
    context = SinglePathContext(
        tree_f, tree_g, cost_model=cost_model, use_numpy=use_numpy, workspace=workspace
    )
    distance = context.run(
        SIDE_F, LEFT, tree_f.root if v is None else v, tree_g.root if w is None else w
    )
    context.release()
    return distance


def spf_R(
    tree_f: Tree,
    tree_g: Tree,
    v: Optional[int] = None,
    w: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    use_numpy: Optional[bool] = None,
    workspace=None,
) -> float:
    """Tree edit distance via the iterative right-path single-path function.

    The mirror image of :func:`spf_L` (the strategy of Zhang-R), executed in
    reverse-postorder coordinates instead of on mirrored tree copies.
    """
    context = SinglePathContext(
        tree_f, tree_g, cost_model=cost_model, use_numpy=use_numpy, workspace=workspace
    )
    distance = context.run(
        SIDE_F, RIGHT, tree_f.root if v is None else v, tree_g.root if w is None else w
    )
    context.release()
    return distance


def spf_H(
    tree_f: Tree,
    tree_g: Tree,
    v: Optional[int] = None,
    w: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    use_numpy: Optional[bool] = None,
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
        tree_f, tree_g, HEAVY, v=v, w=w, cost_model=cost_model,
        use_numpy=use_numpy, workspace=workspace,
    )


def spf_A(
    tree_f: Tree,
    tree_g: Tree,
    kind: str = HEAVY,
    v: Optional[int] = None,
    w: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    use_numpy: Optional[bool] = None,
    workspace=None,
) -> float:
    """Tree edit distance via the general inner-path single-path function.

    ``kind`` may be any path kind (``left``, ``right`` or ``heavy``): the
    chain/grid formulation does not depend on a keyroot coordinate system, so
    the same code executes all three.  For left/right paths this is the
    (slower, fully general) cross-check twin of :func:`spf_L` /
    :func:`spf_R`; for heavy paths it is the production implementation.
    """
    context = SinglePathContext(
        tree_f, tree_g, cost_model=cost_model, use_numpy=use_numpy, workspace=workspace
    )
    distance = context.run_inner(
        SIDE_F, kind, tree_f.root if v is None else v, tree_g.root if w is None else w
    )
    context.release()
    return distance
