"""Amortized execution layer: reusable workspaces and corpus-level interning.

At corpus scale (similarity joins, one-vs-many queries, batch verification)
the exact TED spends much of its time *outside* the forest-distance
recurrence: every per-pair context rebuilds the coordinate frames, evaluates
the cost-model callables into per-node arrays and dense rename matrices, and
allocates a fresh NaN-initialized distance matrix.  All of that work depends
only on a *single tree* (frames, cost arrays), on the *label alphabet*
(rename tables) or on nothing at all (matrix buffers) — so a batch of pairs
over a corpus can pay for it once instead of once per pair.

:class:`TedWorkspace` is that shared state:

* **per-tree caches** — :class:`~repro.algorithms.spf._Frame` coordinate
  views, per-frame delete/insert cost arrays, postorder node-cost arrays,
  heavy-path equivalence flags and boundary-grid frames, all keyed on tree
  identity so repeated trees (self-joins, one-vs-many) never recompute them;
* **corpus-level label interning** — a shared :class:`LabelInterner` turns
  labels into dense integer codes; delete/insert/rename costs collapse into
  alphabet-sized tables evaluated once per (interner, cost model), and
  per-pair rename matrices become integer-code gathers instead of Python
  cost-model calls;
* **a pooled matrix allocator** — size-classed float64 buffers recycled
  across pairs, so the dense ``n × m`` distance matrix stops being a per-pair
  allocation;
* **a unit-cost fast path** — under the exact
  :class:`~repro.costs.UnitCostModel` the rename matrix is never built at all
  (kernels compare code arrays directly) and small pairs run through a flat
  single-function keyroot program (:meth:`TedWorkspace.compute_small`) that
  skips the strategy executor entirely.

Soundness / invalidation rule
-----------------------------
Every cached cost quantity (cost arrays, grid frames, the alphabet tables)
is derived from the workspace's cost model, so a workspace is **permanently
bound** to the cost model it was created with: :meth:`TedWorkspace.matches`
is the guard, :class:`WorkspaceTED` silently bypasses the workspace for
non-matching models (falling back to a fresh per-pair context — correct,
just not amortized), and the batch layer raises
:class:`~repro.exceptions.WorkspaceError` when an explicitly supplied
workspace disagrees with the join's cost model.  To switch cost models,
create a new workspace; the label interner (which is cost-independent) can be
shared between them.  Cost models must be pure functions of their label
arguments — the same assumption the per-pair rename-matrix interning in
:func:`repro.algorithms.spf_numpy.rename_matrix` already makes.

Bit-identity
------------
Workspace reuse never changes numerics: cached arrays hold exactly the
values a fresh context would recompute, kernel selection is unchanged, and
the unit-cost specializations only ever produce integer-valued float64
arithmetic (which every kernel evaluates exactly), so batch results are
bit-identical to fresh-context runs — the property-based test suite asserts
this with exact equality.
"""

from __future__ import annotations

from math import inf, nan
from typing import Dict, List, Optional, Tuple

from ..costs import CostModel, UnitCostModel
from ..exceptions import WorkspaceError
from ..runtime import active_deadline, as_deadline, deadline_scope, env_int
from ..trees.tree import LEFT, RIGHT, Tree
from .base import (
    BoundedResult,
    CutoffExceeded,
    Stopwatch,
    TEDAlgorithm,
    TEDResult,
    resolve_cost_model,
)
from .batch_kernel import band_width, small_pair_regions
from .native import native_small_pair
from .spf import _Frame, _GridFrame, _resolve_use_numpy

try:  # Optional accelerator, mirroring repro.algorithms.spf's import split.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None


class LabelInterner:
    """A growable corpus-level label dictionary: label → dense integer code.

    One interner can serve any number of trees, corpora and workspaces; codes
    are stable for the interner's lifetime (the dictionary only grows), so
    per-tree code arrays and alphabet-sized cost tables keyed on an interner
    stay valid as new trees arrive.  Trees with unhashable labels cannot be
    interned; :meth:`codes_postorder` reports them as ``None`` and callers
    fall back to the label-based paths.
    """

    def __init__(self) -> None:
        self._code_of: Dict[object, int] = {}
        self.labels: List[object] = []
        #: Cached postorder code arrays keyed on tree identity.  The tree is
        #: kept in the value so its ``id()`` cannot be recycled while cached.
        self._tree_codes: Dict[int, Tuple[Tree, Optional[List[int]]]] = {}

    def __len__(self) -> int:
        return len(self.labels)

    def code(self, label: object) -> int:
        """The (possibly new) integer code of ``label``.

        Raises ``TypeError`` for unhashable labels *and* for labels whose
        equality is non-reflexive (``label != label``, e.g. a NaN): dict
        lookup would equate such a label with itself by identity while the
        cost models compare with ``==``, so code equality would no longer
        agree with label equality and the unit-cost kernels would charge the
        wrong rename cost.  Callers treat the exception as "interning
        unavailable" and fall back to the label-based paths.
        """
        try:
            reflexive = bool(label == label)
        except Exception:  # e.g. array-valued comparisons
            reflexive = False
        if not reflexive:
            raise TypeError("cannot intern a label with non-reflexive equality")
        code = self._code_of.get(label)
        if code is None:
            code = self._code_of.setdefault(label, len(self._code_of))
            if code == len(self.labels):
                self.labels.append(label)
        return code

    #: Bound on the per-tree code-array cache; beyond it the cache resets (a
    #: pure cache — only amortization is lost, the code dictionary itself
    #: never shrinks, so codes stay stable).
    _MAX_CACHED_TREES = 4096

    def codes_postorder(self, tree: Tree) -> Optional[List[int]]:
        """Per-node label codes in postorder, or ``None`` for unhashable labels."""
        cached = self._tree_codes.get(id(tree))
        if cached is not None:
            return cached[1]
        if len(self._tree_codes) >= self._MAX_CACHED_TREES:
            self._tree_codes.clear()
        try:
            codes: Optional[List[int]] = [self.code(label) for label in tree.labels]
        except TypeError:
            codes = None
        self._tree_codes[id(tree)] = (tree, codes)
        return codes

    def forget_tree(self, tree: Tree) -> None:
        """Drop ``tree``'s cached code array (removal hygiene for live corpora).

        The code *dictionary* is untouched — codes stay stable for the
        interner's lifetime — but keeping the per-tree cache entry would pin
        a removed tree in memory for as long as the interner lives.  Called
        by :meth:`~repro.join.corpus.TreeCorpus.remove_trees`; a no-op for
        trees that were never interned.
        """
        self._tree_codes.pop(id(tree), None)


class WorkspaceStats:
    """Counters describing how much work the workspace amortized."""

    __slots__ = (
        "frame_hits",
        "frame_misses",
        "matrices_pooled",
        "matrices_allocated",
        "small_pair_runs",
        "batch_lanes",
        "native_runs",
        "bypasses",
    )

    def __init__(self) -> None:
        self.frame_hits = 0
        self.frame_misses = 0
        self.matrices_pooled = 0
        self.matrices_allocated = 0
        self.small_pair_runs = 0
        self.batch_lanes = 0
        self.native_runs = 0
        self.bypasses = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


#: Largest alphabet for which the dense rename table is built; beyond it the
#: K×K table would dominate the pairwise matrices it replaces and the
#: per-pair interning of :func:`repro.algorithms.spf_numpy.rename_matrix`
#: takes over.
MAX_DENSE_ALPHABET = 2048

#: Largest tree size (both sides) routed through the flat unit-cost
#: small-pair kernel.  Above it the region kernels (with their NumPy row
#: sweeps) win; below it the executor/task machinery dominates the actual DP.
#: Override with ``RTED_SMALL_PAIR_CUTOFF`` (mirroring ``RTED_MIN_VECTOR_COLS``)
#: on hardware where the crossover sits elsewhere; the default is set from
#: the sweep mode of ``benchmarks/bench_batch_kernel.py``.
SMALL_PAIR_CUTOFF = env_int("RTED_SMALL_PAIR_CUTOFF", 64, minimum=1)


def _finite_cutoff(cutoff: Optional[float]) -> Optional[float]:
    """``None`` for an infinite cutoff, which bounds nothing (every distance
    is finite) and which the banded small-pair programs cannot represent:
    the band width ``ceil(cutoff) - 1`` has no integer value."""
    return None if cutoff == inf else cutoff


class TedWorkspace:
    """Reusable cross-pair state for batch tree edit distance computation.

    Parameters
    ----------
    cost_model:
        The cost model this workspace is bound to (``None`` → unit costs).
        See the module docstring for the invalidation rule.
    interner:
        Optional shared :class:`LabelInterner` (e.g.
        :meth:`repro.join.corpus.TreeCorpus.interner`); a private one is
        created when omitted.
    use_numpy:
        Kernel selection, identical semantics to
        :class:`~repro.algorithms.spf.SinglePathContext`.
    small_pair_cutoff:
        Largest tree size handled by the unit-cost small-pair kernel.

    A workspace is not thread-safe; share it across pairs, not across
    threads.  Memory is proportional to the number of distinct trees touched
    (a few O(n) arrays per tree), bounded by a generation reset: once
    :data:`_MAX_CACHED_TREES` distinct trees are cached the per-tree caches
    are dropped wholesale and repopulate from the current working set (the
    interner's code *dictionary* is never reset, so codes stay stable in
    long-lived services).  :meth:`clear` drops everything explicitly.
    """

    _MAX_GRID_FRAMES = 64
    _MAX_POOLED_BUFFERS = 8
    _MAX_CACHED_TREES = 4096

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        interner: Optional[LabelInterner] = None,
        use_numpy: Optional[bool] = None,
        small_pair_cutoff: int = SMALL_PAIR_CUTOFF,
    ) -> None:
        self.cost_model = resolve_cost_model(cost_model)
        self.unit_cost = type(self.cost_model) is UnitCostModel
        self.interner = interner if interner is not None else LabelInterner()
        self.use_numpy = _resolve_use_numpy(use_numpy)
        self.small_pair_cutoff = small_pair_cutoff
        self.stats = WorkspaceStats()

        # Per-tree caches, keyed on id(tree); every value tuple starts with
        # the tree itself so the id cannot be recycled while cached.
        self._frames: Dict[Tuple[int, str], Tuple[Tree, _Frame]] = {}
        self._frame_costs: Dict[Tuple[int, str, str, bool], Tuple[Tree, object]] = {}
        self._frame_codes: Dict[Tuple[int, str, bool], Tuple[Tree, object]] = {}
        self._node_costs: Dict[Tuple[int, str], Tuple[Tree, List[float]]] = {}
        self._kind_equiv: Dict[int, Tuple[Tree, Tuple[List[bool], List[bool]]]] = {}
        self._grids: Dict[Tuple[int, int, str], Tuple[Tree, _GridFrame]] = {}
        self._small: Dict[int, Tuple[Tree, Optional[tuple]]] = {}
        #: Distinct trees currently covered by the caches (generation bound).
        self._seen_trees: Dict[int, Tree] = {}

        # Alphabet-sized cost tables (lazily built, grown with the interner).
        self._delete_table = None
        self._insert_table = None
        self._rename_table = None

        # Pooled float64 buffers for dense distance matrices, keyed by
        # power-of-two capacity class.
        self._matrix_pool: Dict[int, List[object]] = {}
        # Reusable flat distance buffer + forest-distance rows for the
        # small-pair kernel.
        self._small_D: List[float] = []
        self._small_fd: List[List[float]] = []

    # ------------------------------------------------------------------ #
    # Cost-model binding
    # ------------------------------------------------------------------ #
    def matches(self, cost_model: Optional[CostModel]) -> bool:
        """``True`` when ``cost_model`` resolves to this workspace's model."""
        resolved = resolve_cost_model(cost_model)
        if resolved is self.cost_model:
            return True
        return self.unit_cost and type(resolved) is UnitCostModel

    def require(self, cost_model: Optional[CostModel]) -> None:
        """Raise :class:`WorkspaceError` unless :meth:`matches` holds."""
        if not self.matches(cost_model):
            raise WorkspaceError(
                "workspace is bound to a different cost model; cached cost "
                "tables are only valid for the model the workspace was "
                "created with — create a new TedWorkspace for the new model"
            )

    # ------------------------------------------------------------------ #
    # Per-tree caches (the SinglePathContext delegation targets)
    # ------------------------------------------------------------------ #
    def _admit(self, tree: Tree) -> None:
        """Generation reset: drop the per-tree caches once they cover
        :data:`_MAX_CACHED_TREES` distinct trees, so a long-lived workspace
        (one-vs-many services) cannot grow without bound.  Purely a cache
        reset — in-flight contexts keep their own references, and the next
        access repopulates from the current working set."""
        if id(tree) not in self._seen_trees:
            if len(self._seen_trees) >= self._MAX_CACHED_TREES:
                self._frames.clear()
                self._frame_costs.clear()
                self._frame_codes.clear()
                self._node_costs.clear()
                self._kind_equiv.clear()
                self._grids.clear()
                self._small.clear()
                self._seen_trees.clear()
            self._seen_trees[id(tree)] = tree

    def frame(self, tree: Tree, kind: str) -> _Frame:
        """Cached coordinate frame for ``(tree, kind)``."""
        self._admit(tree)
        key = (id(tree), kind)
        cached = self._frames.get(key)
        if cached is not None:
            self.stats.frame_hits += 1
            return cached[1]
        self.stats.frame_misses += 1
        frame = _Frame(tree, kind)
        self._frames[key] = (tree, frame)
        return frame

    def frame_cost_array(
        self, tree: Tree, kind: str, operation: str, as_numpy: bool
    ):
        """Cached per-frame-id node costs (``"delete"`` or ``"insert"``)."""
        key = (id(tree), kind, operation, as_numpy)
        cached = self._frame_costs.get(key)
        if cached is not None:
            return cached[1]
        frame = self.frame(tree, kind)
        # Intern this tree's labels *before* fetching the table, so the table
        # covers any codes the tree just added to the alphabet.
        codes = self.frame_codes(tree, kind, as_numpy=False)
        table = self._cost_table(operation)
        if table is not None and codes is not None:
            costs: object = [table[c] for c in codes]
        else:
            fn = self.cost_model.delete if operation == "delete" else self.cost_model.insert
            costs = [fn(label) for label in frame.labels]
        if as_numpy:
            costs = _np.asarray(costs, dtype=_np.float64)
        self._frame_costs[key] = (tree, costs)
        return costs

    def frame_codes(self, tree: Tree, kind: str, as_numpy: bool):
        """Interned label codes in frame order, or ``None`` (unhashable labels)."""
        key = (id(tree), kind, as_numpy)
        cached = self._frame_codes.get(key)
        if cached is not None:
            return cached[1]
        post_codes = self.interner.codes_postorder(tree)
        if post_codes is None:
            codes: object = None
        elif kind == LEFT:
            codes = list(post_codes)
        else:
            codes = [post_codes[p] for p in tree.post_of_rpost()]
        if codes is not None and as_numpy:
            codes = _np.asarray(codes, dtype=_np.intp)
        self._frame_codes[key] = (tree, codes)
        return codes

    def node_costs(self, tree: Tree, operation: str) -> List[float]:
        """Cached per-node removal costs in plain postorder (inner paths)."""
        self._admit(tree)
        key = (id(tree), operation)
        cached = self._node_costs.get(key)
        if cached is not None:
            return cached[1]
        fn = self.cost_model.delete if operation == "delete" else self.cost_model.insert
        costs = [fn(label) for label in tree.labels]
        self._node_costs[key] = (tree, costs)
        return costs

    def kind_equivalences(self, tree: Tree) -> Tuple[List[bool], List[bool]]:
        """Cached heavy≡left / heavy≡right per-node flags (see spf)."""
        self._admit(tree)
        cached = self._kind_equiv.get(id(tree))
        if cached is not None:
            return cached[1]
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
        result = (eq_left, eq_right)
        self._kind_equiv[id(tree)] = (tree, result)
        return result

    def grid_frame(self, tree: Tree, root: int, operation: str) -> _GridFrame:
        """Cached boundary grid for ``(tree, root)``; LRU-bounded."""
        self._admit(tree)
        key = (id(tree), root, operation)
        cached = self._grids.pop(key, None)
        if cached is None:
            removal = self.cost_model.delete if operation == "delete" else self.cost_model.insert
            cached = (tree, _GridFrame(tree, root, removal))
            if len(self._grids) >= self._MAX_GRID_FRAMES:
                self._grids.pop(next(iter(self._grids)))
        self._grids[key] = cached
        return cached[1]

    # ------------------------------------------------------------------ #
    # Alphabet-sized cost tables
    # ------------------------------------------------------------------ #
    def _cost_table(self, operation: str) -> Optional[List[float]]:
        """Per-code delete/insert costs for the current alphabet."""
        size = len(self.interner)
        if size == 0 or size > MAX_DENSE_ALPHABET:
            return None
        table = self._delete_table if operation == "delete" else self._insert_table
        if table is None or len(table) < size:
            fn = self.cost_model.delete if operation == "delete" else self.cost_model.insert
            table = [fn(label) for label in self.interner.labels]
            if operation == "delete":
                self._delete_table = table
            else:
                self._insert_table = table
        return table

    def rename_table(self):
        """Dense ``K × K`` rename-cost table over the interned alphabet.

        ``table[code_a, code_b] == rename(label_a, label_b)``; rebuilt (and
        only then) when the alphabet has grown past the built size.  Returns
        ``None`` when NumPy is unavailable, for oversized alphabets, and for
        unit-cost workspaces (whose kernels compare code arrays instead).
        """
        if self.unit_cost or _np is None:
            return None
        size = len(self.interner)
        if size == 0 or size > MAX_DENSE_ALPHABET:
            return None
        table = self._rename_table
        if table is None or table.shape[0] < size:
            rename = self.cost_model.rename
            labels = self.interner.labels
            table = _np.empty((size, size), dtype=_np.float64)
            for i, label_a in enumerate(labels):
                row = table[i]
                for j, label_b in enumerate(labels):
                    row[j] = rename(label_a, label_b)
            self._rename_table = table
        return table

    # ------------------------------------------------------------------ #
    # Pooled distance matrices
    # ------------------------------------------------------------------ #
    def acquire_matrix(self, n: int, m: int):
        """A NaN-filled ``n × m`` float64 matrix backed by a pooled buffer."""
        needed = n * m
        capacity = 1
        while capacity < needed:
            capacity <<= 1
        bucket = self._matrix_pool.get(capacity)
        if bucket:
            buffer = bucket.pop()
            self.stats.matrices_pooled += 1
        else:
            buffer = _np.empty(capacity, dtype=_np.float64)
            self.stats.matrices_allocated += 1
        matrix = buffer[:needed].reshape(n, m)
        matrix.fill(nan)
        return matrix

    def release_matrix(self, matrix) -> None:
        """Return a matrix obtained from :meth:`acquire_matrix` to the pool."""
        buffer = matrix
        while buffer.base is not None:
            buffer = buffer.base
        bucket = self._matrix_pool.setdefault(buffer.size, [])
        if len(bucket) < self._MAX_POOLED_BUFFERS:
            bucket.append(buffer)

    # ------------------------------------------------------------------ #
    # Unit-cost small-pair fast path
    # ------------------------------------------------------------------ #
    def _small_arrays(self, tree: Tree) -> Optional[tuple]:
        self._admit(tree)
        cached = self._small.get(id(tree))
        if cached is not None:
            return cached[1]
        codes = self.interner.codes_postorder(tree)
        arrays = None if codes is None else (tree.lml, tree.keyroots_left(), codes)
        self._small[id(tree)] = (tree, arrays)
        return arrays

    def compute_small(
        self, tree_f: Tree, tree_g: Tree, cutoff: Optional[float] = None
    ) -> Optional[Tuple[float, int]]:
        """Exact unit-cost TED for a small pair, or ``None`` when inapplicable.

        The small-pair program (:mod:`repro.algorithms.batch_kernel`): a
        flat left-path keyroot sweep (the Zhang–Shasha recurrence) over
        cached per-tree arrays — no context, no executor, no per-region
        dispatch.  It runs in the C kernel when a compiled provider is
        present and in its Python twin over reused buffers otherwise.  Only
        unit-cost workspaces qualify — there every intermediate value is an
        integer-valued float64, so the result is bit-identical to every
        other kernel — and only pairs whose trees both fit
        :attr:`small_pair_cutoff`.  Returns ``(distance, cells)``
        with ``cells`` the number of forest-distance cells evaluated (the
        relevant subproblems of the executed left-path program).

        With ``cutoff`` the run is *τ-bounded* (``DESIGN.md``, *Bounded
        verification*): the size pre-check raises
        :class:`~repro.algorithms.base.CutoffExceeded` immediately, every
        region is restricted to its ``|i − j| < cutoff`` band (out-of-band
        cells provably hold ``≥ cutoff`` and are read as ``+inf``), the
        final region runs the per-row abort, and a banded result landing at
        or above the cutoff raises with the cutoff as the proving bound.
        Sub-cutoff results are bit-identical to unbounded runs — every cell
        whose true value is below the cutoff lies in the band and its
        minimum-winning candidate chain repeats the identical arithmetic.
        The gate order — unit-cost gate, size gate, bounded size pre-check
        *before* the code gate — is the one :func:`kernel_chunk_entries
        <repro.algorithms.batch_kernel.kernel_chunk_entries>` replicates.
        """
        if not self.unit_cost:
            return None
        n, m = tree_f.n, tree_g.n
        if n > self.small_pair_cutoff or m > self.small_pair_cutoff:
            return None
        cutoff = _finite_cutoff(cutoff)
        if cutoff is not None and abs(n - m) >= cutoff:
            raise CutoffExceeded(float(abs(n - m)))
        arrays_f = self._small_arrays(tree_f)
        arrays_g = self._small_arrays(tree_g)
        if arrays_f is None or arrays_g is None:
            return None
        # The C kernel has no deadline hook and the twin's row ticks are
        # amortized (a tiny pair may never reach a clock read), so settle
        # an already-blown budget before the sweep.
        deadline = active_deadline()
        if deadline is not None:
            deadline.check()
        self.stats.small_pair_runs += 1
        out = native_small_pair(arrays_f, n, arrays_g, m, cutoff)
        if out is not None:
            self.stats.native_runs += 1
            value, cells, aborted = out
            if aborted:
                exceeded = CutoffExceeded(value)
                exceeded.subproblems = cells
                raise exceeded
            return value, cells

        D = self._small_D
        if len(D) < n * m:
            D.extend([0.0] * (n * m - len(D)))
        fd = self._small_fd
        while len(fd) < n + 1:
            fd.append([0.0] * (self.small_pair_cutoff + 1))
        return small_pair_regions(
            n, m, cutoff, band_width(cutoff), *arrays_f, *arrays_g, D, fd, deadline,
        )

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every cache (per-tree artifacts, tables, pooled buffers)."""
        self._frames.clear()
        self._frame_costs.clear()
        self._frame_codes.clear()
        self._node_costs.clear()
        self._kind_equiv.clear()
        self._grids.clear()
        self._small.clear()
        self._seen_trees.clear()
        self._delete_table = None
        self._insert_table = None
        self._rename_table = None
        self._matrix_pool.clear()
        self._small_D = []
        self._small_fd = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TedWorkspace(cost_model={self.cost_model!r}, "
            f"alphabet={len(self.interner)}, trees={len(self._frames)})"
        )


#: ``extra["kernel"]`` of results produced by the small-pair program (the C
#: kernel or its Python twin — they are bit-identical, so the name does not
#: say which ran).
SMALL_PAIR_KERNEL = "small-pair"


def _small_pair_extra() -> dict:
    return {"workspace": "small-pair-unit", "kernel": SMALL_PAIR_KERNEL}


class WorkspaceTED(TEDAlgorithm):
    """Wrap any algorithm with a workspace-accelerated batch fast path.

    ``compute`` consults the workspace first: matching unit-cost small pairs
    run through :meth:`TedWorkspace.compute_small` (reporting the executed
    left-path program's subproblem count, ``extra["workspace"]`` and
    ``extra["kernel"] == SMALL_PAIR_KERNEL``);
    everything else — large pairs, fractional cost models, unhashable labels
    — delegates to the wrapped algorithm, which itself uses workspace-backed
    contexts when it supports them (RTED/GTED on the ``spf`` engine).  A
    cost model the workspace is not bound to bypasses it entirely, so the
    wrapper is always exact.
    """

    def __init__(self, inner: TEDAlgorithm, workspace: TedWorkspace) -> None:
        self.inner = inner
        self.workspace = workspace
        self.name = inner.name

    def compute(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel] = None,
        cutoff: Optional[float] = None,
        deadline=None,
    ) -> TEDResult:
        # The scope makes the deadline ambient (:mod:`repro.runtime`) so the
        # small-pair kernel and the wrapped algorithm's contexts pick it up
        # without needing a ``deadline`` keyword of their own.
        with deadline_scope(as_deadline(deadline)):
            return self._compute(tree_f, tree_g, cost_model, cutoff)

    def _compute(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel],
        cutoff: Optional[float],
    ) -> TEDResult:
        workspace = self.workspace
        if workspace.matches(cost_model):
            watch = Stopwatch()
            watch.start()
            try:
                small = workspace.compute_small(tree_f, tree_g, cutoff=cutoff)
            except CutoffExceeded as exceeded:
                return BoundedResult(
                    lower_bound=exceeded.lower_bound,
                    cutoff=cutoff,
                    algorithm=self.name,
                    aborted=True,
                    subproblems=exceeded.subproblems,
                    distance_time=watch.elapsed(),
                    n_f=tree_f.n,
                    n_g=tree_g.n,
                    extra=_small_pair_extra(),
                )
            if small is not None:
                # A bounded run that was not cut short is exact and below
                # the cutoff — compute_small raises for everything else.
                distance, cells = small
                return TEDResult(
                    distance=distance,
                    algorithm=self.name,
                    subproblems=cells,
                    distance_time=watch.elapsed(),
                    n_f=tree_f.n,
                    n_g=tree_g.n,
                    extra=_small_pair_extra(),
                )
        else:
            workspace.stats.bypasses += 1
        if cutoff is None:
            # Back-compat: registered factories may produce algorithms that
            # predate the ``cutoff`` keyword; only bounded calls require it.
            return self.inner.compute(tree_f, tree_g, cost_model=cost_model)
        return self.inner.compute(tree_f, tree_g, cost_model=cost_model, cutoff=cutoff)
