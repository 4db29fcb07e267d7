"""Property tests for the small-pair program, its batch driver, and the
corpus packs handed to multiprocessing workers.

The contract under test is *bit-identity*: the Python lanes
(:func:`repro.algorithms.batch_kernel.run_batch`), the C kernel
(:func:`repro.algorithms.native.native_batch`) and the multiprocessing
fan-out over the parent's corpus packs must reproduce the
per-pair kernel and the Zhang–Shasha oracle (the ``zhang-l`` / ``zhang-r``
registry entries, GTED with the left/right-path strategy on the ``spf``
executor) — values, subproblem counts and bounded-abort decisions —
exactly, with and without a cutoff, over ragged batches of 2–120-node
trees, in whichever sweep direction the cell gate picks.  The Python lanes
run spf's scalar region kernel, so they are also checked against
``SimpleTED``, which shares no code with either.
"""

import pickle
import random
import sys
import threading

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms import make_algorithm
from repro.algorithms import batch_kernel as batch_kernel_mod
from repro.algorithms import native as native_mod
from repro.algorithms.base import CutoffExceeded
from repro.algorithms.batch_kernel import (
    SMALL_PAIR_CELLS,
    build_corpus_pack,
    choose_sweep,
    kernel_chunk_entries,
    run_batch,
    sweep_sizes,
)
from repro.algorithms.native import (
    native_available,
    native_batch,
    native_provider,
)

#: The two kernels of the small-pair program over pack lanes: the Python
#: lanes (id ``twin``, the C kernel's Python counterpart) always, the C
#: kernel where a compiler is present.
BATCH_KERNELS = [
    pytest.param(run_batch, id="twin"),
    pytest.param(
        native_batch,
        id="native",
        marks=pytest.mark.skipif(not native_available(), reason="no compiled provider"),
    ),
]
from repro.algorithms.workspace import TedWorkspace
from repro.costs import WeightedCostModel
from repro.datasets import perturb_tree, random_tree
from repro.datasets.shapes import left_branch_tree, right_branch_tree, zigzag_tree
from repro.runtime import CancelToken, Deadline, deadline_scope
from repro.trees import Node, Tree
from repro.exceptions import ComputeTimeoutError, UnknownEngineError
from repro.join import (
    JoinStats,
    QueryEngine,
    ExecutionReport,
    TreeCorpus,
    batch_distances,
    batch_similarity_join,
)

CUTOFFS = [None, 2.0, 3.0, 4.5, 8.0]

ZHANG = {"left": make_algorithm("zhang-l"), "right": make_algorithm("zhang-r")}


def zhang_reference(f, g, sweep="left"):
    """``(distance, cells)`` of the Zhang–Shasha sweep in ``sweep``'s direction."""
    result = ZHANG[sweep].compute(f, g)
    return result.distance, result.subproblems


def ragged_corpus():
    """Mixed 2–64-node trees plus larger random stragglers."""
    trees = []
    for size in (2, 3, 5, 8, 12, 16, 24, 33, 48, 64):
        base = random_tree(size, rng=300 + size)
        trees.append(base)
        trees.append(perturb_tree(base, 1 + size % 4, rng=600 + size))
    trees.append(random_tree(80, rng=901))
    trees.append(random_tree(70, rng=902))
    return trees


def _caterpillar(n, rng):
    """A right-leaning spine whose nodes each carry one leaf on the left."""
    labels = "abcd"
    node = Node(rng.choice(labels))
    size = 1
    while size + 2 <= n:
        node = Node(rng.choice(labels), [Node(rng.choice(labels)), node])
        size += 2
    if size < n:
        node = Node(rng.choice(labels), [node])
    return Tree(node)


def shape_corpus():
    """Ragged 2–120-node combs, zigzags, caterpillars and random trees.

    Left and right combs make the two sweeps' costs lopsided in both
    directions, zigzags keep them close, and the 88- and 90-node zigzags
    form a pair just over the cell budget on both sides.
    """
    rng = random.Random(1505)
    trees = []
    for size in (2, 9, 24, 47):
        trees.append(left_branch_tree(size, label=rng.choice("ab")))
        trees.append(right_branch_tree(size, label=rng.choice("ab")))
        trees.append(_caterpillar(size, rng))
        trees.append(random_tree(size, rng=1500 + size))
    trees += [right_branch_tree(120), _caterpillar(120, rng), zigzag_tree(88), zigzag_tree(90)]
    return trees


def gate_rows(pack, trees, i, j):
    """The pack rows of lane ``(i, j)`` in the direction the cell gate
    picks: ``(i, j)`` for the left sweep, the mirrored rows for the right."""
    sweep = choose_sweep(sweep_sizes(trees[i]), sweep_sizes(trees[j]), SMALL_PAIR_CELLS)
    shift = 0 if sweep == "left" else pack.n_trees
    return shift + i, shift + j


def all_pairs(trees):
    return [(i, j) for i in range(len(trees)) for j in range(i + 1, len(trees))]


def scalar_entry(workspace, trees, i, j, cutoff):
    """The scalar reference tuple for one pair (the per-pair fast path)."""
    try:
        out = workspace.compute_small(trees[i], trees[j], cutoff=cutoff)
    except CutoffExceeded as exceeded:
        return (i, j, exceeded.lower_bound, exceeded.subproblems, True)
    assert out is not None, "reference pair unexpectedly ineligible"
    value, cells, _ = out
    if cutoff is None:
        return (i, j, value, cells)
    return (i, j, value, cells, False)


def _per_pair_small_program():
    """A pre-built ``rted`` wrapped in a unit-cost workspace: batch layers
    run it pair by pair through :meth:`TedWorkspace.compute_small`, never
    through the batch kernel — the per-pair oracle of the batched lanes."""
    return make_algorithm("rted", workspace=TedWorkspace())


@pytest.fixture(scope="module")
def corpus():
    return ragged_corpus()


@pytest.fixture(scope="module")
def pairs(corpus):
    pair_list = all_pairs(corpus)
    assert len(pair_list) >= 200  # the suite's coverage floor
    return pair_list


class TestBatchKernelIdentity:
    """run_batch / kernel_chunk_entries vs the scalar kernel."""

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_chunk_entries_bit_identical_to_scalar(self, corpus, pairs, cutoff):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner)

        def fallback(i, j):
            # Pairs the gates refuse: same shape as the batch entries, via
            # the unbounded left-sweep oracle.
            value, cells = zhang_reference(corpus[i], corpus[j])
            if cutoff is None:
                return (i, j, value, cells)
            return (i, j, value, cells, value >= cutoff)

        entries = kernel_chunk_entries(
            pack, pack, pairs, cutoff, fallback, workspace=workspace
        )
        reference = TedWorkspace()
        for entry, (i, j) in zip(entries, pairs):
            expected = scalar_entry(reference, corpus, i, j, cutoff)
            assert entry == expected, (i, j, cutoff)

    @pytest.mark.parametrize("sweep", ["left", "right"])
    @pytest.mark.parametrize("kernel", BATCH_KERNELS)
    def test_unbounded_values_match_zhang_shasha(self, corpus, pairs, kernel, sweep):
        # Row t runs tree t's left sweep, row n_trees + t its right sweep
        # (the left sweep over the mirrored tree): zhang-l / zhang-r.
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner)
        shift = 0 if sweep == "left" else pack.n_trees
        lanes = [
            (i, j) for i, j in pairs if pack.eligible[i] and pack.eligible[j]
        ]
        fi = [shift + i for i, _ in lanes]
        gi = [shift + j for _, j in lanes]
        values, cells, aborted = kernel(pack, pack, fi, gi)
        assert not aborted.any()
        for p, (i, j) in enumerate(lanes):
            distance, subproblems = zhang_reference(corpus[i], corpus[j], sweep)
            assert values[p] == distance
            assert cells[p] == subproblems

    @pytest.mark.parametrize("kernel", BATCH_KERNELS)
    def test_bounded_aborts_match_scalar_decisions(self, corpus, pairs, kernel):
        cutoff = 3.0
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner)
        lanes = [
            (i, j)
            for i, j in pairs
            if pack.eligible[i]
            and pack.eligible[j]
            and abs(corpus[i].n - corpus[j].n) < cutoff  # post-precheck lanes
        ]
        rows = [gate_rows(pack, corpus, i, j) for i, j in lanes]
        values, cells, aborted = kernel(
            pack, pack, [i for i, _ in rows], [j for _, j in rows], cutoff=cutoff
        )
        reference = TedWorkspace()
        seen_abort = seen_exact = False
        for p, (i, j) in enumerate(lanes):
            try:
                value, sub, _ = reference.compute_small(corpus[i], corpus[j], cutoff=cutoff)
                assert not aborted[p]
                assert values[p] == value and cells[p] == sub
                seen_exact = True
            except CutoffExceeded as exceeded:
                assert aborted[p]
                assert values[p] == exceeded.lower_bound
                assert cells[p] == exceeded.subproblems
                seen_abort = True
        assert seen_abort and seen_exact  # both branches exercised

    @pytest.mark.parametrize("kernel", BATCH_KERNELS)
    def test_empty_batch_and_single_pair(self, corpus, kernel):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner)
        values, cells, aborted = kernel(pack, pack, [], [])
        assert values.size == 0 and cells.size == 0 and aborted.size == 0
        assert kernel_chunk_entries(pack, pack, [], None, None) == []
        (entry,) = kernel_chunk_entries(
            pack, pack, [(0, 1)], None, lambda i, j: pytest.fail("no fallback")
        )
        expected = scalar_entry(TedWorkspace(), corpus, 0, 1, None)
        assert entry == expected

    def test_non_unit_cost_model_stays_on_fallback(self, corpus):
        workspace = TedWorkspace(WeightedCostModel(1.0, 1.0, 2.0))
        assert workspace.compute_small(corpus[0], corpus[1]) is None


class TestPythonLanes:
    """run_batch shares spf's scalar region kernel, so it is checked
    against an oracle that shares nothing with either: ``SimpleTED``."""

    @pytest.mark.parametrize("cutoff", [None, 3.0])
    def test_left_and_mirrored_lanes_match_simple_ted(self, cutoff):
        # Sizes within 2 of each other pass the bounded size pre-check.
        rng = random.Random(2707)
        trees = []
        for _ in range(120):
            n = rng.randint(1, 14)
            m = min(14, max(1, n + rng.randint(-2, 2)))
            trees.append(random_tree(n, rng=rng, max_fanout=4, alphabet="abc"))
            trees.append(random_tree(m, rng=rng, max_fanout=4, alphabet="abc"))
        pack = build_corpus_pack(trees, TedWorkspace().interner)
        fi = list(range(0, len(trees), 2))
        gi = list(range(1, len(trees), 2))
        oracle = make_algorithm("simple")
        expected = [oracle.compute(trees[i], trees[j]).distance for i, j in zip(fi, gi)]
        assert cutoff is None or 0 < sum(d < cutoff for d in expected) < len(expected)
        for shift in (0, pack.n_trees):  # left rows, then mirrored rows
            values, _, aborted = run_batch(
                pack, pack, [shift + i for i in fi], [shift + j for j in gi], cutoff=cutoff
            )
            for value, abort, d in zip(values.tolist(), aborted.tolist(), expected):
                if cutoff is None or d < cutoff:
                    assert (value, abort) == (d, False)
                else:
                    assert (value, abort) == (cutoff, True)

    def test_cancel_stops_a_long_lane_mid_sweep(self, monkeypatch):
        # The lane ticks the deadline once per keyroot region (and per row
        # in regions at least 64 columns wide); cancelling halfway through
        # its regions must stop it before the rest run.
        f, g = zigzag_tree(100, label="a"), zigzag_tree(100, label="b")
        pack = build_corpus_pack([f, g], TedWorkspace().interner)
        total = len(f.keyroots_left()) * len(g.keyroots_left())
        token = CancelToken()
        regions = []
        region_py = batch_kernel_mod._region_py

        def counted(*args):
            regions.append(None)
            if len(regions) == total // 2:
                token.cancel()
            return region_py(*args)

        monkeypatch.setattr(batch_kernel_mod, "_region_py", counted)
        with deadline_scope(Deadline(token=token)):
            with pytest.raises(ComputeTimeoutError):
                run_batch(pack, pack, [0], [1])
        assert total // 2 <= len(regions) < total

    def test_lane_keeps_only_split_rows_alive(self):
        # A unary chain is one keyroot region whose only split row is row 0,
        # so the lane's peak is its NumPy ``D`` plus a few rows.  Keeping
        # every forest-distance row alive would add ``rows × cols`` Python
        # floats (about 5× ``D``) on top.
        import tracemalloc

        def chain(n, label):
            node = Node(label)
            for _ in range(n - 1):
                node = Node(label, [node])
            return Tree(node)

        n = 300
        pack = build_corpus_pack([chain(n, "a"), chain(n, "b")], TedWorkspace().interner)
        tracemalloc.start()
        try:
            values, cells, _ = run_batch(pack, pack, [0], [1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (values.tolist(), cells.tolist()) == ([float(n)], [n * n])
        assert peak < 2 * n * n * 8


@pytest.fixture(scope="module")
def shapes():
    return shape_corpus()


def gate_cells(f, g):
    """``(left, right)`` unbounded cell counts of the two sweeps."""
    (left_f, right_f), (left_g, right_g) = sweep_sizes(f), sweep_sizes(g)
    return left_f * left_g, right_f * right_g


class TestCellGate:
    """The cell gate and the sweep direction, per pair and per batch."""

    def test_admitted_pairs_run_the_cheaper_sweep(self, shapes):
        workspace = TedWorkspace()
        refused = 0
        for i, j in all_pairs(shapes):
            f, g = shapes[i], shapes[j]
            left, right = gate_cells(f, g)
            out = workspace.compute_small(f, g)
            if out is None:
                assert min(left, right) > SMALL_PAIR_CELLS
                refused += 1
                continue
            sweep = "left" if left <= right else "right"
            assert out[2] == sweep
            assert out[1] == min(left, right) <= SMALL_PAIR_CELLS
            if out[1] <= 50_000:  # keep the pure-Python oracle quick
                assert out == (*zhang_reference(f, g, sweep), sweep)
        assert refused == 1  # the 88 × 90 zigzag pair
        assert 0 < workspace.stats.right_sweeps < workspace.stats.small_pair_runs

    def test_ties_keep_the_left_sweep(self):
        tree = random_tree(40, rng=5)
        left, right = gate_cells(tree, tree.mirrored())
        assert left == right
        workspace = TedWorkspace()
        value, cells, sweep = workspace.compute_small(tree, tree.mirrored())
        assert sweep == "left" and workspace.stats.right_sweeps == 0
        assert (value, cells) == zhang_reference(tree, tree.mirrored())

    @pytest.mark.parametrize("cutoff", [None, 3.0, 10.0, float("inf")])
    def test_chunk_entries_match_compute_small(self, shapes, cutoff, kill_switch):
        pairs = all_pairs(shapes)
        workspace = TedWorkspace()
        pack = build_corpus_pack(shapes, workspace.interner)
        entries = kernel_chunk_entries(
            pack, pack, pairs, cutoff, lambda i, j: ("fallback", i, j),
            workspace=workspace,
        )
        reference = TedWorkspace()
        for entry, (i, j) in zip(entries, pairs):
            try:
                out = reference.compute_small(shapes[i], shapes[j], cutoff=cutoff)
            except CutoffExceeded as exceeded:
                assert exceeded.sweep == choose_sweep(
                    sweep_sizes(shapes[i]), sweep_sizes(shapes[j]), SMALL_PAIR_CELLS
                )
                expected = (i, j, exceeded.lower_bound, exceeded.subproblems, True)
            else:
                if out is None:
                    expected = ("fallback", i, j)
                elif cutoff is None:
                    expected = (i, j, *out[:2])
                else:
                    expected = (i, j, *out[:2], False)
            assert entry == expected, (i, j, cutoff)
        for name in ("small_pair_runs", "right_sweeps", "native_runs"):
            assert getattr(workspace.stats, name) == getattr(reference.stats, name)
        assert workspace.stats.right_sweeps > 0
        assert (workspace.stats.native_runs > 0) == (not kill_switch and native_available())

    def test_deadline_splits_chunk_into_budget_sized_calls(self, monkeypatch):
        # Under a deadline no kernel call sums more than SMALL_PAIR_CELLS,
        # and a deadline that expires during one call stops the chunk
        # before the next.  Each zigzag lane alone is over half the budget.
        trees = [
            zigzag_tree(76, label="a"), zigzag_tree(76, label="b"),
            random_tree(12, rng=1), random_tree(14, rng=2),
        ]
        pairs = [(0, 1), (2, 3), (1, 0), (3, 2), (0, 1)]
        big = min(gate_cells(trees[0], trees[1]))
        assert SMALL_PAIR_CELLS // 2 < big <= SMALL_PAIR_CELLS
        workspace = TedWorkspace()
        pack = build_corpus_pack(trees, workspace.interner)
        calls = []
        token = CancelToken()
        cancel_after = [None]

        def recorded(kernel):
            def run(pack_a, pack_b, fi, gi, cutoff=None):
                out = kernel(pack_a, pack_b, fi, gi, cutoff=cutoff)
                if out is not None:
                    calls.append(len(fi))
                    if len(calls) == cancel_after[0]:
                        token.cancel()
                return out
            return run

        monkeypatch.setattr(native_mod, "native_batch", recorded(native_mod.native_batch))
        monkeypatch.setattr(batch_kernel_mod, "run_batch", recorded(batch_kernel_mod.run_batch))

        def fallback(i, j):
            pytest.fail("no fallback")

        whole = kernel_chunk_entries(pack, pack, pairs, None, fallback)
        assert calls == [len(pairs)]  # no deadline: one call
        del calls[:]
        with deadline_scope(Deadline(token=token)):
            split = kernel_chunk_entries(pack, pack, pairs, None, fallback)
        assert split == whole
        assert calls == [2, 2, 1]  # (big, small), (big, small), (big)
        assert big + min(gate_cells(trees[2], trees[3])) <= SMALL_PAIR_CELLS
        del calls[:]
        cancel_after[0] = 1
        with deadline_scope(Deadline(token=token)):
            with pytest.raises(ComputeTimeoutError):
                kernel_chunk_entries(pack, pack, pairs, None, fallback)
        assert calls == [2]


class TestNativeBackend:
    """The C kernel vs the Python lanes."""

    @pytest.mark.skipif(not native_available(), reason="no compiled provider")
    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_native_batch_bit_identical_to_twin(self, corpus, pairs, cutoff):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner)
        lanes = [
            (i, j)
            for i, j in pairs
            if pack.eligible[i]
            and pack.eligible[j]
            and (cutoff is None or abs(corpus[i].n - corpus[j].n) < cutoff)
        ]
        rows = [gate_rows(pack, corpus, i, j) for i, j in lanes]
        assert any(i >= pack.n_trees for i, _ in rows)  # both directions run
        fi = [i for i, _ in rows]
        gi = [j for _, j in rows]
        out = native_batch(pack, pack, fi, gi, cutoff=cutoff)
        assert out is not None
        n_values, n_cells, n_aborted = out
        values, cells, aborted = run_batch(pack, pack, fi, gi, cutoff=cutoff)
        assert (n_values == values).all()
        assert (n_cells == cells).all()
        assert (n_aborted == aborted).all()

    @pytest.mark.skipif(not native_available(), reason="no compiled provider")
    @pytest.mark.parametrize("cutoff", [None, 3.0])
    def test_native_batch_split_is_bit_identical(self, shapes, cutoff, monkeypatch):
        # Lanes whose shared fd buffer would exceed the limit run in halves
        # (down to one lane per call) with the same results.
        workspace = TedWorkspace()
        pack = build_corpus_pack(shapes, workspace.interner)
        rows = [
            gate_rows(pack, shapes, i, j)
            for i, j in all_pairs(shapes)
            if min(gate_cells(shapes[i], shapes[j])) <= SMALL_PAIR_CELLS
            and (cutoff is None or abs(shapes[i].n - shapes[j].n) < cutoff)
        ]
        fi = [i for i, _ in rows]
        gi = [j for _, j in rows]
        whole = native_batch(pack, pack, fi, gi, cutoff=cutoff)
        monkeypatch.setattr(native_mod, "_SHARED_FD_ENTRIES", 1)
        split = native_batch(pack, pack, fi, gi, cutoff=cutoff)
        for got, want in zip(split, whole):
            assert (got == want).all()

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_compute_small_same_with_and_without_provider(
        self, corpus, pairs, cutoff, monkeypatch
    ):
        def run_all(workspace):
            out = []
            for i, j in pairs[:120]:
                try:
                    out.append(workspace.compute_small(corpus[i], corpus[j], cutoff=cutoff))
                except CutoffExceeded as exceeded:
                    out.append(
                        ("abort", exceeded.lower_bound, exceeded.subproblems, exceeded.sweep)
                    )
            return out

        default_ws = TedWorkspace()
        default = run_all(default_ws)
        monkeypatch.setenv("RTED_NO_NATIVE", "1")
        twin_ws = TedWorkspace()
        assert run_all(twin_ws) == default
        assert twin_ws.stats.native_runs == 0
        assert twin_ws.stats.small_pair_runs == default_ws.stats.small_pair_runs
        assert twin_ws.stats.right_sweeps == default_ws.stats.right_sweeps > 0
        if native_available():
            assert default_ws.stats.native_runs == default_ws.stats.small_pair_runs > 0

    @pytest.mark.skipif(not native_available(), reason="no compiled provider")
    @pytest.mark.parametrize("sweep, row", [("left", 0), ("right", 1)])
    def test_native_small_pair_direct(self, corpus, sweep, row):
        # A single pair through native_batch: the workspace's cached
        # one-tree packs, lane (0, 0) for the left sweep and the mirrored
        # rows (1, 1) for the right one.
        workspace = TedWorkspace()
        f, g = corpus[4], corpus[5]
        pack_f = workspace._tree_pack(f)
        pack_g = workspace._tree_pack(g)
        values, cells, aborted = native_batch(pack_f, pack_g, [row], [row], None)
        value, cells, aborted = float(values[0]), int(cells[0]), bool(aborted[0])
        expected_value, expected_cells = zhang_reference(f, g, sweep)
        assert (value, cells, aborted) == (expected_value, expected_cells, False)

    @pytest.mark.parametrize("trees", ["one", "corpus"])
    def test_pack_addresses_are_its_row_views(self, corpus, trees):
        # addresses() derives the row addresses from the block's; they must
        # be exactly the addresses of the row views the pack exposes.
        if trees == "one":
            pack = TedWorkspace()._tree_pack(corpus[4])
        else:
            pack = build_corpus_pack(corpus, TedWorkspace().interner)
        views = [getattr(pack, name) for name in pack._ROW_FIELDS]
        assert all(view.base is pack.block for view in views)
        assert pack.addresses() == tuple(view.ctypes.data for view in views)

    @pytest.mark.skipif(not native_available(), reason="no compiled provider")
    def test_concurrent_calls_share_no_buffer(self, corpus, pairs):
        # ctypes releases the GIL, so threads can be inside the kernel at
        # once over one pack; each call must own its scratch.  More threads
        # than cores and a short switch interval make overlaps likely.
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner)
        lanes = [
            gate_rows(pack, corpus, i, j)
            for i, j in pairs
            if pack.eligible[i] and pack.eligible[j]
        ]
        threads = 4
        shares = [lanes[side::threads] for side in range(threads)]
        assert min(len(share) for share in shares) >= 50

        def run(share):
            out = native_batch(pack, pack, [i for i, _ in share], [j for _, j in share])
            return [a.tolist() for a in out]

        serial = [run(share) for share in shares]
        barrier = threading.Barrier(threads)
        results = [[] for _ in range(threads)]

        def worker(side):
            barrier.wait()
            for _ in range(20):
                results[side].append(run(shares[side]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(side,)) for side in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        for side in range(threads):
            assert results[side] == [serial[side]] * 20

    def test_kill_switch_disables_native(self, monkeypatch):
        monkeypatch.setenv("RTED_NO_NATIVE", "1")
        native_mod._reset_provider_cache()
        try:
            assert not native_available()
            assert native_provider() is None
            workspace = TedWorkspace()
            f, g = random_tree(10, rng=7), random_tree(11, rng=8)
            pack_f = workspace._tree_pack(f)
            pack_g = workspace._tree_pack(g)
            assert native_batch(pack_f, pack_g, [0], [0]) is None
            assert native_batch(pack_f, pack_g, [1], [1]) is None
            value, cells, _ = workspace.compute_small(f, g)
            assert (value, cells) == zhang_reference(f, g)
            assert workspace.stats.native_runs == 0
        finally:
            monkeypatch.delenv("RTED_NO_NATIVE")
            native_mod._reset_provider_cache()

    def test_engine_native_matches_spf_with_workspace(self, corpus):
        # The fair identity: engine="native" implies the workspace layer, so
        # it is compared against spf *with* a workspace (same amortization).
        def signature(result):
            if result.bounded:
                return ("B", result.lower_bound, result.aborted, result.subproblems)
            return ("D", result.distance, result.subproblems)

        for name in ("rted", "zhang-l", "klein-h"):
            native_algo = make_algorithm(name, engine="native")
            spf_algo = make_algorithm(name, engine="spf", workspace=TedWorkspace())
            for i, j in [(0, 1), (10, 11), (18, 19), (20, 21), (1, 20)]:
                for cutoff in (None, 3.0):
                    kwargs = {} if cutoff is None else {"cutoff": cutoff}
                    got = native_algo.compute(corpus[i], corpus[j], **kwargs)
                    expected = spf_algo.compute(corpus[i], corpus[j], **kwargs)
                    assert signature(got) == signature(expected), (name, i, j, cutoff)

    def test_engine_native_error_semantics_preserved(self):
        with pytest.raises(UnknownEngineError):
            make_algorithm("simple", engine="native")
        with pytest.raises(UnknownEngineError):
            make_algorithm("rted", engine="compiled")


class TestPackPickling:
    """Under ``spawn`` and ``forkserver`` a pack reaches workers pickled."""

    #: Every array field of a pack, all views into its block.
    FIELDS = (
        "block", "sweep_l", "sweep_r", "eligible", "sizes", "node_off", "kr_off",
        "kr_count", "lml_flat", "codes_flat", "kroots",
    )

    @pytest.mark.parametrize("trees", ["one", "corpus"])
    def test_round_trip_is_its_block(self, corpus, trees):
        if trees == "one":
            pack = TedWorkspace()._tree_pack(corpus[0])
            other = TedWorkspace()._tree_pack(corpus[1])
            lanes = [(0, 0), (1, 1)]  # the left sweep, then the right one
            pairs = [(0, 0)]
        else:
            pack = other = build_corpus_pack(corpus, TedWorkspace().interner)
            lanes = [(0, 1), (pack.n_trees, pack.n_trees + 1)]
            pairs = [(0, 1)]
        clone = pickle.loads(pickle.dumps(pack))
        assert clone is not pack
        assert pack._gate is not None and clone._gate is None  # caches stay behind
        assert clone.n_trees == pack.n_trees
        assert clone.block.flags.c_contiguous and clone.block.dtype == np.int64
        for name in self.FIELDS:
            original, copied = getattr(pack, name), getattr(clone, name)
            assert copied.dtype == original.dtype, name
            assert copied.shape == original.shape, name
            assert (copied == original).all(), name
            if name not in ("block", "eligible"):
                assert copied.base is clone.block, name
        assert clone.gate_rows() == pack.gate_rows()
        # The unpickled pack is a working kernel input, in both directions.
        other_clone = clone if other is pack else pickle.loads(pickle.dumps(other))
        for row_f, row_g in lanes:
            got = run_batch(clone, other_clone, [row_f], [row_g])
            want = run_batch(pack, other, [row_f], [row_g])
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
        (entry,) = kernel_chunk_entries(clone, other_clone, pairs, None, None)
        assert entry[2:] == TedWorkspace().compute_small(corpus[0], corpus[1])[:2]

    @pytest.mark.skipif(not native_available(), reason="no compiled provider")
    @pytest.mark.parametrize("cutoff", [None, 3.0])
    def test_round_trip_drops_the_address_cache(self, corpus, pairs, cutoff):
        pack = build_corpus_pack(corpus, TedWorkspace().interner)
        lanes = [
            gate_rows(pack, corpus, i, j)
            for i, j in pairs[:150]
            if pack.eligible[i]
            and pack.eligible[j]
            and (cutoff is None or abs(corpus[i].n - corpus[j].n) < cutoff)
        ]
        fi = [i for i, _ in lanes]
        gi = [j for _, j in lanes]
        original = native_batch(pack, pack, fi, gi, cutoff=cutoff)
        assert pack._addresses is not None  # cached by the call
        clone = pickle.loads(pickle.dumps(pack))
        assert clone._addresses is None
        copied = native_batch(clone, clone, fi, gi, cutoff=cutoff)
        assert clone.addresses() != pack.addresses()
        for got, want in zip(copied, original):
            assert got.tolist() == want.tolist()


class TestBatchDistancesIdentity:
    """Serial vs multiprocessing batch verification."""

    @pytest.mark.parametrize("cutoff", [None, 4.0])
    def test_serial_mp_and_kernel_modes_agree(self, corpus, pairs, cutoff):
        def normalize(entries):
            return sorted(tuple(entry) for entry in entries)

        serial = batch_distances(
            corpus, None, pairs, algorithm="rted", cutoff=cutoff
        )
        # A pre-built instance runs per pair (no batch kernel): the
        # workspace-wrapped one through TedWorkspace.compute_small.
        no_kernel = batch_distances(
            corpus, None, pairs, algorithm=_per_pair_small_program(), cutoff=cutoff
        )
        report = ExecutionReport()
        mp_packed = batch_distances(
            corpus, None, pairs, algorithm="rted", cutoff=cutoff,
            workers=3, chunk_size=32, exec_report=report,
        )
        assert normalize(serial) == normalize(no_kernel) == normalize(mp_packed)
        assert report.rungs_used == ["local-pack"]

        # Cross batch over corpora with separate interners: workers get
        # side b's pack built against side a's interner.
        other = TreeCorpus(
            [perturb_tree(tree, 2, rng=700 + k) for k, tree in enumerate(corpus)]
        )
        cross = [(i, j) for i in range(len(corpus)) for j in range(len(other))]
        cross_serial = batch_distances(
            corpus, other, cross, algorithm="rted", cutoff=cutoff
        )
        cross_report = ExecutionReport()
        cross_mp = batch_distances(
            corpus, other, cross, algorithm="rted", cutoff=cutoff,
            workers=3, chunk_size=32, exec_report=cross_report,
        )
        assert normalize(cross_serial) == normalize(cross_mp)
        assert cross_report.rungs_used == ["local-pack"]

    def test_engine_native_batch_agrees(self, corpus, pairs):
        baseline = batch_distances(corpus, None, pairs, algorithm="rted")
        native = batch_distances(corpus, None, pairs, algorithm="rted", engine="native")
        assert sorted(baseline) == sorted(native)

    def test_cross_corpus_kernel_agrees(self, corpus):
        other = [random_tree(size, rng=40 + size) for size in (4, 9, 13, 21, 35)]
        pair_list = [
            (i, j) for i in range(len(corpus)) for j in range(len(other))
        ]
        with_kernel = batch_distances(corpus, other, pair_list, algorithm="rted")
        without = batch_distances(
            corpus, other, pair_list, algorithm=_per_pair_small_program()
        )
        assert with_kernel == without

    def test_empty_pair_list(self, corpus):
        assert batch_distances(corpus, None, [], algorithm="rted") == []

    def test_join_matches_across_all_execution_modes(self, corpus):
        threshold = 4.0
        baseline = batch_similarity_join(corpus, threshold)
        variants = [
            batch_similarity_join(corpus, threshold, algorithm=_per_pair_small_program()),
            batch_similarity_join(corpus, threshold, workers=3, chunk_size=16),
            batch_similarity_join(corpus, threshold, algorithm=make_algorithm("rted")),
            batch_similarity_join(corpus, threshold, engine="native"),
        ]
        for variant in variants:
            assert variant.match_set == baseline.match_set
            assert sorted(variant.matches) == sorted(baseline.matches)


class TestEveryPathRunsOneProgram:
    """Batch, query and join paths agree with and without the C kernel."""

    @staticmethod
    def _run(corpus, pairs, algorithm="rted"):
        def counts(stats):
            return {k: v for k, v in stats.as_dict().items() if not k.endswith("_time")}

        distances = {
            cutoff: sorted(
                batch_distances(
                    corpus, None, pairs, algorithm=algorithm, cutoff=cutoff
                )
            )
            for cutoff in (None, 4.0)
        }
        engine = QueryEngine(TreeCorpus(list(corpus)), algorithm=algorithm)
        queries = [engine.range_query(corpus[q], 4.0) for q in (0, 7, 19)]
        queries += [engine.knn(corpus[q], 5) for q in (3, 12, 20)]
        join = batch_similarity_join(corpus, 4.0, algorithm=algorithm)
        return {
            "distances": distances,
            "queries": [(q.matches, counts(q.stats)) for q in queries],
            "join": (sorted(join.matches), counts(join.stats)),
        }

    def test_default_engine_identical_without_provider_and_to_spf(
        self, corpus, pairs, monkeypatch
    ):
        default = self._run(corpus, pairs)
        monkeypatch.setenv("RTED_NO_NATIVE", "1")
        assert self._run(corpus, pairs) == default
        monkeypatch.delenv("RTED_NO_NATIVE")

        # A pre-built instance runs exactly as configured: Algorithm 2 plus
        # the spf executor on every pair, with fresh per-pair contexts.
        spf = self._run(corpus, pairs, algorithm=make_algorithm("rted", engine="spf"))
        # The spf executor runs RTED's strategy, so subproblem counts and
        # bounds differ; exact distances and every answer must not.
        assert [e[:3] for e in spf["distances"][None]] == [
            e[:3] for e in default["distances"][None]
        ]

        def below(entries, tau):
            return [(i, j, d) for i, j, d, *_ in entries if d < tau]

        assert below(spf["distances"][4.0], 4.0) == below(default["distances"][4.0], 4.0)
        assert [m for m, _ in spf["queries"]] == [m for m, _ in default["queries"]]
        assert spf["join"][0] == default["join"][0]


class TestConfiguration:
    """The stats surface."""

    def test_verify_workers_reported(self, corpus):
        serial = batch_similarity_join(corpus, 4.0, workers=4)  # one-chunk survivors
        assert serial.stats.verify_workers == 1
        assert serial.stats.as_dict()["verify_workers"] == 1
        fanned = batch_similarity_join(corpus, 4.0, workers=3, chunk_size=4)
        assert fanned.stats.verify_workers >= 1
        assert JoinStats().verify_workers == 1

    def test_batch_lane_stats_counted(self, corpus, pairs):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner)
        lanes = [(i, j) for i, j in pairs if pack.eligible[i] and pack.eligible[j]]
        kernel_chunk_entries(
            pack, pack, lanes, None, None, workspace=workspace
        )
        assert workspace.stats.small_pair_runs == len(lanes)
