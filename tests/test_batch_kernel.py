"""Property tests for the small-pair program, its batch driver, and the
zero-copy shared corpus packs.

The contract under test is *bit-identity*: the Python twin
(:func:`repro.algorithms.batch_kernel.run_batch`), the C kernel
(:func:`repro.algorithms.native.native_batch`) and the shared-memory
multiprocessing fan-out (:mod:`repro.join.shared`) must reproduce the
per-pair kernel and the Zhang–Shasha oracle — values, subproblem counts and
bounded-abort decisions — exactly, with and without a cutoff, over ragged
batches of 2–120-node trees, in whichever sweep direction the cell gate
picks.
"""

import random

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
    kernel_available,
    kernel_chunk_entries,
    run_batch,
    sweep_sizes,
)
from repro.algorithms.native import (
    native_available,
    native_batch,
    native_provider,
    native_small_pair,
)

#: The two implementations of the small-pair program over pack lanes: the
#: Python twin always, the C kernel where a compiler is present.
BATCH_KERNELS = [
    pytest.param(run_batch, id="twin"),
    pytest.param(
        native_batch,
        id="native",
        marks=pytest.mark.skipif(not native_available(), reason="no compiled provider"),
    ),
]
from repro.algorithms.workspace import TedWorkspace
from repro.algorithms.zhang_shasha import zhang_shasha_distance
from repro.costs import UnitCostModel, WeightedCostModel
from repro.datasets import perturb_tree, random_tree
from repro.datasets.shapes import left_branch_tree, right_branch_tree, zigzag_tree
from repro.runtime import CancelToken, Deadline, deadline_scope
from repro.trees import Node, Tree
from repro.exceptions import ComputeTimeoutError, UnknownEngineError
from repro.join import (
    JoinStats,
    QueryEngine,
    TreeCorpus,
    attach_pack,
    batch_distances,
    batch_similarity_join,
    export_pack,
    shared_available,
)

CUTOFFS = [None, 2.0, 3.0, 4.5, 8.0]


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
            value, cells, _ = zhang_shasha_distance(
                corpus[i], corpus[j], UnitCostModel()
            )
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
        # Row t runs tree t's left sweep, row n_trees + t its right sweep:
        # Zhang-Shasha over the mirrored trees.
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
            f, g = corpus[i], corpus[j]
            if sweep == "right":
                f, g = f.mirrored(), g.mirrored()
            distance, subproblems, _ = zhang_shasha_distance(f, g, UnitCostModel())
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
                oracle = make_algorithm("zhang-l" if sweep == "left" else "zhang-r")
                reference = oracle.compute(f, g)
                assert out == (reference.distance, reference.subproblems, sweep)
        assert refused == 1  # the 88 × 90 zigzag pair
        assert 0 < workspace.stats.right_sweeps < workspace.stats.small_pair_runs

    def test_ties_keep_the_left_sweep(self):
        tree = random_tree(40, rng=5)
        left, right = gate_cells(tree, tree.mirrored())
        assert left == right
        workspace = TedWorkspace()
        value, cells, sweep = workspace.compute_small(tree, tree.mirrored())
        assert sweep == "left" and workspace.stats.right_sweeps == 0
        reference = make_algorithm("zhang-l").compute(tree, tree.mirrored())
        assert (value, cells) == (reference.distance, reference.subproblems)

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
                assert exceeded.sweep in ("left", "right")
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
    """The C kernel vs its Python twin."""

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
    def test_native_small_pair_direct(self, corpus):
        workspace = TedWorkspace()
        f, g = corpus[4], corpus[5]
        arrays_f = workspace._small_arrays(f)
        arrays_g = workspace._small_arrays(g)
        value, cells, aborted = native_small_pair(arrays_f, f.n, arrays_g, g.n, None)
        expected_value, expected_cells, _ = zhang_shasha_distance(f, g, UnitCostModel())
        assert (value, cells, aborted) == (expected_value, expected_cells, False)

    def test_kill_switch_disables_native(self, monkeypatch):
        monkeypatch.setenv("RTED_NO_NATIVE", "1")
        native_mod._reset_provider_cache()
        try:
            assert not native_available()
            assert native_provider() is None
            workspace = TedWorkspace()
            f, g = random_tree(10, rng=7), random_tree(11, rng=8)
            assert native_small_pair(
                workspace._small_arrays(f), f.n, workspace._small_arrays(g), g.n
            ) is None
            value, cells, _ = workspace.compute_small(f, g)
            assert (value, cells) == zhang_shasha_distance(f, g, UnitCostModel())[:2]
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


class TestSharedPack:
    """export_pack / attach_pack round-trip and lifecycle."""

    @pytest.mark.skipif(not shared_available(), reason="no shared memory")
    def test_round_trip_is_bit_identical(self, corpus):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner)
        exported = export_pack(pack)
        assert exported is not None
        handle, descriptor = exported
        try:
            attached = attach_pack(descriptor)
            assert attached is not None
            for field in pack.ARRAY_FIELDS:
                original = getattr(pack, field)
                view = getattr(attached, field)
                assert view.dtype == original.dtype and view.shape == original.shape
                assert (view == original).all()
                assert not view.flags.owndata  # zero-copy view over the block
            assert attached.n_trees == pack.n_trees
            # The attached pack is a working kernel input.
            row_f, row_g = gate_rows(attached, corpus, 0, 1)
            values, cells, _ = run_batch(attached, attached, [row_f], [row_g])
            expected = TedWorkspace().compute_small(corpus[0], corpus[1])
            assert (values[0], cells[0]) == expected[:2]
        finally:
            handle.close()

    @pytest.mark.skipif(not shared_available(), reason="no shared memory")
    def test_handle_close_is_idempotent(self, corpus):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner)
        handle, descriptor = export_pack(pack)
        handle.close()
        handle.close()  # second close must be a no-op
        assert attach_pack(descriptor) is None  # unlinked block: graceful miss


class TestBatchDistancesIdentity:
    """Serial vs multiprocessing vs shared-memory batch verification."""

    @pytest.mark.parametrize("cutoff", [None, 4.0])
    def test_serial_mp_and_kernel_modes_agree(self, corpus, pairs, cutoff):
        def normalize(entries):
            return sorted(tuple(entry) for entry in entries)

        serial = batch_distances(
            corpus, None, pairs, algorithm="rted", cutoff=cutoff
        )
        no_kernel = batch_distances(
            corpus, None, pairs, algorithm="rted", cutoff=cutoff, batch_kernel=False
        )
        mp_shared = batch_distances(
            corpus, None, pairs, algorithm="rted", cutoff=cutoff,
            workers=3, chunk_size=32,
        )
        assert normalize(serial) == normalize(no_kernel) == normalize(mp_shared)

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
            corpus, other, pair_list, algorithm="rted", batch_kernel=False
        )
        assert with_kernel == without

    def test_empty_pair_list(self, corpus):
        assert batch_distances(corpus, None, [], algorithm="rted") == []

    def test_join_matches_across_all_execution_modes(self, corpus):
        threshold = 4.0
        baseline = batch_similarity_join(corpus, threshold)
        variants = [
            batch_similarity_join(corpus, threshold, batch_kernel=False),
            batch_similarity_join(corpus, threshold, workers=3, chunk_size=16),
            batch_similarity_join(corpus, threshold, workspace=False),
            batch_similarity_join(corpus, threshold, engine="native"),
        ]
        for variant in variants:
            assert variant.match_set == baseline.match_set
            assert sorted(variant.matches) == sorted(baseline.matches)


class TestEveryPathRunsOneProgram:
    """Batch, query and join paths agree with and without the C kernel."""

    @staticmethod
    def _run(corpus, pairs, **options):
        def counts(stats):
            return {k: v for k, v in stats.as_dict().items() if not k.endswith("_time")}

        distances = {
            cutoff: sorted(
                batch_distances(
                    corpus, None, pairs, algorithm="rted", cutoff=cutoff, **options
                )
            )
            for cutoff in (None, 4.0)
        }
        engine = QueryEngine(TreeCorpus(list(corpus)), **options)
        queries = [engine.range_query(corpus[q], 4.0) for q in (0, 7, 19)]
        queries += [engine.knn(corpus[q], 5) for q in (3, 12, 20)]
        join = batch_similarity_join(corpus, 4.0, **options)
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

        spf = self._run(corpus, pairs, engine="spf", workspace=False)
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
        assert workspace.stats.batch_lanes == len(lanes)
        assert workspace.stats.small_pair_runs == len(lanes)
