"""Property tests for the small-pair program, its batch driver, and the
zero-copy shared corpus packs.

The contract under test is *bit-identity*: the Python twin
(:func:`repro.algorithms.batch_kernel.run_batch`), the C kernel
(:func:`repro.algorithms.native.native_batch`) and the shared-memory
multiprocessing fan-out (:mod:`repro.join.shared`) must reproduce the
per-pair kernel and the Zhang–Shasha oracle — values, subproblem counts and
bounded-abort decisions — exactly, with and without a cutoff, over ragged
batches of 2–64-node trees.
"""

import os
import subprocess
import sys

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms import make_algorithm
from repro.algorithms import native as native_mod
from repro.algorithms.base import CutoffExceeded
from repro.algorithms.batch_kernel import (
    build_corpus_pack,
    kernel_available,
    kernel_chunk_entries,
    run_batch,
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
from repro.algorithms.workspace import SMALL_PAIR_CUTOFF, TedWorkspace
from repro.algorithms.zhang_shasha import zhang_shasha_distance
from repro.costs import UnitCostModel, WeightedCostModel
from repro.datasets import perturb_tree, random_tree
from repro.exceptions import UnknownEngineError
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
    """Mixed 2–64-node trees plus oversized stragglers (> small-pair cutoff)."""
    trees = []
    for size in (2, 3, 5, 8, 12, 16, 24, 33, 48, 64):
        base = random_tree(size, rng=300 + size)
        trees.append(base)
        trees.append(perturb_tree(base, 1 + size % 4, rng=600 + size))
    trees.append(random_tree(80, rng=901))
    trees.append(random_tree(70, rng=902))
    return trees


def all_pairs(trees):
    return [(i, j) for i in range(len(trees)) for j in range(i + 1, len(trees))]


def scalar_entry(workspace, trees, i, j, cutoff):
    """The scalar reference tuple for one pair (the per-pair fast path)."""
    try:
        out = workspace.compute_small(trees[i], trees[j], cutoff=cutoff)
    except CutoffExceeded as exceeded:
        return (i, j, exceeded.lower_bound, exceeded.subproblems, True)
    assert out is not None, "reference pair unexpectedly ineligible"
    value, cells = out
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
        pack = build_corpus_pack(corpus, workspace.interner, workspace.small_pair_cutoff)

        def fallback(i, j):
            # Oversized pairs: same shape as the batch entries, via the
            # unbounded reference oracle (cells reported as 0 on purpose —
            # the test only reaches it for ineligible pairs).
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
            if corpus[i].n > reference.small_pair_cutoff or (
                corpus[j].n > reference.small_pair_cutoff
            ):
                continue  # fallback path, covered by its own tests
            expected = scalar_entry(reference, corpus, i, j, cutoff)
            assert entry == expected, (i, j, cutoff)

    @pytest.mark.parametrize("kernel", BATCH_KERNELS)
    def test_unbounded_values_match_zhang_shasha(self, corpus, pairs, kernel):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner, workspace.small_pair_cutoff)
        lanes = [
            (i, j) for i, j in pairs if pack.eligible[i] and pack.eligible[j]
        ]
        fi = [i for i, _ in lanes]
        gi = [j for _, j in lanes]
        values, cells, aborted = kernel(pack, pack, fi, gi)
        assert not aborted.any()
        for p, (i, j) in enumerate(lanes):
            distance, subproblems, _ = zhang_shasha_distance(
                corpus[i], corpus[j], UnitCostModel()
            )
            assert values[p] == distance
            assert cells[p] == subproblems

    @pytest.mark.parametrize("kernel", BATCH_KERNELS)
    def test_bounded_aborts_match_scalar_decisions(self, corpus, pairs, kernel):
        cutoff = 3.0
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner, workspace.small_pair_cutoff)
        lanes = [
            (i, j)
            for i, j in pairs
            if pack.eligible[i]
            and pack.eligible[j]
            and abs(corpus[i].n - corpus[j].n) < cutoff  # post-precheck lanes
        ]
        values, cells, aborted = kernel(
            pack, pack, [i for i, _ in lanes], [j for _, j in lanes], cutoff=cutoff
        )
        reference = TedWorkspace()
        seen_abort = seen_exact = False
        for p, (i, j) in enumerate(lanes):
            try:
                value, sub = reference.compute_small(corpus[i], corpus[j], cutoff=cutoff)
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
        pack = build_corpus_pack(corpus, workspace.interner, workspace.small_pair_cutoff)
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


class TestNativeBackend:
    """The C kernel vs its Python twin."""

    @pytest.mark.skipif(not native_available(), reason="no compiled provider")
    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_native_batch_bit_identical_to_twin(self, corpus, pairs, cutoff):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner, workspace.small_pair_cutoff)
        lanes = [
            (i, j)
            for i, j in pairs
            if pack.eligible[i]
            and pack.eligible[j]
            and (cutoff is None or abs(corpus[i].n - corpus[j].n) < cutoff)
        ]
        fi = [i for i, _ in lanes]
        gi = [j for _, j in lanes]
        out = native_batch(pack, pack, fi, gi, cutoff=cutoff)
        assert out is not None
        n_values, n_cells, n_aborted = out
        values, cells, aborted = run_batch(pack, pack, fi, gi, cutoff=cutoff)
        assert (n_values == values).all()
        assert (n_cells == cells).all()
        assert (n_aborted == aborted).all()

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_compute_small_same_with_and_without_provider(
        self, corpus, pairs, cutoff, monkeypatch
    ):
        def run_all(workspace):
            out = []
            for i, j in pairs[:120]:
                if max(corpus[i].n, corpus[j].n) > workspace.small_pair_cutoff:
                    continue
                try:
                    out.append(workspace.compute_small(corpus[i], corpus[j], cutoff=cutoff))
                except CutoffExceeded as exceeded:
                    out.append(("abort", exceeded.lower_bound, exceeded.subproblems))
            return out

        default_ws = TedWorkspace()
        default = run_all(default_ws)
        monkeypatch.setenv("RTED_NO_NATIVE", "1")
        twin_ws = TedWorkspace()
        assert run_all(twin_ws) == default
        assert twin_ws.stats.native_runs == 0
        assert twin_ws.stats.small_pair_runs == default_ws.stats.small_pair_runs
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
            value, cells = workspace.compute_small(f, g)
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
        pack = build_corpus_pack(corpus, workspace.interner, workspace.small_pair_cutoff)
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
            assert attached.small_pair_cutoff == pack.small_pair_cutoff
            # The attached pack is a working kernel input.
            values, cells, _ = run_batch(attached, attached, [0], [1])
            expected = TedWorkspace().compute_small(corpus[0], corpus[1])
            assert (values[0], cells[0]) == expected
        finally:
            handle.close()

    @pytest.mark.skipif(not shared_available(), reason="no shared memory")
    def test_handle_close_is_idempotent(self, corpus):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner, workspace.small_pair_cutoff)
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
    """Env knobs and the stats surface."""

    def test_small_pair_cutoff_env_override(self):
        code = (
            "from repro.algorithms.workspace import SMALL_PAIR_CUTOFF, TedWorkspace; "
            "print(SMALL_PAIR_CUTOFF, TedWorkspace().small_pair_cutoff)"
        )
        env = dict(os.environ, RTED_SMALL_PAIR_CUTOFF="24")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.split() == ["24", "24"]
        assert SMALL_PAIR_CUTOFF == 64  # this process keeps the default

    def test_small_pair_cutoff_env_invalid_falls_back(self):
        code = "from repro.algorithms.workspace import SMALL_PAIR_CUTOFF; print(SMALL_PAIR_CUTOFF)"
        env = dict(os.environ, RTED_SMALL_PAIR_CUTOFF="bogus")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.split() == ["64"]

    def test_verify_workers_reported(self, corpus):
        serial = batch_similarity_join(corpus, 4.0, workers=4)  # one-chunk survivors
        assert serial.stats.verify_workers == 1
        assert serial.stats.as_dict()["verify_workers"] == 1
        fanned = batch_similarity_join(corpus, 4.0, workers=3, chunk_size=4)
        assert fanned.stats.verify_workers >= 1
        assert JoinStats().verify_workers == 1

    def test_batch_lane_stats_counted(self, corpus, pairs):
        workspace = TedWorkspace()
        pack = build_corpus_pack(corpus, workspace.interner, workspace.small_pair_cutoff)
        lanes = [(i, j) for i, j in pairs if pack.eligible[i] and pack.eligible[j]]
        kernel_chunk_entries(
            pack, pack, lanes, None, None, workspace=workspace
        )
        assert workspace.stats.batch_lanes == len(lanes)
        assert workspace.stats.small_pair_runs == len(lanes)
