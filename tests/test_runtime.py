"""Tests for the runtime layer: deadlines, cancellation, env hardening.

The deadline contract under test:

* **bit-identity** — an armed deadline that never fires changes nothing:
  results (distance *and* subproblem counts) are identical to no-deadline
  runs across engines, cost models and execution modes;
* **promptness** — every engine detects expiry within a small multiple of
  the check interval, even on adversarially large pairs;
* **cleanliness** — a deadline that kills a supervised fan-out leaves no
  worker processes behind, and the batch layer keeps working afterwards.
"""

import multiprocessing
import threading
import time

import pytest

from repro.api import compute, tree_edit_distance
from repro.costs import UnitCostModel, WeightedCostModel
from repro.datasets import random_tree
from repro.exceptions import ComputeTimeoutError, ReproError
from repro.join import batch_distances
from repro.join.supervisor import ExecutionPolicy
from repro.runtime import (
    CancelToken,
    Deadline,
    active_deadline,
    as_deadline,
    deadline_scope,
    env_flag,
    env_float,
    env_int,
)

#: Generous wall-clock ceiling for "prompt" detection of a ~50 ms budget:
#: orders of magnitude below the uninterrupted run time of the adversarial
#: pairs (seconds), loose enough for a loaded CI machine.
PROMPT_SECONDS = 1.5


# --------------------------------------------------------------------------- #
# Hardened environment parsing
# --------------------------------------------------------------------------- #
class TestEnvParsing:
    def test_unset_returns_default_silently(self, monkeypatch, recwarn):
        monkeypatch.delenv("RTED_TEST_VAR", raising=False)
        assert env_int("RTED_TEST_VAR", 7) == 7
        assert env_float("RTED_TEST_VAR", 1.5) == 1.5
        assert env_flag("RTED_TEST_VAR", True) is True
        assert not recwarn.list

    def test_empty_returns_default_silently(self, monkeypatch, recwarn):
        monkeypatch.setenv("RTED_TEST_VAR", "  ")
        assert env_int("RTED_TEST_VAR", 7) == 7
        assert env_flag("RTED_TEST_VAR") is False
        assert not recwarn.list

    def test_valid_values_parse(self, monkeypatch):
        monkeypatch.setenv("RTED_TEST_VAR", "42")
        assert env_int("RTED_TEST_VAR") == 42
        monkeypatch.setenv("RTED_TEST_VAR", "2.5")
        assert env_float("RTED_TEST_VAR") == 2.5
        for word, expected in [("1", True), ("YES", True), ("off", False), ("0", False)]:
            monkeypatch.setenv("RTED_TEST_VAR", word)
            assert env_flag("RTED_TEST_VAR") is expected

    def test_malformed_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("RTED_TEST_VAR", "abc")
        with pytest.warns(RuntimeWarning, match="RTED_TEST_VAR"):
            assert env_int("RTED_TEST_VAR", 3) == 3
        with pytest.warns(RuntimeWarning):
            assert env_float("RTED_TEST_VAR", 0.5) == 0.5
        with pytest.warns(RuntimeWarning):
            assert env_flag("RTED_TEST_VAR", True) is True

    def test_bounds_rejected_with_warning(self, monkeypatch):
        monkeypatch.setenv("RTED_TEST_VAR", "-4")
        with pytest.warns(RuntimeWarning, match=">= 0"):
            assert env_int("RTED_TEST_VAR", 2, minimum=0) == 2
        monkeypatch.setenv("RTED_TEST_VAR", "0")
        with pytest.warns(RuntimeWarning, match="positive"):
            assert env_float("RTED_TEST_VAR", 1.0, positive=True) == 1.0
        monkeypatch.setenv("RTED_TEST_VAR", "nan")
        with pytest.warns(RuntimeWarning):
            assert env_float("RTED_TEST_VAR", 1.0) == 1.0

    def test_malformed_chunk_timeout_falls_back(self, monkeypatch):
        """The ISSUE's canonical case: RTED_CHUNK_TIMEOUT=abc must not raise."""
        monkeypatch.setenv("RTED_CHUNK_TIMEOUT", "abc")
        monkeypatch.setenv("RTED_CHUNK_RETRIES", "many")
        with pytest.warns(RuntimeWarning):
            policy = ExecutionPolicy.default()
        assert policy.chunk_timeout is None
        assert policy.max_chunk_retries == 3

    def test_valid_chunk_policy_env(self, monkeypatch):
        monkeypatch.setenv("RTED_CHUNK_TIMEOUT", "2.5")
        monkeypatch.setenv("RTED_CHUNK_RETRIES", "5")
        policy = ExecutionPolicy.default()
        assert policy.chunk_timeout == 2.5
        assert policy.max_chunk_retries == 5

    def test_native_kill_switch_malformed(self, monkeypatch):
        from repro.algorithms.native import KILL_SWITCH, _killed

        monkeypatch.setenv(KILL_SWITCH, "abc")
        with pytest.warns(RuntimeWarning):
            assert _killed() is False
        monkeypatch.setenv(KILL_SWITCH, "1")
        assert _killed() is True


# --------------------------------------------------------------------------- #
# Deadline / CancelToken primitives
# --------------------------------------------------------------------------- #
class TestDeadlinePrimitives:
    def test_unexpired_deadline_passes_checks(self):
        deadline = Deadline(60.0)
        deadline.check()
        for _ in range(10_000):
            deadline.tick()
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60.0

    def test_expired_deadline_raises(self):
        deadline = Deadline(-1.0)
        assert deadline.expired()
        with pytest.raises(ComputeTimeoutError, match="deadline exceeded"):
            deadline.check()

    def test_token_only_deadline_never_times_out(self):
        token = CancelToken()
        deadline = Deadline(token=token)
        assert deadline.remaining() == float("inf")
        deadline.check()
        token.cancel()
        assert deadline.expired()
        with pytest.raises(ComputeTimeoutError, match="cancelled"):
            deadline.check()

    def test_tick_interval_adapts_upward(self):
        deadline = Deadline(60.0)
        start = deadline.interval
        for _ in range(1 << 14):
            deadline.tick()
        assert deadline.interval > start

    def test_as_deadline_coercion(self):
        assert as_deadline(None) is None
        deadline = Deadline(1.0)
        assert as_deadline(deadline) is deadline
        assert isinstance(as_deadline(2.5), Deadline)
        with pytest.raises(ReproError):
            as_deadline("soon")
        with pytest.raises(ReproError):
            as_deadline(True)

    def test_scope_install_and_restore(self):
        assert active_deadline() is None
        outer, inner = Deadline(60.0), Deadline(30.0)
        with deadline_scope(outer):
            assert active_deadline() is outer
            # None is a no-op that preserves the outer scope (nested library
            # calls inherit the caller's budget).
            with deadline_scope(None):
                assert active_deadline() is outer
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_scope_is_thread_local(self):
        seen = {}
        with deadline_scope(Deadline(60.0)):
            thread = threading.Thread(
                target=lambda: seen.setdefault("other", active_deadline())
            )
            thread.start()
            thread.join()
        assert seen["other"] is None


# --------------------------------------------------------------------------- #
# Bit-identity: an armed, never-firing deadline changes nothing
# --------------------------------------------------------------------------- #
COST_MODELS = [
    UnitCostModel(),
    WeightedCostModel(delete_cost=0.7, insert_cost=0.7, rename_cost=0.4),
]
ENGINE_IDS = ["auto", "spf", "native", "recursive"]


class TestBitIdentity:
    @pytest.mark.parametrize("cost_model", COST_MODELS, ids=lambda cm: type(cm).__name__)
    @pytest.mark.parametrize("engine", ENGINE_IDS)
    def test_compute_identical_with_generous_deadline(self, engine, cost_model):
        for seed in range(4):
            f = random_tree(40, rng=seed)
            g = random_tree(40, rng=seed + 100)
            plain = compute(f, g, engine=engine, cost_model=cost_model)
            armed = compute(f, g, engine=engine, cost_model=cost_model, deadline=600.0)
            assert armed.distance == plain.distance
            assert armed.subproblems == plain.subproblems

    @pytest.mark.parametrize("algorithm", ["rted", "zhang-l", "simple"])
    def test_algorithms_identical_with_generous_deadline(self, algorithm):
        f, g = random_tree(12, rng=3), random_tree(12, rng=4)
        assert tree_edit_distance(f, g, algorithm=algorithm) == tree_edit_distance(
            f, g, algorithm=algorithm, deadline=600.0
        )

    @pytest.mark.parametrize("cost_model", COST_MODELS, ids=lambda cm: type(cm).__name__)
    def test_batch_serial_identical(self, cost_model):
        trees = [random_tree(24, rng=i) for i in range(16)]
        pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)]
        plain = batch_distances(trees, None, pairs, cost_model=cost_model)
        armed = batch_distances(trees, None, pairs, cost_model=cost_model, deadline=600.0)
        assert plain == armed

    def test_batch_mp_identical(self):
        # workers=2 with the batch kernel eligible exercises the
        # local-pack rung of the supervised fan-out under a deadline.
        trees = [random_tree(18, rng=i) for i in range(20)]
        pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        plain = batch_distances(trees, None, pairs, workers=2, chunk_size=24)
        armed = batch_distances(
            trees, None, pairs, workers=2, chunk_size=24, deadline=600.0
        )
        assert sorted(plain) == sorted(armed)

    def test_ambient_deadline_reaches_nested_compute(self):
        f, g = random_tree(20, rng=1), random_tree(20, rng=2)
        plain = compute(f, g)
        with deadline_scope(as_deadline(600.0)):
            nested = compute(f, g)
        assert nested.distance == plain.distance


# --------------------------------------------------------------------------- #
# Promptness: expiry is detected quickly on adversarial pairs
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def adversarial_pair():
    """A pair big enough that every engine needs seconds uninterrupted."""
    return random_tree(900, rng=7), random_tree(880, rng=8)


class TestPromptTimeout:
    @pytest.mark.parametrize("engine", ["auto", "spf", "native"])
    def test_rted_engines_time_out_promptly(self, engine, adversarial_pair):
        f, g = adversarial_pair
        start = time.monotonic()
        with pytest.raises(ComputeTimeoutError):
            compute(f, g, engine=engine, deadline=0.05)
        assert time.monotonic() - start < PROMPT_SECONDS

    @pytest.mark.parametrize("algorithm", ["zhang-l", "klein", "demaine"])
    def test_other_algorithms_time_out_promptly(self, algorithm, adversarial_pair):
        f, g = adversarial_pair
        start = time.monotonic()
        with pytest.raises(ComputeTimeoutError):
            compute(f, g, algorithm=algorithm, deadline=0.05)
        assert time.monotonic() - start < PROMPT_SECONDS

    def test_recursive_engine_times_out_promptly(self, adversarial_pair):
        f, g = adversarial_pair
        start = time.monotonic()
        with pytest.raises(ComputeTimeoutError):
            compute(f, g, engine="recursive", deadline=0.05)
        assert time.monotonic() - start < PROMPT_SECONDS

    def test_cancel_token_stops_compute_from_another_thread(self, adversarial_pair):
        f, g = adversarial_pair
        token = CancelToken()
        outcome = {}

        def work():
            try:
                compute(f, g, deadline=Deadline(token=token))
                outcome["result"] = "finished"
            except ComputeTimeoutError as exc:
                outcome["result"] = str(exc)

        thread = threading.Thread(target=work)
        thread.start()
        time.sleep(0.1)
        token.cancel()
        thread.join(timeout=PROMPT_SECONDS * 2)
        assert not thread.is_alive()
        assert outcome["result"] == "computation cancelled"


# --------------------------------------------------------------------------- #
# Supervised fan-out under a deadline: teardown is clean, recovery works
# --------------------------------------------------------------------------- #
class TestBatchDeadlines:
    def test_serial_batch_times_out(self):
        big = [random_tree(500, rng=i) for i in range(4)]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        start = time.monotonic()
        with pytest.raises(ComputeTimeoutError):
            batch_distances(big, None, pairs, deadline=0.05)
        assert time.monotonic() - start < PROMPT_SECONDS

    def test_mp_batch_times_out_and_leaves_no_workers(self):
        big = [random_tree(400, rng=i) for i in range(12)]
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        before = set(multiprocessing.active_children())
        with pytest.raises(ComputeTimeoutError):
            batch_distances(big, None, pairs, workers=2, chunk_size=4, deadline=0.5)
        # The pool was hard-killed and its workers joined.
        assert set(multiprocessing.active_children()) <= before
        # The batch layer stays healthy: the same call without a deadline
        # budget, on a small workload, completes normally afterwards.
        small = [random_tree(12, rng=i) for i in range(10)]
        small_pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        results = batch_distances(
            small, None, small_pairs, workers=2, chunk_size=5, deadline=600.0
        )
        assert len(results) == len(small_pairs)

    def test_query_deadline_returns_partial(self):
        from repro.api import knn, range_query
        from repro.join.corpus import TreeCorpus

        corpus = TreeCorpus([random_tree(400, rng=i) for i in range(16)])
        query = random_tree(400, rng=99)
        start = time.monotonic()
        result = knn(query, corpus, 3, deadline=0.1)
        assert time.monotonic() - start < PROMPT_SECONDS
        assert result.stats.partial is True
        # A threshold far above any filter bound forces exact refinement of
        # every candidate, so the budget must expire mid-verification.
        ranged = range_query(query, corpus, 10_000.0, deadline=0.1)
        assert ranged.stats.partial is True
        assert "partial" in ranged.stats.as_dict()

    def test_query_without_deadline_is_never_partial(self):
        from repro.api import knn
        from repro.join.corpus import TreeCorpus

        corpus = TreeCorpus([random_tree(20, rng=i) for i in range(12)])
        result = knn(random_tree(20, rng=77), corpus, 3)
        assert result.stats.partial is False
        assert len(result.matches) == 3
