"""Fault tolerance of the supervised batch executor (ISSUE 7).

Every recovery path of :mod:`repro.join.supervisor` is exercised through
the deterministic fault-injection layer (:mod:`repro.join.faults`) and
asserted **bit-identical** to the clean serial run — the degradation
ladder's core invariant is that it trades throughput, never correctness.

These tests install explicit fault plans via ``faults.use_plan`` (including
``use_plan(None)`` for clean baselines), so they behave identically whether
or not the CI fault-injection leg has ``RTED_FAULT_INJECT`` exported in the
environment.
"""

from __future__ import annotations

import os
import subprocess

import pytest

from repro.datasets.random_trees import random_tree
from repro.exceptions import (
    BatchExecutionError,
    ChunkFailure,
    FaultInjectionError,
    InjectedFaultError,
)
from repro.join import faults
from repro.join.batch import batch_distances, batch_similarity_join
from repro.join.faults import FaultPlan
from repro.join.supervisor import (
    ExecutionPolicy,
    ExecutionReport,
    RUNG_SERIAL,
)


@pytest.fixture(autouse=True)
def _isolate_fault_plan():
    """Every test starts from an explicit no-faults state and restores it."""
    with faults.use_plan(None):
        yield


@pytest.fixture(scope="module")
def corpus():
    return [random_tree(12, rng=i) for i in range(36)]


@pytest.fixture(scope="module")
def all_pairs(corpus):
    n = len(corpus)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@pytest.fixture(scope="module")
def serial_baseline(corpus, all_pairs):
    with faults.use_plan(None):
        return sorted(batch_distances(corpus, None, all_pairs, workers=1))


def _mp(corpus, all_pairs, plan, policy=None, **kwargs):
    report = ExecutionReport()
    with faults.use_plan(plan):
        results = batch_distances(
            corpus, None, all_pairs, workers=2, chunk_size=50,
            policy=policy, exec_report=report, **kwargs,
        )
    return sorted(results), report


# --------------------------------------------------------------------------- #
# The fault plan itself
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("worker_crash:0.1;poison_pair:0.5", seed=7)
        assert plan.rates == {"worker_crash": 0.1, "poison_pair": 0.5}
        assert plan.seed == 7

    def test_parse_hang_duration_suffix(self):
        plan = FaultPlan.parse("chunk_hang:0.25@30")
        assert plan.rates == {"chunk_hang": 0.25}
        assert plan.hang_seconds == 30.0

    def test_parse_empty_and_all_zero_is_none(self):
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("   ") is None
        assert FaultPlan.parse("worker_crash:0") is None

    @pytest.mark.parametrize(
        "spec", ["segfault:0.1", "worker_crash:x", "worker_crash:1.5",
                 "chunk_hang:0.1@soon", "shm_attach_fail:1"],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse(spec)

    def test_decide_is_deterministic_and_key_sensitive(self):
        plan = FaultPlan.parse("worker_crash:0.5", seed=1)
        draws = [plan.decide("worker_crash", i, 0) for i in range(64)]
        assert draws == [plan.decide("worker_crash", i, 0) for i in range(64)]
        assert any(draws) and not all(draws)  # rate is neither 0 nor 1
        # A different seed yields a different schedule.
        other = FaultPlan.parse("worker_crash:0.5", seed=2)
        assert draws != [other.decide("worker_crash", i, 0) for i in range(64)]

    def test_decide_rate_extremes(self):
        plan = FaultPlan(rates={"worker_crash": 1.0, "chunk_hang": 0.0})
        assert plan.decide("worker_crash", 0, 0)
        assert not plan.decide("chunk_hang", 0, 0)
        assert not plan.decide("poison_pair", 0, 0)  # unlisted kind

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_ENV, "poison_pair:1")
        monkeypatch.setenv(faults.SEED_ENV, "3")
        faults.clear_plan()
        try:
            plan = faults.active_plan()
            assert plan is not None
            assert plan.rates == {"poison_pair": 1.0}
            assert plan.seed == 3
            # An installed None overrides the environment entirely.
            faults.install_plan(None)
            assert faults.active_plan() is None
        finally:
            faults.clear_plan()

    def test_check_pair_raises_injected_fault(self):
        with faults.use_plan(FaultPlan(rates={"poison_pair": 1.0})):
            with pytest.raises(InjectedFaultError):
                faults.check_pair(1, 2)


# --------------------------------------------------------------------------- #
# Recovery paths, each vs. the clean serial baseline
# --------------------------------------------------------------------------- #
class TestRecoveryPaths:
    def test_clean_supervised_run_matches_serial(
        self, corpus, all_pairs, serial_baseline
    ):
        results, report = _mp(corpus, all_pairs, None)
        assert results == serial_baseline
        assert report.retried_chunks == 0
        assert report.failed_workers == 0
        assert report.degraded_to is None
        assert report.poisoned_pairs == []

    def test_worker_crash_recovery(self, corpus, all_pairs, serial_baseline):
        plan = FaultPlan.parse("worker_crash:0.2", seed=7)
        results, report = _mp(corpus, all_pairs, plan)
        assert results == serial_baseline
        assert report.retried_chunks > 0
        assert report.failed_workers > 0
        assert report.poisoned_pairs == []

    def test_chunk_hang_timeout_recovery(self, corpus, all_pairs, serial_baseline):
        # Every chunk hangs on every mp attempt; an aggressive policy walks
        # the ladder to the serial rung quickly (hang detection itself is
        # what's under test, not wall-clock tuning).
        plan = FaultPlan.parse("chunk_hang:1@600", seed=0)
        policy = ExecutionPolicy(
            chunk_timeout=1.0, max_chunk_retries=1, max_rung_failures=0,
            backoff_base=0.0,
        )
        results, report = _mp(corpus, all_pairs, plan, policy=policy)
        assert results == serial_baseline
        assert report.failed_workers > 0
        assert report.degraded_to == RUNG_SERIAL
        assert report.serial_chunks > 0
        assert any("chunk timeout" in f.errors[0] for f in report.chunk_failures)

    def test_poisoned_pairs_reported_not_fatal(
        self, corpus, all_pairs, serial_baseline
    ):
        plan = FaultPlan.parse("poison_pair:0.01", seed=3)
        results, report = _mp(corpus, all_pairs, plan)
        poisoned = {(p.i, p.j) for p in report.poisoned_pairs}
        assert poisoned  # the seed is chosen to poison at least one pair
        # Every non-poisoned pair is present and bit-identical; poisoned
        # pairs are reported, not silently dropped.
        expected = [t for t in serial_baseline if (t[0], t[1]) not in poisoned]
        assert results == sorted(expected)
        assert report.serial_chunks > 0
        assert report.chunk_failures
        assert all(isinstance(f, ChunkFailure) for f in report.chunk_failures)

    def test_strict_mode_raises_on_poisoned_pairs(self, corpus, all_pairs):
        plan = FaultPlan.parse("poison_pair:0.01", seed=3)
        policy = ExecutionPolicy(strict=True)
        with faults.use_plan(plan):
            with pytest.raises(BatchExecutionError):
                batch_distances(
                    corpus, None, all_pairs, workers=2, chunk_size=50,
                    policy=policy,
                )


# --------------------------------------------------------------------------- #
# Stats surfacing through the join
# --------------------------------------------------------------------------- #
class TestJoinStatsSurface:
    def test_join_surfaces_recovery_counters(self, corpus):
        # Cascade off so every pair reaches the supervised verifier.
        with faults.use_plan(None):
            clean = batch_similarity_join(
                corpus, 8.0, workers=1, use_cascade=False,
            )
        plan = FaultPlan.parse("worker_crash:0.2", seed=7)
        with faults.use_plan(plan):
            faulted = batch_similarity_join(
                corpus, 8.0, workers=2, chunk_size=8, use_cascade=False,
            )
        assert faulted.match_set == clean.match_set
        assert faulted.matches == clean.matches
        assert faulted.stats.retried_chunks > 0
        assert faulted.stats.failed_workers > 0
        assert faulted.stats.poisoned_pairs == 0
        for key in ("retried_chunks", "failed_workers", "degraded_to",
                    "poisoned_pairs"):
            assert key in faulted.stats.as_dict()

    def test_join_policy_parameter_reaches_verifier(self, corpus):
        plan = FaultPlan.parse("poison_pair:0.005", seed=3)
        with faults.use_plan(plan):
            with pytest.raises(BatchExecutionError):
                batch_similarity_join(
                    corpus, 6.0, workers=2, chunk_size=8,
                    use_cascade=False, early_accept=False,
                    policy=ExecutionPolicy(strict=True),
                )

    def test_clean_join_reports_no_recovery(self, corpus):
        with faults.use_plan(None):
            result = batch_similarity_join(corpus, 4.0, workers=2, chunk_size=8)
        assert result.stats.retried_chunks == 0
        assert result.stats.failed_workers == 0
        assert result.stats.degraded_to is None
        assert result.stats.poisoned_pairs == 0


# --------------------------------------------------------------------------- #
# Native compile cache hardening
# --------------------------------------------------------------------------- #
class TestNativeCompileCache:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        from repro.algorithms.native import _atomic_write

        target = tmp_path / "out.txt"
        _atomic_write(str(target), "payload")
        assert target.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_compile_failure_is_negative_cached(self, tmp_path, monkeypatch):
        from repro.algorithms import native

        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path))
        monkeypatch.setattr(native, "_find_compiler", lambda: "/bin/false")
        with pytest.raises(Exception):
            native._compile_cc_library()
        markers = list((tmp_path / "rted-native").glob("*.failed"))
        assert len(markers) == 1
        assert markers[0].read_text()  # the failure reason was recorded

        # Second call must honor the marker without invoking any compiler.
        def _boom(*args, **kwargs):  # pragma: no cover - defends the assert
            raise AssertionError("compiler re-invoked despite failure marker")

        monkeypatch.setattr(native.subprocess, "run", _boom)
        with pytest.raises(RuntimeError, match="previously failed"):
            native._compile_cc_library()

    def test_expired_marker_allows_recompile_attempt(self, tmp_path, monkeypatch):
        from repro.algorithms import native

        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path))
        monkeypatch.setattr(native, "_find_compiler", lambda: "/bin/false")
        with pytest.raises(Exception):
            native._compile_cc_library()
        marker = next((tmp_path / "rted-native").glob("*.failed"))
        old = native.time.time() - native._FAILURE_MARKER_TTL - 1
        os.utime(marker, (old, old))
        # The expired marker is dropped and the compiler is tried again.
        with pytest.raises(subprocess.CalledProcessError):
            native._compile_cc_library()


# --------------------------------------------------------------------------- #
# CLI error handling
# --------------------------------------------------------------------------- #
class TestCliErrors:
    def test_parse_error_exit_code_and_message(self, capsys):
        from repro.cli import EXIT_CODES, main

        code = main(["distance", "{a{b}", "{a}"])
        assert code == EXIT_CODES["data"]
        err = capsys.readouterr().err
        assert err.startswith("rted: parse error:")
        assert err.count("\n") == 1  # one line, no traceback

    def test_missing_input_file_exit_code(self, capsys, tmp_path):
        from repro.cli import EXIT_CODES, main

        missing = tmp_path / "nope.txt"
        code = main(["distance", f"@{missing}", "{a}"])
        assert code == EXIT_CODES["noinput"]
        assert "rted: cannot read input" in capsys.readouterr().err

    def test_successful_distance_still_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["distance", "{a{b}}", "{a{c}}"]) == 0
        assert capsys.readouterr().out.strip() == "1.0"
