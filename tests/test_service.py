"""Tests for the HTTP serving layer: endpoints, deadlines, shedding, drain.

Each test spins up an in-process :class:`RtedService` on an ephemeral port
inside ``asyncio.run`` (no subprocess, no fixed ports, no pytest-asyncio
dependency) and talks real HTTP to it through ``urllib`` in worker threads.
"""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import compute, parse_tree
from repro.datasets import random_tree
from repro.datasets.shapes import right_branch_tree, zigzag_tree
from repro.io import to_bracket
from repro.join.corpus import TreeCorpus
from repro.join.shared import reap_stale
from repro.service import RtedService, ServiceConfig


def _post(base, path, body, timeout=60):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _get(base, path, timeout=10):
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def run_service(test_body, config=None, corpus_sizes=(20,), corpus_count=24, **service_kwargs):
    """Start a service on port 0, run ``await test_body(service, base_url)``."""

    async def main():
        trees = [
            random_tree(corpus_sizes[i % len(corpus_sizes)], rng=i)
            for i in range(corpus_count)
        ]
        service = RtedService(
            {"default": TreeCorpus(trees)},
            config if config is not None else ServiceConfig(port=0),
            **service_kwargs,
        )
        await service.start()
        base = f"http://127.0.0.1:{service.port}"
        try:
            await test_body(service, base)
        finally:
            if not service.draining:
                await service.drain()

    asyncio.run(main())


class TestEndpoints:
    def test_health_ready_stats(self):
        async def body(service, base):
            status, _, payload = await asyncio.to_thread(_get, base, "/healthz")
            assert (status, payload["status"]) == (200, "alive")
            status, _, payload = await asyncio.to_thread(_get, base, "/readyz")
            assert (status, payload["status"]) == (200, "ready")
            status, _, payload = await asyncio.to_thread(_get, base, "/stats")
            assert status == 200
            default = payload["corpora"]["default"]
            assert default["size"] == 24
            assert default["epoch"] == 0
            assert default["pair_cache_hits"] == 0
            assert default["pair_cache_misses"] == 0
            assert default["pair_cache_evictions"] == 0
            assert default["adds"] == 0 and default["removals"] == 0
            assert payload["counters"]["served"] == 0

        run_service(body)

    def test_distance_bit_identical_to_library(self):
        async def body(service, base):
            f, g = random_tree(30, rng=1), random_tree(30, rng=2)
            status, _, payload = await asyncio.to_thread(
                _post, base, "/distance",
                {"tree_a": to_bracket(f), "tree_b": to_bracket(g)},
            )
            assert status == 200
            direct = compute(f, g)
            assert payload["distance"] == direct.distance
            assert payload["subproblems"] == direct.subproblems

        run_service(body)

    def test_distance_reports_kernel(self):
        # Unit-cost rted pairs within the cell budget run the small-pair
        # program in the cheaper sweep (two 64-node right combs: the right
        # one); the 88 × 90 zigzag pair is over budget both ways and stays
        # on RTED's strategy and spf.  Either way the body carries exactly
        # what compute() returns.
        cases = (
            (random_tree(70, rng=70), random_tree(40, rng=71), "small-pair", "left"),
            (right_branch_tree(64), right_branch_tree(64, label="b"), "small-pair", "right"),
            (zigzag_tree(88), zigzag_tree(90), "spf", None),
        )

        async def body(service, base):
            for f, g, kernel, sweep in cases:
                status, _, payload = await asyncio.to_thread(
                    _post, base, "/distance",
                    {"tree_a": to_bracket(f), "tree_b": to_bracket(g)},
                )
                assert status == 200
                direct = compute(f, g)
                assert payload["kernel"] == direct.extra["kernel"] == kernel
                assert payload.get("sweep") == direct.extra.get("sweep") == sweep
                assert payload["distance"] == direct.distance
                assert payload["subproblems"] == direct.subproblems
                assert payload["algorithm"] == direct.algorithm
            # The dedicated Zhang–Shasha tables and the oracle name themselves.
            for algorithm, kernel in (
                ("zhang-l", "zhang-shasha"), ("zhang-r", "zhang-shasha"), ("simple", "simple"),
            ):
                status, _, payload = await asyncio.to_thread(
                    _post, base, "/distance",
                    {"tree_a": "{a{b}{c}}", "tree_b": "{a{b}{d}}", "algorithm": algorithm},
                )
                assert status == 200
                assert payload["kernel"] == kernel

        run_service(body)

    def test_malformed_cutoff_is_400(self):
        async def body(service, base):
            pair = {"tree_a": "{a{b}{c}}", "tree_b": "{a{b}{d}{e}}"}
            corpus_pair = {"corpus": "default", "i": 0, "j": 1}
            for cutoff in ("abc", [1], float("nan"), True):
                for request in (pair, corpus_pair):
                    for algorithm in ("rted", "zhang-l"):
                        status, _, payload = await asyncio.to_thread(
                            _post, base, "/distance",
                            {**request, "algorithm": algorithm, "cutoff": cutoff},
                        )
                        assert status == 400, (cutoff, request, algorithm, payload)
                        assert "cutoff" in payload["error"]

        run_service(body)

    def test_infinite_cutoff_means_no_cutoff(self):
        async def body(service, base):
            pair = {"tree_a": "{a{b}{c}}", "tree_b": "{a{b}{d}{e}}"}
            for algorithm in ("rted", "zhang-l", "zhang-r", "simple", "klein-h"):
                bodies = []
                for extra in ({}, {"cutoff": float("inf")}):
                    status, _, payload = await asyncio.to_thread(
                        _post, base, "/distance", {**pair, "algorithm": algorithm, **extra},
                    )
                    assert status == 200, (algorithm, payload)
                    bodies.append(payload)
                assert bodies[0] == bodies[1]
                assert bodies[1]["distance"] == 2.0

        run_service(body)

    def test_malformed_thresholds_are_400(self):
        async def body(service, base):
            query = to_bracket(random_tree(20, rng=90))
            for threshold in (float("nan"), float("inf"), float("-inf"), "abc", True):
                status, _, payload = await asyncio.to_thread(
                    _post, base, "/range", {"query": query, "threshold": threshold},
                )
                assert status == 400, (threshold, payload)
            for threshold in (float("nan"), "abc", True):
                status, _, payload = await asyncio.to_thread(
                    _post, base, "/join", {"threshold": threshold},
                )
                assert status == 400, (threshold, payload)
            # An infinite join threshold is well defined: every pair matches.
            status, _, payload = await asyncio.to_thread(
                _post, base, "/join", {"threshold": float("inf")},
            )
            assert status == 200
            assert len(payload["matches"]) == 24 * 23 // 2

        run_service(body)

    def test_corpus_distance_reports_kernel_per_engine(self):
        # The pair cache keys on the engine: an explicit spf request for a
        # pair already answered under auto recomputes instead of serving the
        # small-pair body.
        async def body(service, base):
            corpus = service.corpora["default"]
            expected = {
                engine: compute(corpus.trees[0], corpus.trees[1], engine=engine)
                for engine in ("auto", "spf")
            }
            for engine, kernel in (("auto", "small-pair"), ("spf", "spf")):
                status, _, payload = await asyncio.to_thread(
                    _post, base, "/distance",
                    {"corpus": "default", "i": 0, "j": 1, "engine": engine},
                )
                assert status == 200
                assert payload["cached"] is False
                assert payload["kernel"] == kernel
                assert payload["distance"] == expected[engine].distance
                assert payload["subproblems"] == expected[engine].subproblems

        run_service(body)

    def test_bounded_distance(self):
        async def body(service, base):
            status, _, payload = await asyncio.to_thread(
                _post, base, "/distance",
                {"tree_a": "{a{b}{c}}", "tree_b": "{x{y}{z}{w}}", "cutoff": 1.5},
            )
            assert status == 200
            assert payload["bounded"] is True
            assert payload["lower_bound"] >= 1.5

        run_service(body)

    def test_knn_and_range_match_library(self):
        async def body(service, base):
            query = random_tree(20, rng=90)
            status, _, payload = await asyncio.to_thread(
                _post, base, "/knn", {"query": to_bracket(query), "k": 3},
            )
            assert status == 200
            assert len(payload["matches"]) == 3
            assert payload["partial"] is False
            expected = service._engines["default"].knn(query, 3)
            assert payload["matches"] == [[j, d] for j, d in expected.matches]

            status, _, ranged = await asyncio.to_thread(
                _post, base, "/range", {"query": to_bracket(query), "threshold": 12.0},
            )
            assert status == 200
            assert ranged["partial"] is False
            assert ranged["stats"]["corpus_size"] == 24

        run_service(body)

    def test_join_exposes_stats(self):
        async def body(service, base):
            status, _, payload = await asyncio.to_thread(
                _post, base, "/join", {"threshold": 4.0},
            )
            assert status == 200
            assert "exact_computed" in payload["stats"]
            # The telemetry lands in /stats for scrapers.
            _, _, stats = await asyncio.to_thread(_get, base, "/stats")
            assert stats["last_join_stats"] == payload["stats"]

        run_service(body)

    def test_request_errors(self):
        async def body(service, base):
            cases = [
                ("/distance", {"tree_a": "{a}"}),              # missing field
                ("/distance", {"tree_a": "{a}", "tree_b": 3}),  # wrong type
                ("/distance", {"tree_a": "{a", "tree_b": "{b}"}),  # parse error
                ("/knn", {"query": "{a}", "k": 1, "corpus": "nope"}),
                ("/knn", {"query": "{a}", "k": "three"}),
                ("/distance", {"tree_a": "{a}", "tree_b": "{b}", "deadline": -1}),
            ]
            for path, payload in cases:
                status, _, body_ = await asyncio.to_thread(_post, base, path, payload)
                assert status == 400, (path, payload, body_)
            status, _, _ = await asyncio.to_thread(_get, base, "/nope")
            assert status == 404
            status, _, _ = await asyncio.to_thread(_get, base, "/distance")
            assert status == 405

        run_service(body)


class TestDeadlines:
    def test_over_deadline_request_times_out_promptly(self):
        async def body(service, base):
            big_a = to_bracket(random_tree(900, rng=5))
            big_b = to_bracket(random_tree(880, rng=6))
            start = time.monotonic()
            status, _, payload = await asyncio.to_thread(
                _post, base, "/distance",
                {"tree_a": big_a, "tree_b": big_b, "deadline": 0.1},
            )
            elapsed = time.monotonic() - start
            assert status == 504
            assert payload["timeout"] is True
            assert elapsed < 2.0
            assert service.counters.timeouts == 1
            # The service stays healthy: the next request succeeds.
            status, _, payload = await asyncio.to_thread(
                _post, base, "/distance", {"tree_a": "{a{b}}", "tree_b": "{a{c}}"},
            )
            assert (status, payload["distance"]) == (200, 1.0)

        run_service(body)

    def test_max_deadline_clamps_client_budget(self):
        async def body(service, base):
            big_a = to_bracket(random_tree(900, rng=5))
            big_b = to_bracket(random_tree(880, rng=6))
            start = time.monotonic()
            status, _, _ = await asyncio.to_thread(
                _post, base, "/distance",
                {"tree_a": big_a, "tree_b": big_b, "deadline": 3600.0},
            )
            assert status == 504
            assert time.monotonic() - start < 2.0

        run_service(body, config=ServiceConfig(port=0, max_deadline=0.1))

    def test_default_deadline_applies_when_unset(self):
        async def body(service, base):
            big_a = to_bracket(random_tree(900, rng=5))
            big_b = to_bracket(random_tree(880, rng=6))
            status, _, payload = await asyncio.to_thread(
                _post, base, "/distance", {"tree_a": big_a, "tree_b": big_b},
            )
            assert (status, payload["timeout"]) == (504, True)

        run_service(body, config=ServiceConfig(port=0, default_deadline=0.1))

    def test_partial_knn_over_http(self):
        async def body(service, base):
            query = to_bracket(random_tree(400, rng=99))
            status, _, payload = await asyncio.to_thread(
                _post, base, "/knn", {"query": query, "k": 3, "deadline": 0.1},
            )
            # Partial results are 200 with the explicit marker, not an error.
            assert status == 200
            assert payload["partial"] is True
            assert service.counters.partial_results == 1

        run_service(body, corpus_sizes=(400,), corpus_count=12)


class TestAdmissionControl:
    def test_overload_sheds_with_retry_after(self):
        async def body(service, base):
            big_a = to_bracket(random_tree(900, rng=5))
            big_b = to_bracket(random_tree(880, rng=6))
            slow = asyncio.create_task(
                asyncio.to_thread(
                    _post, base, "/distance",
                    {"tree_a": big_a, "tree_b": big_b, "deadline": 10.0},
                )
            )
            # Wait until the slow request holds the only slot.
            while service._admitted == 0:
                await asyncio.sleep(0.01)
            shed = 0
            for _ in range(5):
                status, headers, payload = await asyncio.to_thread(
                    _post, base, "/distance", {"tree_a": "{a}", "tree_b": "{b}"},
                )
                if status == 503:
                    shed += 1
                    assert headers.get("Retry-After") == "1"
                    assert "overloaded" in payload["error"]
            assert shed >= 4
            assert service.counters.shed >= 4
            service._drain_token.cancel()
            await slow

        config = ServiceConfig(port=0, max_inflight=1, max_queue=0)
        run_service(body, config=config)

    def test_queue_admits_up_to_bound(self):
        async def body(service, base):
            tasks = [
                asyncio.create_task(
                    asyncio.to_thread(
                        _post, base, "/distance",
                        {"tree_a": "{a{b}{c}}", "tree_b": "{a{c}{d}}"},
                    )
                )
                for _ in range(6)
            ]
            outcomes = [status for status, _, _ in await asyncio.gather(*tasks)]
            # With inflight 1 + queue 8, all six complete (some after waiting).
            assert outcomes == [200] * 6

        config = ServiceConfig(port=0, max_inflight=1, max_queue=8)
        run_service(body, config=config)


class TestDrain:
    def test_drain_cancels_inflight_and_reaps(self):
        async def body(service, base):
            big_a = to_bracket(random_tree(900, rng=5))
            big_b = to_bracket(random_tree(880, rng=6))
            slow = asyncio.create_task(
                asyncio.to_thread(
                    _post, base, "/distance", {"tree_a": big_a, "tree_b": big_b},
                )
            )
            while service._admitted == 0:
                await asyncio.sleep(0.01)
            start = time.monotonic()
            await service.drain()
            assert time.monotonic() - start < 5.0
            status, _, payload = await slow
            assert status == 504
            assert "cancelled" in payload["error"]
            assert reap_stale() == []
            # Draining fails readiness and rejects new compute work at the
            # admission gate (the listener itself is already closed).
            assert service.draining

        config = ServiceConfig(port=0, drain_grace=0.3)
        run_service(body, config=config)

    def test_drain_lets_quick_work_finish(self):
        async def body(service, base):
            quick = asyncio.create_task(
                asyncio.to_thread(
                    _post, base, "/distance",
                    {"tree_a": "{a{b}{c}}", "tree_b": "{a{c}{d}}"},
                )
            )
            await asyncio.sleep(0.05)
            await service.drain()
            status, _, payload = await quick
            assert (status, payload["distance"]) == (200, 2.0)

        config = ServiceConfig(port=0, drain_grace=5.0)
        run_service(body, config=config)
