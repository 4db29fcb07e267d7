"""A deadline-governed TED serving layer on the stdlib asyncio stack.

The library answers one call at a time; a service answers a *stream* of
requests against corpora whose expensive artifacts — the label interner,
filter profiles, the batch-kernel pack, the metric index — should be paid
once, not per request.  :class:`RtedService` registers
:class:`~repro.join.corpus.TreeCorpus` objects at startup and serves:

``POST /distance``
    ``{"tree_a": "{a{b}}", "tree_b": "{a{c}}", "algorithm": "rted",
    "cutoff": 2.0, "deadline": 0.5}`` → the exact (or τ-bounded) distance,
    the ``subproblems`` count and the ``kernel`` that computed it
    (``"small-pair"`` or ``"spf"`` for the default ``rted``; see
    :func:`repro.api.compute`).
``POST /knn`` / ``POST /range``
    One-vs-corpus retrieval through the registered corpus's cached
    :class:`~repro.join.query.QueryEngine`.  A deadline expiry returns the
    best results found so far with ``"partial": true`` — explicitly marked,
    never a silently truncated exact answer.
``POST /join``
    The corpus similarity self/cross join, with the full
    :class:`~repro.join.cascade.JoinStats` (including the PR 7 recovery
    telemetry) in the response.
``POST /corpora`` / ``POST /corpora/{name}/trees`` / ``DELETE /corpora/{name}/trees/{id}``
    Corpus management over *live* corpora (PR 10): create a named corpus,
    append trees, or remove one tree by its current dense id.  Mutations go
    through :meth:`TreeCorpus.add_trees` / :meth:`TreeCorpus.remove_trees`,
    so the per-tree profiles and inverted indexes update incrementally and
    the corpus **epoch** advances; every response reports the new
    ``size``/``epoch``.  Cached engines notice the drift through their
    pinned snapshots (see :mod:`repro.join.query`) — no restart needed.
``GET /healthz`` / ``GET /readyz`` / ``GET /stats``
    Liveness (always 200 while the process runs), readiness (503 once
    draining), and the service counters plus the last query/join stats as
    JSON.  ``/stats`` reports each corpus's size, epoch, the engine's
    pinned snapshot epoch, the mutation ledger, and the pair-cache
    hit/miss/eviction counters.

**Epoch-keyed pair caching.**  ``POST /distance`` with ``{"corpus": ...,
"i": 3, "j": 7}`` computes the distance between two *registered* trees and
memoizes it in a per-corpus LRU keyed by ``(epoch, i, j, algorithm,
engine, cost model, cutoff)``.  Because the corpus epoch is part of the
key, a mutation invalidates every stale entry implicitly — there is no
explicit flush, and a hit can never serve a distance computed against a
superseded tree set.

**Deadlines end to end.**  Every compute request runs under a
:class:`~repro.runtime.Deadline` combining its per-request budget (the
``deadline`` field, clamped to ``max_deadline``, defaulting to
``default_deadline``) with the service's drain :class:`CancelToken`.  The
deadline travels through ``compute(deadline=)`` into the row loops of the
kernels, so an over-budget request returns ``504`` within one check
interval of expiry instead of hanging — and the worker pool stays healthy,
because cancellation is cooperative (no process is killed on the serial
path; the supervised fan-out reuses its stall-teardown).  Requests without
a deadline run the library code bit-identically to a direct call: the
ambient deadline checks read state only and never touch the DP arithmetic.

**Admission control.**  Compute requests pass a bounded admission gate:
at most ``max_inflight`` run concurrently (worker threads via
``asyncio.to_thread``) and at most ``max_queue`` more may wait on the
semaphore.  Anything beyond that is *shed* with ``503`` and a
``Retry-After`` header before any compute work starts — the queue can
never grow without bound, so overload degrades into fast rejections
rather than memory growth and collapse.  Request bodies are capped
(``RTED_SERVICE_MAX_BODY``) for the same reason.

**Graceful drain.**  ``SIGTERM`` (or :meth:`RtedService.drain`) stops the
listener, fails readiness, waits up to ``drain_grace`` seconds for
in-flight requests to finish, then cancels the drain token — which expires
every in-flight deadline, so stragglers return ``504`` promptly — and
finally reaps any orphaned shared-memory blocks
(:func:`~repro.join.shared.reap_stale`).  ``rted serve`` then exits 0.

Per-corpus compute (knn/range/join) serializes on a per-corpus lock —
the cached engine's amortized workspace and the corpus's lazily built
artifacts are not thread-safe — while ``/distance`` requests use fresh
per-call contexts and scale across the worker threads.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..algorithms.base import resolve_engine, validate_cutoff
from ..api import compute, parse_tree
from ..exceptions import ComputeTimeoutError, ReproError
from ..join.corpus import TreeCorpus
from ..join.query import QueryEngine
from ..runtime import CancelToken, Deadline, env_int

#: Cap on a request body (bytes); larger requests get 413.  Bounded bodies
#: plus the bounded admission queue keep worst-case service memory linear
#: in configuration, not in offered load.
MAX_BODY_BYTES = env_int("RTED_SERVICE_MAX_BODY", 8 << 20, minimum=1024)

_JSON_HEADERS = "Content-Type: application/json\r\nConnection: close\r\n"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """An error with a definite HTTP status (raised during request handling)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class ServiceConfig:
    """Tunables of one :class:`RtedService` instance."""

    host: str = "127.0.0.1"
    port: int = 0
    """``0`` binds an ephemeral port (read it back from ``service.port``)."""

    max_inflight: int = 4
    """Compute requests running concurrently (worker threads)."""

    max_queue: int = 16
    """Admitted requests allowed to wait for a worker; beyond
    ``max_inflight + max_queue`` the service sheds with 503."""

    default_deadline: Optional[float] = None
    """Budget (seconds) applied to requests that set none; ``None`` = no
    time limit (the drain token still cancels them)."""

    max_deadline: Optional[float] = None
    """Upper clamp on client-requested deadlines."""

    retry_after: float = 1.0
    """Value of the ``Retry-After`` header on shed responses."""

    drain_grace: float = 5.0
    """Seconds drain waits for in-flight work before cancelling it."""

    pair_cache_size: int = 1024
    """Capacity of each corpus's epoch-keyed pair-distance LRU cache
    (``0`` disables caching)."""


@dataclass
class ServiceCounters:
    """Monotonic service counters, exposed verbatim by ``GET /stats``."""

    requests: int = 0
    served: int = 0
    shed: int = 0
    timeouts: int = 0
    client_errors: int = 0
    server_errors: int = 0
    partial_results: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "served": self.served,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
            "partial_results": self.partial_results,
        }


class PairResultCache:
    """Per-corpus LRU cache of pair-distance response bodies.

    Keys include the corpus **epoch** (plus tree ids, algorithm, cost
    model, cutoff), so entries computed against a superseded tree set can
    never be served after a mutation — the epoch bump orphans them and the
    LRU sweep evicts them as capacity recycles.  Counters are monotonic
    and surfaced per corpus by ``GET /stats``.  Access is serialized by
    the owning corpus's lock, so no internal locking is needed.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, int(capacity))
        self._entries: "OrderedDict[tuple, Dict[str, object]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Optional[Dict[str, object]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, value: Dict[str, object]) -> None:
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def counters(self) -> Dict[str, int]:
        return {
            "pair_cache_hits": self.hits,
            "pair_cache_misses": self.misses,
            "pair_cache_evictions": self.evictions,
            "pair_cache_entries": len(self._entries),
        }


class RtedService:
    """The serving layer: registered corpora + the asyncio HTTP front end.

    ``corpora`` maps names (the ``"corpus"`` field of query requests) to
    :class:`TreeCorpus` objects.  Each gets one cached
    :class:`QueryEngine`, so the interner, profiles, pack and metric index
    are built once and amortized across the request stream.  The instance
    is fully testable in-process: ``await service.start()`` with
    ``port=0``, issue requests against ``service.port``, then
    ``await service.drain()``.
    """

    def __init__(
        self,
        corpora: Dict[str, TreeCorpus],
        config: Optional[ServiceConfig] = None,
        algorithm: str = "rted",
        engine: Optional[str] = None,
        workers: int = 1,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.algorithm = algorithm
        self.engine = engine
        self.workers = workers
        self.corpora = dict(corpora)
        self._engines: Dict[str, QueryEngine] = {
            name: QueryEngine(
                corpus, algorithm=algorithm, engine=engine, workers=workers
            )
            for name, corpus in self.corpora.items()
        }
        self._locks: Dict[str, threading.Lock] = {
            name: threading.Lock() for name in self.corpora
        }
        self._pair_caches: Dict[str, PairResultCache] = {
            name: PairResultCache(self.config.pair_cache_size)
            for name in self.corpora
        }
        # Guards registry *shape* changes (corpus creation): the per-corpus
        # locks serialize work on one corpus, this one serializes adding
        # entries to the four parallel dicts.
        self._registry_lock = threading.Lock()
        self.counters = ServiceCounters()
        self.last_query_stats: Optional[Dict[str, object]] = None
        self.last_join_stats: Optional[Dict[str, object]] = None
        self._drain_token = CancelToken()
        self._draining = False
        self._admitted = 0
        self._inflight = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener (idempotent start is an error by design)."""
        if self._server is not None:
            raise ReproError("service already started")
        self._semaphore = asyncio.Semaphore(self.config.max_inflight)
        # A dedicated pool sized to the admission bound: compute never
        # contends with (or starves under) other users of the event loop's
        # default executor, and thread count is capped by configuration.
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight, thread_name_prefix="rted-compute"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            raise ReproError("service not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ReproError("service not started")
        await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish or cancel, clean up.

        The sequence the ISSUE specifies: readiness fails immediately (new
        work is rejected), the listener closes, in-flight requests get
        ``drain_grace`` seconds to finish on their own budgets, whatever
        remains is cancelled through the shared token (each in-flight
        deadline expires, so the cooperative checks surface ``504`` within
        one check interval), and orphaned shared-memory blocks are reaped.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        grace_until = time.monotonic() + self.config.drain_grace
        while self._admitted > 0 and time.monotonic() < grace_until:
            await asyncio.sleep(0.02)
        if self._admitted > 0:
            self._drain_token.cancel()
        while self._admitted > 0:
            await asyncio.sleep(0.02)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        # In-flight supervised fan-outs unlink their shm exports on the way
        # out; this sweep catches blocks orphaned by killed workers.
        from ..join.shared import reap_stale

        await asyncio.to_thread(reap_stale)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body = await self._handle_request(reader)
        except _HttpError as exc:
            status, body = exc.status, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self.counters.server_errors += 1
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            payload = json.dumps(body).encode("utf-8")
            extra = ""
            if status == 503 and body.get("retry_after") is not None:
                extra = f"Retry-After: {body['retry_after']:g}\r\n"
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
                f"{_JSON_HEADERS}{extra}Content-Length: {len(payload)}\r\n\r\n"
            )
            writer.write(head.encode("ascii") + payload)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, object]]:
        method, path, headers = await self._read_head(reader)
        self.counters.requests += 1
        if path in ("/healthz", "/readyz", "/stats"):
            if method != "GET":
                raise _HttpError(405, f"{path} expects GET")
            return self._handle_control(path)
        if path in ("/distance", "/knn", "/range", "/join"):
            if method != "POST":
                raise _HttpError(405, f"{path} expects POST")
            return await self._handle_compute(path, reader, headers)
        if path == "/corpora":
            if method != "POST":
                raise _HttpError(405, "/corpora expects POST")
            return await self._handle_compute(("corpora:create",), reader, headers)
        if path.startswith("/corpora/"):
            parts = path[1:].split("/")
            if len(parts) == 3 and parts[2] == "trees":
                if method != "POST":
                    raise _HttpError(405, f"{path} expects POST")
                return await self._handle_compute(
                    ("corpora:add", parts[1]), reader, headers
                )
            if len(parts) == 4 and parts[2] == "trees":
                if method != "DELETE":
                    raise _HttpError(405, f"{path} expects DELETE")
                return await self._handle_compute(
                    ("corpora:remove", parts[1], parts[3]),
                    reader,
                    headers,
                    needs_body=False,
                )
        raise _HttpError(404, f"unknown path {path}")

    async def _read_head(self, reader: asyncio.StreamReader):
        try:
            raw = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=30.0)
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.TimeoutError,
        ):
            raise _HttpError(400, "malformed or truncated request head")
        head = raw.decode("latin-1")
        request_line, _, header_block = head.partition("\r\n")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in header_block.split("\r\n"):
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _read_body(self, reader, headers) -> Dict[str, object]:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        if length <= 0:
            raise _HttpError(400, "compute endpoints require a JSON body")
        try:
            raw = await asyncio.wait_for(reader.readexactly(length), timeout=30.0)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            raise _HttpError(400, "truncated request body")
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload

    # ------------------------------------------------------------------ #
    # Control endpoints
    # ------------------------------------------------------------------ #
    def _handle_control(self, path: str) -> Tuple[int, Dict[str, object]]:
        if path == "/healthz":
            return 200, {"status": "alive"}
        if path == "/readyz":
            if self._draining:
                return 503, {"status": "draining"}
            return 200, {"status": "ready"}
        return 200, {
            "counters": self.counters.as_dict(),
            "inflight": self._inflight,
            "admitted": self._admitted,
            "draining": self._draining,
            "corpora": {name: self._corpus_stats(name) for name in self.corpora},
            "config": {
                "max_inflight": self.config.max_inflight,
                "max_queue": self.config.max_queue,
                "default_deadline": self.config.default_deadline,
                "max_deadline": self.config.max_deadline,
            },
            "last_query_stats": self.last_query_stats,
            "last_join_stats": self.last_join_stats,
        }

    def _corpus_stats(self, name: str) -> Dict[str, object]:
        """One corpus's ``/stats`` entry: size, epochs, ledger, cache counters."""
        corpus = self.corpora[name]
        engine = self._engines.get(name)
        info: Dict[str, object] = {
            "size": len(corpus),
            "epoch": getattr(corpus, "epoch", 0),
            "snapshot_epoch": getattr(engine, "snapshot_epoch", None),
        }
        ledger = getattr(corpus, "mutation_counters", None)
        if callable(ledger):
            info.update(ledger())
        cache = self._pair_caches.get(name)
        if cache is not None:
            info.update(cache.counters())
        return info

    # ------------------------------------------------------------------ #
    # Compute endpoints
    # ------------------------------------------------------------------ #
    async def _handle_compute(
        self, op: Union[str, tuple], reader, headers, needs_body: bool = True
    ) -> Tuple[int, Dict[str, object]]:
        if self._draining:
            self.counters.shed += 1
            return 503, {"error": "draining", "retry_after": None}
        if self._admitted >= self.config.max_inflight + self.config.max_queue:
            # Load shedding: the admission budget is spent, so reject
            # *before* reading the body or touching a worker — overload
            # turns into fast 503s, never an unbounded queue.
            self.counters.shed += 1
            return 503, {
                "error": "service overloaded",
                "retry_after": self.config.retry_after,
            }
        # Reserve the slot *synchronously* — no await between the admission
        # check above and this increment, so a simultaneous burst of
        # connections cannot all pass the check and overrun the bound.
        self._admitted += 1
        try:
            payload: Dict[str, object] = {}
            if needs_body:
                payload = await self._read_body(reader, headers)
            assert self._semaphore is not None
            async with self._semaphore:
                self._inflight += 1
                try:
                    deadline = self._request_deadline(payload)
                    result = await asyncio.get_running_loop().run_in_executor(
                        self._executor, self._compute, op, payload, deadline
                    )
                finally:
                    self._inflight -= 1
        except ComputeTimeoutError as exc:
            self.counters.timeouts += 1
            return 504, {"error": str(exc), "timeout": True}
        except _HttpError:
            self.counters.client_errors += 1
            raise
        except ReproError as exc:
            self.counters.client_errors += 1
            return 400, {"error": str(exc)}
        finally:
            self._admitted -= 1
        self.counters.served += 1
        return 200, result

    def _request_deadline(self, payload: Dict[str, object]) -> Deadline:
        timeout = payload.get("deadline", self.config.default_deadline)
        if timeout is not None:
            if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
                raise _HttpError(400, "deadline must be a number of seconds")
            timeout = float(timeout)
            if timeout <= 0:
                raise _HttpError(400, "deadline must be positive")
            if self.config.max_deadline is not None:
                timeout = min(timeout, self.config.max_deadline)
        # Every request carries the drain token, so graceful shutdown can
        # cut short even requests that asked for no time limit.
        return Deadline(timeout, token=self._drain_token)

    def _corpus_engine(self, payload) -> Tuple[str, QueryEngine]:
        name = payload.get("corpus", "default")
        if not isinstance(name, str) or name not in self._engines:
            raise _HttpError(
                400,
                f"unknown corpus {name!r} (registered: {sorted(self._engines)})",
            )
        return name, self._engines[name]

    def _field(self, payload, key, kinds, desc):
        value = payload.get(key)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise _HttpError(400, f"field {key!r} must be {desc}")
        return value

    def _compute(self, op: Union[str, tuple], payload, deadline: Deadline):
        """One compute request, run inside a worker thread."""
        if isinstance(op, tuple):
            if op[0] == "corpora:create":
                return self._do_corpus_create(payload)
            if op[0] == "corpora:add":
                return self._do_corpus_add(op[1], payload)
            return self._do_corpus_remove(op[1], op[2])
        if op == "/distance":
            return self._do_distance(payload, deadline)
        if op == "/knn":
            return self._do_knn(payload, deadline)
        if op == "/range":
            return self._do_range(payload, deadline)
        return self._do_join(payload, deadline)

    # ------------------------------------------------------------------ #
    # Corpus management (live corpora)
    # ------------------------------------------------------------------ #
    def _parse_tree_list(self, payload, key: str):
        value = payload.get(key)
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise _HttpError(400, f"field {key!r} must be a list of tree strings")
        return [parse_tree(text) for text in value]

    def _do_corpus_create(self, payload):
        name = self._field(payload, "name", str, "a corpus name string")
        trees = self._parse_tree_list(payload, "trees") if "trees" in payload else []
        with self._registry_lock:
            if name in self.corpora:
                raise _HttpError(409, f"corpus {name!r} already exists")
            corpus = TreeCorpus(trees)
            self.corpora[name] = corpus
            self._engines[name] = QueryEngine(
                corpus,
                algorithm=self.algorithm,
                engine=self.engine,
                workers=self.workers,
            )
            self._locks[name] = threading.Lock()
            self._pair_caches[name] = PairResultCache(self.config.pair_cache_size)
        return {"name": name, "size": len(corpus), "epoch": corpus.epoch}

    def _mutable_corpus(self, name: str) -> TreeCorpus:
        if name not in self.corpora:
            raise _HttpError(
                400, f"unknown corpus {name!r} (registered: {sorted(self.corpora)})"
            )
        return self.corpora[name]

    def _do_corpus_add(self, name: str, payload):
        corpus = self._mutable_corpus(name)
        trees = self._parse_tree_list(payload, "trees")
        with self._locks[name]:
            added = corpus.add_trees(trees)
            return {"added": added, "size": len(corpus), "epoch": corpus.epoch}

    def _do_corpus_remove(self, name: str, id_text: str):
        corpus = self._mutable_corpus(name)
        try:
            index = int(id_text)
        except ValueError:
            raise _HttpError(400, f"tree id must be an integer, got {id_text!r}")
        with self._locks[name]:
            # An out-of-range index raises CorpusError, which the compute
            # wrapper maps to 400 like every other ReproError.
            corpus.remove_trees([index])
            return {"removed": index, "size": len(corpus), "epoch": corpus.epoch}

    def _do_distance(self, payload, deadline: Deadline):
        if "i" in payload or "j" in payload:
            return self._do_corpus_distance(payload, deadline)
        tree_a = parse_tree(self._field(payload, "tree_a", str, "a tree string"))
        tree_b = parse_tree(self._field(payload, "tree_b", str, "a tree string"))
        cutoff = payload.get("cutoff")
        result = compute(
            tree_a,
            tree_b,
            algorithm=payload.get("algorithm", self.algorithm),
            engine=payload.get("engine", self.engine),
            cutoff=cutoff,
            deadline=deadline,
        )
        body: Dict[str, object] = {
            "algorithm": result.algorithm,
            "kernel": result.extra["kernel"],
            "subproblems": result.subproblems,
        }
        if result.bounded:
            body.update(bounded=True, lower_bound=result.lower_bound, cutoff=result.cutoff)
        else:
            body["distance"] = result.distance
        return body

    def _do_corpus_distance(self, payload, deadline: Deadline):
        """Distance between two registered trees, memoized per epoch.

        The cache key is ``(epoch, i, j, algorithm, engine, cost model,
        cutoff)``: the epoch component makes mutation invalidation implicit
        (a stale entry's key can never be constructed again); the engine
        component keeps bodies apart whose ``kernel`` and ``subproblems``
        differ (``auto`` may run the small-pair program where ``spf`` runs
        RTED's strategy); and the cost-model component is the literal
        ``"unit"`` until the endpoint grows a cost-model field — kept in the
        key now so adding one later cannot silently alias entries.
        """
        name, _ = self._corpus_engine(payload)
        i = self._field(payload, "i", int, "an integer tree id")
        j = self._field(payload, "j", int, "an integer tree id")
        algorithm = payload.get("algorithm", self.algorithm)
        engine = resolve_engine(payload.get("engine", self.engine))
        # Validated before it enters the cache key, so +inf and no cutoff
        # share one entry.
        cutoff = validate_cutoff(payload.get("cutoff"))
        cache = self._pair_caches[name]
        with self._locks[name]:
            corpus = self.corpora[name]
            n = len(corpus)
            if not (0 <= i < n) or not (0 <= j < n):
                raise _HttpError(
                    400, f"tree ids must be in [0, {n}) for corpus {name!r}"
                )
            epoch = corpus.epoch
            key = (epoch, i, j, str(algorithm), engine, "unit", cutoff)
            cached = cache.get(key)
            if cached is not None:
                return {**cached, "cached": True, "epoch": epoch}
            result = compute(
                corpus.trees[i],
                corpus.trees[j],
                algorithm=algorithm,
                engine=engine,
                cutoff=cutoff,
                deadline=deadline,
            )
            body: Dict[str, object] = {
                "algorithm": result.algorithm,
                "kernel": result.extra["kernel"],
                "subproblems": result.subproblems,
            }
            if result.bounded:
                body.update(
                    bounded=True, lower_bound=result.lower_bound, cutoff=result.cutoff
                )
            else:
                body["distance"] = result.distance
            cache.put(key, body)
            return {**body, "cached": False, "epoch": epoch}

    def _do_knn(self, payload, deadline: Deadline):
        name, engine = self._corpus_engine(payload)
        query = parse_tree(self._field(payload, "query", str, "a tree string"))
        k = self._field(payload, "k", int, "an integer")
        with self._locks[name]:
            result = engine.knn(query, k, deadline=deadline)
        return self._query_body(result)

    def _do_range(self, payload, deadline: Deadline):
        name, engine = self._corpus_engine(payload)
        query = parse_tree(self._field(payload, "query", str, "a tree string"))
        threshold = self._field(payload, "threshold", (int, float), "a number")
        with self._locks[name]:
            result = engine.range_query(query, float(threshold), deadline=deadline)
        return self._query_body(result)

    def _query_body(self, result) -> Dict[str, object]:
        stats = result.stats.as_dict()
        self.last_query_stats = stats
        if result.stats.partial:
            self.counters.partial_results += 1
        return {
            "matches": [[j, d] for j, d in result.matches],
            "partial": result.stats.partial,
            "stats": stats,
        }

    def _do_join(self, payload, deadline: Deadline):
        from ..join.batch import batch_similarity_join

        name, _ = self._corpus_engine(payload)
        corpus_b = None
        if "corpus_b" in payload:
            other = payload["corpus_b"]
            if not isinstance(other, str) or other not in self.corpora:
                raise _HttpError(400, f"unknown corpus_b {other!r}")
            corpus_b = self.corpora[other]
        threshold = self._field(payload, "threshold", (int, float), "a number")
        with self._locks[name]:
            result = batch_similarity_join(
                self.corpora[name],
                float(threshold),
                corpus_b=corpus_b,
                algorithm=payload.get("algorithm", self.algorithm),
                engine=payload.get("engine", self.engine),
                workers=self.workers,
                deadline=deadline,
            )
        stats = result.stats.as_dict()
        self.last_join_stats = stats
        return {
            "matches": [[i, j, d] for i, j, d in result.matches],
            "threshold": result.threshold,
            "stats": stats,
        }


# --------------------------------------------------------------------------- #
# The blocking entry point behind ``rted serve``
# --------------------------------------------------------------------------- #
def run_server(
    corpora: Dict[str, TreeCorpus],
    config: ServiceConfig,
    algorithm: str = "rted",
    engine: Optional[str] = None,
    workers: int = 1,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Prints one ``listening on HOST:PORT`` line to stderr once ready (the
    CI smoke leg waits for it), and exits 0 after a clean drain.
    """

    async def _main() -> int:
        service = RtedService(
            corpora, config, algorithm=algorithm, engine=engine, workers=workers
        )
        await service.start()
        print(
            f"rted serve: listening on {config.host}:{service.port} "
            f"(corpora: {', '.join(sorted(corpora)) or 'none'})",
            file=sys.stderr,
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("rted serve: draining", file=sys.stderr, flush=True)
        await service.drain()
        print("rted serve: drained, exiting", file=sys.stderr, flush=True)
        return 0

    return asyncio.run(_main())
