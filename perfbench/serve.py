"""Server bootstrap for the benchmark: ``rted serve`` with optional tracing.

Usage (from the repository root)::

    python3 perfbench/serve.py [--trace-out PATH] -- serve @corpus ...

Everything after ``--`` is handed to ``repro.cli.main`` unchanged.  With
``--trace-out`` it
wraps the public entry points of each layer (listed in
:func:`install_tracing`) in span recorders *as the server looks them up*,
keeps the spans in memory, and writes them as JSON to ``PATH`` once the
server has drained.  No source under ``src/`` is changed.

A span is ``[id, name, start_ns, end_ns, parent_id]``.  Parents follow the
call nesting inside one thread; the compute span that runs on an executor
thread is linked to the request's ``service.handle`` span through the
request payload object, which both sides see.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SPANS: list = []
_IDS = itertools.count(1)
_LOCAL = threading.local()
_CURRENT_REQUEST: contextvars.ContextVar = contextvars.ContextVar("request", default=None)
_REQUEST_OF_PAYLOAD: dict = {}


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _span(func, name, parent_of=None):
    """Wrap a synchronous callable so each call records one span."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = parent_of(args) if parent_of is not None else None
        if parent is None and stack:
            parent = stack[-1]
        sid = next(_IDS)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            _SPANS.append((sid, name, start, end, parent))

    return wrapper


def _async_span(func, name):
    """Wrap a coroutine method; the span id is visible to its context."""

    @functools.wraps(func)
    async def wrapper(*args, **kwargs):
        sid = next(_IDS)
        token = _CURRENT_REQUEST.set(sid)
        start = time.perf_counter_ns()
        try:
            return await func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            _CURRENT_REQUEST.reset(token)
            _SPANS.append((sid, name, start, end, None))

    return wrapper


def install_tracing() -> None:
    """Replace each layer's entry points with span-recording wrappers."""
    # import_module, not ``from package import name``: some package
    # namespaces re-export a function under its module's name.
    batch_kernel, native, rted, workspace, batch, corpus, metric_index, pipeline, query, server = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "algorithms.batch_kernel", "algorithms.native", "algorithms.rted",
            "algorithms.workspace", "join.batch", "join.corpus", "join.metric_index",
            "join.pipeline", "join.query", "service.server",
        )
    )

    service = server.RtedService

    # service.handle runs on the event loop; service.compute on an executor
    # thread.  The deadline is built from the payload inside the handle
    # span, and the same payload object reaches _compute.
    request_deadline = service._request_deadline

    def linked_request_deadline(self, payload):
        _REQUEST_OF_PAYLOAD[id(payload)] = _CURRENT_REQUEST.get()
        return request_deadline(self, payload)

    service._request_deadline = linked_request_deadline
    service._handle_compute = _async_span(service._handle_compute, "service.handle")
    service._compute = _span(
        service._compute,
        "service.compute",
        parent_of=lambda args: _REQUEST_OF_PAYLOAD.pop(id(args[2]), None),
    )

    for owner, attr, name in (
        (server, "parse_tree", "io.parse"),
        (server, "compute", "algorithms.compute"),
        (rted, "optimal_strategy", "algorithms.strategy"),
        (batch_kernel, "run_batch", "algorithms.batch_kernel"),
        (native, "native_batch", "algorithms.native_batch"),
        (workspace.TedWorkspace, "compute_small", "algorithms.workspace_small"),
        (batch, "batch_distances", "join.batch.verify"),
        (query.QueryEngine, "range_query", "join.query.range"),
        (query.QueryEngine, "knn", "join.query.knn"),
        (corpus.TreeCorpus, "add_trees", "join.corpus.add"),
        (corpus.TreeCorpus, "remove_trees", "join.corpus.remove"),
        (corpus.TreeCorpus, "pack", "join.corpus.pack"),
        (corpus.CorpusSnapshot, "pack", "join.corpus.pack"),
        (pipeline, "execute_plan", "join.cascade.execute_plan"),
    ):
        setattr(owner, attr, _span(getattr(owner, attr), name))

    build = metric_index.VPTree.__dict__["build"].__func__
    metric_index.VPTree.build = classmethod(_span(build, "join.metric_index.build"))


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out = argv[1]
        argv = argv[2:]
    if argv[:1] != ["--"]:
        print("serve.py: expected [--trace-out PATH] -- followed by rted arguments",
              file=sys.stderr)
        return 64
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.cli import main as rted_main

    if trace_out:
        install_tracing()
    code = rted_main(argv[1:])
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(_SPANS, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
