#!/usr/bin/env python3
"""Benchmark: the serving layer — deadline overhead, latency, load shedding.

Three measurements back the PR's serving-layer claims:

* **deadline-check overhead** — the amortized ``Deadline.tick`` machinery
  must cost < 1–2% of kernel time on armed-but-never-firing runs (the
  adaptive interval doubles until actual clock reads land roughly once per
  ``TARGET_RESOLUTION``); measured as armed-vs-plain wall clock on a
  mid-size pair, plus the interval the adaptation settled on.  This is the
  measurement justifying the check interval: the gate fails if overhead
  exceeds 5% (noise margin over the ~1% target).
* **latency percentiles under concurrency** — p50/p95/p99 of ``/distance``
  round trips at increasing client concurrency against an in-process
  service (admission queue sized to admit everything).
* **shed rate under overload** — a burst far beyond the admission bound
  against a one-slot service: the gate asserts overload produces fast 503
  shedding (bounded queue), not queue growth, and that every response —
  served or shed — returns promptly.
* **where computing on the event loop stops paying** — concurrent
  ``/distance`` pairs of growing size against two ``rted serve`` processes
  on every CPU, one computing every small-pair-program pair on its event
  loop and one computing every pair on its executor.  This is the
  measurement behind ``server.INLINE_CELLS``; it is recorded, not gated.

Run with::

    PYTHONPATH=src python benchmarks/bench_service.py            # full, writes BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py --quick    # CI smoke gate

The committed ``BENCH_service.json`` is a full run, stamped with the git
commit it measured and the machine (``stamp.py``).  In ``--quick`` mode
nothing is written unless ``--output`` is given.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

import urllib.error
import urllib.request

from repro.algorithms.batch_kernel import SMALL_PAIR_CELLS, sweep_sizes
from repro.api import compute
from repro.datasets import random_tree
from repro.io import to_bracket
from repro.join import TreeCorpus
from repro.runtime import Deadline, TARGET_RESOLUTION
from repro.service import RtedService, ServiceConfig
from stamp import machine_stamp

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_service.json"

#: CI gate on the armed-run overhead: comfortably above the ~1% design
#: target, comfortably below anything that would signal a broken interval.
OVERHEAD_GATE = 0.05


# --------------------------------------------------------------------------- #
# Deadline-check overhead (pure library, no HTTP)
# --------------------------------------------------------------------------- #
def measure_overhead(quick: bool) -> Dict:
    f, g = random_tree(260, rng=11), random_tree(250, rng=12)
    reps = 4 if quick else 9
    compute(f, g)  # warm caches before timing

    deadline = Deadline(3600.0)
    plain_times: List[float] = []
    armed_times: List[float] = []
    # Interleave the two variants so clock drift and background load hit
    # both equally; min-of-reps then cancels the noise floor.
    for _ in range(reps):
        start = time.perf_counter()
        compute(f, g)
        plain_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        compute(f, g, deadline=deadline)
        armed_times.append(time.perf_counter() - start)
    plain, armed = min(plain_times), min(armed_times)
    return {
        "pair_nodes": [f.n, g.n],
        "plain_seconds": plain,
        "armed_seconds": armed,
        "overhead_fraction": armed / plain - 1.0,
        "settled_tick_interval": deadline.interval,
        "target_resolution_seconds": TARGET_RESOLUTION,
    }


# --------------------------------------------------------------------------- #
# HTTP helpers
# --------------------------------------------------------------------------- #
def _post(base: str, path: str, body: dict, timeout: float = 60.0):
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status = response.status
            response.read()
    except urllib.error.HTTPError as error:
        status = error.code
        error.read()
    return status, time.perf_counter() - start


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies)

    def pct(p: float) -> float:
        return ordered[min(len(ordered) - 1, int(p * len(ordered)))]

    return {
        "p50_ms": pct(0.50) * 1000,
        "p95_ms": pct(0.95) * 1000,
        "p99_ms": pct(0.99) * 1000,
        "mean_ms": statistics.fmean(ordered) * 1000,
    }


# --------------------------------------------------------------------------- #
# Latency under concurrency + shedding under overload
# --------------------------------------------------------------------------- #
async def bench_latency(quick: bool) -> List[Dict]:
    corpus = TreeCorpus([random_tree(16, rng=i) for i in range(20)])
    service = RtedService(
        {"default": corpus},
        ServiceConfig(port=0, max_inflight=4, max_queue=1024),
    )
    await service.start()
    base = f"http://127.0.0.1:{service.port}"
    tree_a = to_bracket(random_tree(24, rng=1))
    tree_b = to_bracket(random_tree(24, rng=2))
    body = {"tree_a": tree_a, "tree_b": tree_b}
    loop = asyncio.get_running_loop()
    pool = ThreadPoolExecutor(max_workers=32)
    entries = []
    try:
        total = 40 if quick else 200
        for concurrency in [1, 4, 8]:
            gate = asyncio.Semaphore(concurrency)

            async def one():
                async with gate:
                    return await loop.run_in_executor(
                        pool, partial(_post, base, "/distance", body)
                    )

            start = time.perf_counter()
            outcomes = await asyncio.gather(*(one() for _ in range(total)))
            wall = time.perf_counter() - start
            latencies = [seconds for status, seconds in outcomes if status == 200]
            entry = {
                "concurrency": concurrency,
                "requests": total,
                "served": len(latencies),
                "throughput_rps": total / wall,
                **_percentiles(latencies),
            }
            entries.append(entry)
            print(
                f"concurrency={concurrency} p50={entry['p50_ms']:6.1f}ms "
                f"p95={entry['p95_ms']:6.1f}ms p99={entry['p99_ms']:6.1f}ms "
                f"rps={entry['throughput_rps']:6.1f}",
                flush=True,
            )
    finally:
        await service.drain()
        pool.shutdown(wait=False)
    return entries


async def bench_shedding(quick: bool) -> Dict:
    corpus = TreeCorpus([random_tree(16, rng=i) for i in range(10)])
    service = RtedService(
        {"default": corpus},
        ServiceConfig(port=0, max_inflight=1, max_queue=2, retry_after=1.0),
    )
    await service.start()
    base = f"http://127.0.0.1:{service.port}"
    # Each admitted request takes real work; the burst arrives all at once.
    tree_a = to_bracket(random_tree(120, rng=7))
    tree_b = to_bracket(random_tree(120, rng=8))
    body = {"tree_a": tree_a, "tree_b": tree_b, "deadline": 5.0}
    loop = asyncio.get_running_loop()
    burst = 12 if quick else 40
    pool = ThreadPoolExecutor(max_workers=burst)
    try:
        start = time.perf_counter()
        outcomes = await asyncio.gather(
            *(
                loop.run_in_executor(pool, partial(_post, base, "/distance", body))
                for _ in range(burst)
            )
        )
        wall = time.perf_counter() - start
    finally:
        await service.drain()
        pool.shutdown(wait=False)
    shed = sum(1 for status, _ in outcomes if status == 503)
    served = sum(1 for status, _ in outcomes if status == 200)
    slowest = max(seconds for _, seconds in outcomes)
    entry = {
        "burst": burst,
        "served": served,
        "shed": shed,
        "shed_rate": shed / burst,
        "burst_wall_seconds": wall,
        "slowest_response_seconds": slowest,
    }
    print(
        f"overload burst={burst} served={served} shed={shed} "
        f"({entry['shed_rate']:.0%}) slowest={slowest:.2f}s",
        flush=True,
    )
    return entry


# --------------------------------------------------------------------------- #
# Inline versus executor /distance pairs (the INLINE_CELLS break-even)
# --------------------------------------------------------------------------- #
#: A ``rted serve`` process whose event loop computes every pair within
#: ``argv[1]`` cells (0: none, so every pair takes the executor).
_SERVE_WITH_INLINE_CELLS = """
import sys
from repro.service import server
server.INLINE_CELLS = int(sys.argv[1])
sys.exit(server.run_server({}, server.ServiceConfig(port=0)))
"""


def _start_server(inline_cells: int):
    process = subprocess.Popen(
        [sys.executable, "-c", _SERVE_WITH_INLINE_CELLS, str(inline_cells)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = process.stderr.readline()
    if "listening on" not in line:
        process.kill()
        raise RuntimeError(f"rted serve did not start: {line!r}")
    return process, int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])


async def _round_trip(port: int, request: bytes) -> float:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    start = time.perf_counter()
    writer.write(request)
    await writer.drain()
    response = await reader.read()
    writer.close()
    if not response.startswith(b"HTTP/1.1 200 "):
        raise RuntimeError(f"unexpected response {response[:120]!r}")
    return time.perf_counter() - start


async def _drive(port: int, request: bytes, concurrency: int, seconds: float) -> Dict:
    for _ in range(20):
        await _round_trip(port, request)
    latencies: List[float] = []
    stop = time.perf_counter() + seconds

    async def client():
        while time.perf_counter() < stop:
            latencies.append(await _round_trip(port, request))

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    wall = time.perf_counter() - start
    return {"throughput_rps": len(latencies) / wall, **_percentiles(latencies)}


def bench_inline_break_even(quick: bool) -> List[Dict]:
    sizes = [80, 160] if quick else [60, 80, 100, 120, 140, 160, 200, 280]
    seconds = 0.5 if quick else 4.0
    concurrency = 4
    servers = {"loop": _start_server(SMALL_PAIR_CELLS), "executor": _start_server(0)}
    entries = []
    try:
        for nodes in sizes:
            f, g = random_tree(nodes, rng=1), random_tree(nodes, rng=2)
            body = json.dumps({"tree_a": to_bracket(f), "tree_b": to_bracket(g)}).encode()
            request = (
                b"POST /distance HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n"
                % len(body)
            ) + body
            cells = min(a * b for a, b in zip(sweep_sizes(f), sweep_sizes(g)))
            entry: Dict = {"nodes": nodes, "cells": cells, "concurrency": concurrency}
            for mode, (_, port) in servers.items():
                entry[mode] = asyncio.run(_drive(port, request, concurrency, seconds))
            entries.append(entry)
            print(
                f"inline break-even cells={cells:7d} "
                f"loop rps={entry['loop']['throughput_rps']:6.1f} "
                f"p50={entry['loop']['p50_ms']:5.2f}ms  "
                f"executor rps={entry['executor']['throughput_rps']:6.1f} "
                f"p50={entry['executor']['p50_ms']:5.2f}ms",
                flush=True,
            )
    finally:
        for process, _ in servers.values():
            process.terminate()
            process.wait()
    return entries


# --------------------------------------------------------------------------- #
def check_gates(overhead: Dict, shedding: Dict) -> List[str]:
    failures = []
    if overhead["overhead_fraction"] > OVERHEAD_GATE:
        failures.append(
            f"deadline-check overhead {overhead['overhead_fraction']:.1%} "
            f"exceeds the {OVERHEAD_GATE:.0%} gate"
        )
    if shedding["shed"] == 0:
        failures.append("overload burst produced no shedding (unbounded queue?)")
    if shedding["served"] == 0:
        failures.append("overload burst served nothing (admission gate stuck)")
    if shedding["slowest_response_seconds"] > 30.0:
        failures.append(
            f"a response took {shedding['slowest_response_seconds']:.1f}s under "
            "overload — shedding is not keeping responses fast"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI smoke run")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    overhead = measure_overhead(args.quick)
    print(
        f"deadline overhead: {overhead['overhead_fraction']:+.2%} "
        f"(interval settled at {overhead['settled_tick_interval']} ticks)",
        flush=True,
    )
    latency = asyncio.run(bench_latency(args.quick))
    shedding = asyncio.run(bench_shedding(args.quick))
    break_even = bench_inline_break_even(args.quick)

    failures = check_gates(overhead, shedding)
    report = {
        "benchmark": (
            "serving layer: deadline overhead, latency percentiles, load shedding, "
            "inline pair break-even"
        ),
        **machine_stamp(),
        "deadline_overhead": overhead,
        "latency": latency,
        "shedding": shedding,
        "inline_break_even": break_even,
        "gates": {
            "overhead_below_gate": not any("overhead" in f for f in failures),
            "overload_sheds": shedding["shed"] > 0,
            "overload_still_serves": shedding["served"] > 0,
        },
    }

    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)

    if args.quick:
        if args.output is not None:
            args.output.write_text(json.dumps(report, indent=2) + "\n")
        print("quick gates:", "FAIL" if failures else "ok")
        return 1 if failures else 0

    output = args.output if args.output is not None else DEFAULT_OUTPUT
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
