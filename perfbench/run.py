"""End-to-end benchmark of ``rted serve``: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload pair-distance --seed 1 --seconds 20 --trace 0

A run is ``PASSES`` passes.  Each pass starts a fresh ``rted serve``
subprocess (through ``serve.py``), times its start-up and warm-up, and
drives it over HTTP from this one client process, in closed loop, with
the same fixed op list: ``seconds × RATE[workload] / PASSES`` ops, so the
passes together hold about ``--seconds`` of work on a 2-CPU x86-64 VM.
Every pass must return the same exact work counts.  A host-speed probe
(``calibrate.py``) runs at idle priority on the server's CPU for the whole
run, and every time is scaled to the probe's reference speed.

``--trace 0`` prints the end-to-end metrics of the chosen workload.
``--trace 1`` runs one traced pass of every workload and prints the
per-layer metrics (each measured on the workload ``README.md`` names for
it), plus the tracing overhead: the p50 difference between two traced and
two untraced passes of the chosen workload, run alternately.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report and a ``# stamp`` line (commit or source digest,
machine, Python, nproc, seed, sample counts, tail percentile).  Metric
names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Timed ops per second of ``--seconds``: each workload's throughput at
#: the reference speed (``SPEED_REF_NS``), so the passes together take
#: about ``--seconds`` on a quiet host.
RATE = {"pair-distance": 40.0, "query-churn": 15.0, "self-join": 3.3}
#: Passes per run, each on a fresh server; ``setup_s`` is the median of
#: their start-ups, the other metrics pool their ops.
PASSES = 3
#: Candidate tail percentiles, highest first; the tail is the highest one
#: with at least ten samples beyond it.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: Add/delete pairs timed after the window on workloads without writes.
PROBE_CYCLES = 100
#: Iteration time of the host-speed probe (``calibrate.py``) on a quiet
#: 2-CPU x86-64 VM, in ns.  Every time is scaled by this ÷ the probe's
#: median iteration time beside it, so it reads as on that quiet host.
SPEED_REF_NS = 145_000
CLIENT_CPU, SERVER_CPU = 0, 1
REQUEST_TIMEOUT = 120.0


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------- #
# Build and environment
# --------------------------------------------------------------------------- #
#: Whether client and server get a CPU each (decided before the client
#: pins itself).
PINNED = hasattr(os, "sched_getaffinity") and {CLIENT_CPU, SERVER_CPU} <= os.sched_getaffinity(0)


def server_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RTED_")}
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env.pop("PYTHONPATH", None)
    return env


def build() -> None:
    """Byte-compile the sources and the native kernel once per checkout,
    so no run times a compile."""
    marker = os.path.join(WORK, "build.ok")
    if os.path.exists(marker):
        return
    log("building (byte-compile + native kernel)")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC], check=True, env=server_env(),
        stdout=subprocess.DEVNULL,
    )
    probe = "import sys; sys.path.insert(0, sys.argv[1]); " \
        "from repro.algorithms.native import native_provider; print(native_provider())"
    done = subprocess.run(
        [sys.executable, "-c", probe, SRC], check=True, env=server_env(),
        capture_output=True, text=True, timeout=600,
    )
    log(f"native provider: {done.stdout.strip()}")
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write(done.stdout)


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def stamp(args, samples: Dict[str, int], tail_pct: Optional[float]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": source_digest(),
        "machine": f"{platform.machine()} {cpu_model}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned": PINNED,
        "passes": PASSES,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "tail_percentile": tail_pct,
    }


# --------------------------------------------------------------------------- #
# The server under test
# --------------------------------------------------------------------------- #
class Server:
    """One ``rted serve`` process started through ``serve.py``."""

    def __init__(self, corpus_files: Dict[str, str], tag: str, trace: bool) -> None:
        self.log_path = os.path.join(WORK, f"server-{tag}.log")
        self.trace_path = os.path.join(WORK, f"spans-{tag}.json") if trace else None
        command = [sys.executable, os.path.join(ROOT, "perfbench", "serve.py")]
        if self.trace_path:
            command += ["--trace-out", self.trace_path]
        command += ["--", "serve", "--port", "0"]
        command += [f"{name}=@{path}" for name, path in corpus_files.items()]
        self.command = command
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        with open(self.log_path, "w", encoding="utf-8") as log_file:
            self.proc = subprocess.Popen(
                self.command, cwd=ROOT, env=server_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log_file,
                # Before exec, so every thread of the server inherits it.
                preexec_fn=(lambda: os.sched_setaffinity(0, {SERVER_CPU})) if PINNED else None,
            )
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as handle:
                for line in handle:
                    if "listening on" in line:
                        self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
                        return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = sum(int(value) for value in fields[11:15])  # utime stime cutime cstime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> List[list]:
        """SIGTERM (graceful drain), wait, and return the recorded spans."""
        if self.proc is None:
            return []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        code, self.proc = self.proc.returncode, None
        if code != 0:
            raise RuntimeError(f"server exited with {code}; see {self.log_path}")
        if self.trace_path:
            with open(self.trace_path, encoding="utf-8") as handle:
                return json.load(handle)
        return []


class SpeedProbe:
    """``calibrate.py`` at idle priority on the server's CPU, for a whole run."""

    def __init__(self) -> None:
        self.path = os.path.join(WORK, "speed.json")
        command = [sys.executable, os.path.join(ROOT, "perfbench", "calibrate.py"), self.path]
        if PINNED:
            command.append(str(SERVER_CPU))
        self.proc = subprocess.Popen(command, cwd=ROOT, env=server_env(),
                                     stdin=subprocess.DEVNULL)
        self.ends: List[int] = []
        self.costs: List[int] = []

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"speed probe exited with {self.proc.returncode}")
        with open(self.path, encoding="utf-8") as handle:
            self.ends, self.costs = json.load(handle)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """``SPEED_REF_NS`` ÷ the median probe iteration that ended within
        ¼ s of ``[start_ns, end_ns]`` (further, until 16 are found)."""
        pad = 250_000_000
        while True:
            lo = bisect.bisect_left(self.ends, start_ns - pad)
            hi = bisect.bisect_right(self.ends, end_ns + pad)
            if hi - lo >= 16 or pad > 16_000_000_000:
                break
            pad *= 2
        if hi == lo:
            raise RuntimeError("the speed probe recorded nothing near a timed interval")
        return SPEED_REF_NS / statistics.median(self.costs[lo:hi])

    def seconds(self, start_ns: int, end_ns: int) -> float:
        """The interval's length in seconds at the reference speed: the sum
        of its 0.1-s slices, each scaled by the speed beside it."""
        step = 100_000_000
        total = 0.0
        for lo in range(start_ns, end_ns, step):
            hi = min(lo + step, end_ns)
            total += (hi - lo) * self.scale(lo, hi)
        return total / 1e9


def request(port: int, op):
    """One HTTP exchange: ``(status, body, seconds, start_ns, end_ns)``.
    The time runs from connect/send to the last response byte; status 0
    marks a transport failure."""
    import http.client

    start = time.perf_counter_ns()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if op.body is not None else {}
        conn.request(op.method, op.path, body=op.body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        status = response.status
    except (OSError, http.client.HTTPException) as exc:
        status, data = 0, repr(exc).encode()
    finally:
        conn.close()
    end = time.perf_counter_ns()
    return status, data, (end - start) / 1e9, start, end


def closed_loop(port: int, ops, connections: int):
    """Run ``ops`` over ``connections`` closed-loop clients; connection
    ``c`` sends ops ``c, c + connections, ...``, each after the previous
    reply."""
    responses: list = [None] * len(ops)

    def client(first: int) -> None:
        for pos in range(first, len(ops), connections):
            responses[pos] = request(port, ops[pos])

    if connections == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(c,)) for c in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return responses


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def tail(values: List[float]):
    """``(percentile, value)``: the highest ladder percentile with at least
    ten samples beyond it (nearest-rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


# --------------------------------------------------------------------------- #
# One pass = one server, warm-up, timed ops
# --------------------------------------------------------------------------- #
class Pass:
    def __init__(self, workload, corpus_files, ops, tag: str, trace: bool) -> None:
        self.workload = workload
        self.server = Server(corpus_files, tag, trace)
        self.ops = ops
        self.probe: list = []

    def setup(self) -> None:
        """Spawn → listening → warm-up done."""
        start = time.perf_counter_ns()
        self.server.start()
        for op in self.workload.warmup_ops:
            status, data, *_ = request(self.server.port, op)
            if status != 200:
                raise RuntimeError(f"warm-up {op.method} {op.path} failed: {status} {data[:200]!r}")
        self.setup_span = (start, time.perf_counter_ns())

    def run(self) -> None:
        cpu0 = self.server.cpu_seconds()
        self.window_start = time.perf_counter_ns()
        self.responses = closed_loop(self.server.port, self.ops, self.workload.connections)
        self.window_end = time.perf_counter_ns()
        self.cpu_s = self.server.cpu_seconds() - cpu0
        self.peak_rss_mb = self.server.peak_rss_mb()
        self.wall_s = (self.window_end - self.window_start) / 1e9

    def check(self):
        """``(failed, notes, counts)`` of this pass's responses."""
        failed, notes = self.workload.check(self.ops, self.responses)
        return len(failed), notes, self.workload.counts(self.ops, self.responses)

def latencies_ms(passes: List[Pass], kind: str, speed: Optional[SpeedProbe]) -> List[float]:
    """Latencies of the ops of ``kind`` over all ``passes``, in ms at the
    reference speed (as measured without ``speed``)."""
    return [(speed.seconds(*r[3:5]) if speed else r[2]) * 1e3
            for p in passes for op, r in zip(p.ops, p.responses) if op.kind == kind]


def write_probe(port: int, ops):
    """Post-window corpus writes: ``(responses, failed, notes)``."""
    latencies, failed, notes = [], 0, []
    for op in ops:
        status, data, *timing = request(port, op)
        if op.kind != "write":
            if status != 200:
                raise RuntimeError(f"write probe set-up failed: {status} {data[:200]!r}")
            continue
        latencies.append((status, b"", *timing))
        body = json.loads(data) if status == 200 else {}
        kind, first, size = op.meta
        ok = body.get("size") == size and (
            body.get("added") == [first] if kind == "add" else body.get("removed") == first
        )
        if not ok:
            failed += 1
            notes.append(f"probe {op.method} {op.path}: {status} {data[:120]!r}")
    return latencies, failed, notes


def write_corpora(workload) -> Dict[str, str]:
    files = {}
    for name, trees in workload.corpora.items():
        path = os.path.join(WORK, f"corpus-{workload.name}-{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(trees) + "\n")
        files[name] = path
    return files


def n_ops(workload, seconds: float) -> int:
    return max(workload.min_ops, round(seconds * RATE[workload.name]))


def same_counts(label: str, passes: List[tuple]) -> List[str]:
    """Every pass of one op list must report the same exact counts."""
    first_label, first = passes[0]
    return [
        f"exact counts of {other_label} differ from {first_label} ({label}): "
        + ", ".join(f"{k} {first.get(k)} vs {counts.get(k)}"
                    for k in sorted(set(first) | set(counts)) if first.get(k) != counts.get(k))
        for other_label, counts in passes[1:] if counts != first
    ]


# --------------------------------------------------------------------------- #
# The two kinds of run
# --------------------------------------------------------------------------- #
def run_end_to_end(args, workload):
    from workloads import write_probe_ops

    files = write_corpora(workload)
    ops = workload.ops(n_ops(workload, args.seconds / PASSES))
    probe_ops = [] if workload.has_writes else write_probe_ops(args.seed, PROBE_CYCLES)
    passes = []
    speed = SpeedProbe()
    try:
        for attempt in range(PASSES):
            run = Pass(workload, files, ops, f"e2e-{attempt}", trace=False)
            try:
                run.setup()
                run.run()
                if probe_ops:
                    run.probe = write_probe(run.server.port, probe_ops)
            finally:
                run.server.stop()
            passes.append(run)
    finally:
        speed.stop()

    attempted = failed = 0
    notes: List[str] = []
    pass_counts = []
    for attempt, run in enumerate(passes):
        pass_failed, pass_notes, counts = run.check()
        attempted += len(run.ops)
        failed += pass_failed
        notes += [f"pass {attempt}: {note}" for note in pass_notes]
        pass_counts.append((f"pass {attempt}", counts))
        if run.probe:
            latencies, probe_failed, probe_notes = run.probe
            attempted += len(latencies)
            failed += probe_failed
            notes += probe_notes
    notes += same_counts(workload.name, pass_counts)

    reads = latencies_ms(passes, "read", speed)
    if probe_ops:
        writes = [speed.seconds(*r[3:5]) * 1e3 for run in passes for r in run.probe[0]]
    else:
        writes = latencies_ms(passes, "write", speed)
    tail_pct, tail_ms = tail(reads)
    walls = [speed.seconds(run.window_start, run.window_end) for run in passes]
    setups = [speed.seconds(*run.setup_span) for run in passes]
    metrics = {
        "p50_ms": statistics.median(reads),
        "tail_ms": tail_ms,
        "throughput_per_s": len(ops) * len(passes) / sum(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in passes),
        "success_rate": (attempted - failed) / attempted,
        "write_p50_ms": statistics.median(writes),
    }
    samples = {"p50_ms": len(reads), "tail_ms": len(reads), "throughput_per_s": len(reads),
               "setup_s": len(setups), "peak_rss_mb": len(passes), "success_rate": attempted,
               "write_p50_ms": len(writes), "speed_probe": len(speed.ends)}
    raw_reads = latencies_ms(passes, "read", None)
    raw_walls = [run.wall_s for run in passes]
    report = [
        f"workload {workload.name}: {len(passes)} passes of {len(ops)} ops "
        f"({workload.connections} connection(s), closed loop); tail percentile p{tail_pct:g} "
        f"over {len(reads)} reads; write p50 over {len(writes)} writes",
        f"speed (reference ÷ probe) per pass: "
        + ", ".join(f"{w / r:.3f}" for w, r in zip(walls, raw_walls)),
        f"as measured: p50 {statistics.median(raw_reads):.3f} ms, tail {tail(raw_reads)[1]:.3f} ms, "
        f"throughput {len(reads) / sum(raw_walls):.4f}/s, pass walls "
        f"{[round(w, 3) for w in raw_walls]} s, setups "
        f"{[round((e - s) / 1e9, 3) for s, e in (run.setup_span for run in passes)]} s",
        f"scaled: pass p50s "
        f"{[round(statistics.median(latencies_ms([run], 'read', speed)), 3) for run in passes]} ms, "
        f"pass walls {[round(w, 3) for w in walls]} s, setups {[round(s, 3) for s in setups]} s",
        f"exact counts {json.dumps(pass_counts[0][1], sort_keys=True)}",
    ]
    return metrics, attempted, failed, notes, report, stamp(args, samples, tail_pct)


def run_traced(args, workloads):
    """One traced pass of every workload; the chosen workload also gets an
    untraced, a second traced and a second untraced pass, alternating,
    for the tracing overhead."""
    import layers

    metrics: Dict[str, float] = {}
    attempted = failed = 0
    notes: List[str] = []
    report: List[str] = []
    samples: Dict[str, int] = {}
    chosen: Dict[bool, List[Pass]] = {True: [], False: []}
    speed = SpeedProbe()
    try:
        for name, workload in workloads.items():
            files = write_corpora(workload)
            ops = workload.ops(n_ops(workload, args.seconds / 3.0))
            order = (True, False, True, False) if name == args.workload else (True,)
            pass_counts = []
            for attempt, trace in enumerate(order):
                label = f"{'traced' if trace else 'untraced'}-{attempt}"
                run = Pass(workload, files, ops, f"{label}-{name}", trace)
                try:
                    run.setup()
                    run.run()
                finally:
                    spans = run.server.stop()
                pass_failed, pass_notes, counts = run.check()
                attempted += len(run.ops)
                failed += pass_failed
                notes += [f"{name} {label}: {note}" for note in pass_notes]
                pass_counts.append((label, counts))
                if name == args.workload:
                    chosen[trace].append(run)
                if attempt > 0:
                    continue
                window = layers.Spans(spans, (run.window_start, run.window_end))
                layer = layers.LAYERS[name](window, run.ops, run.responses, counts, run.cpu_s)
                metrics.update(layer)
                samples[f"{name}.ops"] = len(run.ops)
                report.append(
                    f"traced {name}: {len(run.ops)} ops in {run.wall_s:.2f} s; self ms/op: "
                    + ", ".join(f"{span} {ms / len(run.ops):.3f}"
                                for span, ms in sorted(window.self_ms().items()))
                )
            notes += same_counts(name, pass_counts)
    finally:
        speed.stop()

    def p50(runs):
        return statistics.median(latencies_ms(runs, "read", speed))

    traced_p50, plain_p50 = p50(chosen[True]), p50(chosen[False])
    pct = 100.0 * (traced_p50 - plain_p50) / plain_p50
    # Noise floor: how far the two passes of one side differ.
    floor = max(100.0 * abs(p50([a]) - p50([b])) / min(p50([a]), p50([b]))
                for a, b in (chosen[True], chosen[False]))
    metrics["trace.p50_overhead_pct"] = pct
    report.append(
        f"tracing overhead on {args.workload}: scaled p50 {plain_p50:.3f} ms untraced, "
        f"{traced_p50:.3f} ms traced (2 alternating passes each) = {pct:+.2f} %; "
        f"the two passes of one side differ by up to {floor:.2f} %, so the overhead is "
        + ("resolved" if abs(pct) > floor else "unresolved (within that spread)")
    )
    samples["trace.p50_overhead_pct"] = 2 * len(chosen[True][0].ops)
    return metrics, attempted, failed, notes, report, stamp(args, samples, None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.exists(spec_path):
        log(f"no repro sources under {SRC} (or no BENCHMARK.json); nothing to measure")
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 64
    # SIGTERM unwinds like an error, so every server and probe is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(WORK, "tmp")
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if PINNED:
        os.sched_setaffinity(0, {CLIENT_CPU})
    build()

    from workloads import WORKLOADS

    try:
        if args.trace:
            wanted = spec["per_layer"]
            workloads = {name: cls(args.seed) for name, cls in WORKLOADS.items()}
            result = run_traced(args, workloads)
        else:
            wanted = spec["end_to_end"]
            result = run_end_to_end(args, WORKLOADS[args.workload](args.seed))
    except Exception:  # report, never print a result line
        traceback.print_exc()
        return 1
    metrics, attempted, failed, notes, report, run_stamp = result
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"metrics not measured: {missing}")
        return 1
    for line in report:
        print(f"# {line}")
    for note in notes:
        print(f"# FAIL {note}")
    print(f"# stamp {json.dumps(run_stamp, sort_keys=True)}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not notes and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
