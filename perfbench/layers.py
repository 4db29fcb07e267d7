"""Per-layer metrics from a traced pass.

Inputs are the spans the traced server wrote (see ``serve.py``), kept to
those inside the timed window, the client's responses, and the server's
CPU time over the window.  Times of a layer are the summed durations of
its *outermost* spans (a span nested inside another span of the same
layer is not counted twice), so a layer's time is its inclusive time.
Every ``*_ms`` figure is divided by the ops it serves, as stated per
metric in ``README.md``; counts are totals over the pass and repeat
exactly for a seed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

NS_PER_MS = 1e6


class Spans:
    def __init__(self, spans: List[list], window: Tuple[int, int]) -> None:
        start, end = window
        self.by_id = {span[0]: span for span in spans}
        self.spans = [s for s in spans if s[2] >= start and s[3] <= end]

    def outer(self, names: Iterable[str]) -> Tuple[float, int]:
        """``(total ms, count)`` of the outermost spans named in ``names``."""
        names = set(names)
        total = count = 0
        for sid, name, start, end, parent in self.spans:
            if name not in names:
                continue
            if self._nested(parent, names):
                continue
            total += end - start
            count += 1
        return total / NS_PER_MS, count

    def _nested(self, parent, names) -> bool:
        while parent is not None:
            above = self.by_id.get(parent)
            if above is None:
                return False
            if above[1] in names:
                return True
            parent = above[4]
        return False

    def self_ms(self) -> Dict[str, float]:
        """Self time per span name (duration minus the direct children's
        durations), summed over the window, in ms."""
        own: Dict[str, float] = defaultdict(float)
        names = {span[0]: span[1] for span in self.spans}
        for sid, name, start, end, parent in self.spans:
            own[name] += (end - start) / NS_PER_MS
            if parent in names:
                own[names[parent]] -= (end - start) / NS_PER_MS
        return dict(own)

    def durations(self, name: str) -> List[float]:
        return [(s[3] - s[2]) / NS_PER_MS for s in self.spans if s[1] == name]


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def _bodies(responses) -> List[dict]:
    out = []
    for status, data, *_ in responses:
        if status == 200:
            out.append(json.loads(data))
    return out


def pair_distance(spans: Spans, ops, responses, counts, cpu_s) -> Dict[str, float]:
    n = len(ops)
    latency = statistics.fmean(r[2] for r in responses) * 1e3
    handle = statistics.fmean(spans.durations("service.handle"))
    compute = statistics.fmean(spans.durations("service.compute"))
    parse_ms, parse_calls = spans.outer(["io.parse"])
    return {
        "service.transport_ms": latency - handle,
        "service.wait_ms": handle - compute,
        "service.cpu_ms_per_op.pair-distance": cpu_s * 1e3 / n,
        "io.parse_ms": _per(parse_ms, n),
        "io.parse_calls": parse_calls,
        "algorithms.compute_ms": _per(spans.outer(["algorithms.compute"])[0], n),
        "algorithms.strategy_ms": _per(spans.outer(["algorithms.strategy"])[0], n),
        "algorithms.subproblems": counts["algorithms.subproblems"],
    }


def query_churn(spans: Spans, ops, responses, counts, cpu_s) -> Dict[str, float]:
    n = len(ops)
    reads = sum(1 for op in ops if op.kind == "read")
    range_ms, ranges = spans.outer(["join.query.range"])
    knn_ms, knns = spans.outer(["join.query.knn"])
    build_ms, builds = spans.outer(["join.metric_index.build"])
    add_ms, adds = spans.outer(["join.corpus.add"])
    remove_ms, removes = spans.outer(["join.corpus.remove"])
    return {
        "service.cpu_ms_per_op.query-churn": cpu_s * 1e3 / n,
        "algorithms.batch_kernel_ms": _per(
            spans.outer(["algorithms.batch_kernel", "algorithms.native_batch"])[0], n
        ),
        "algorithms.workspace_small_ms": _per(
            spans.outer(["algorithms.workspace_small"])[0], n
        ),
        "join.batch.verify_ms": _per(spans.outer(["join.batch.verify"])[0], n),
        "join.batch.exact_computed": counts["join.batch.exact_computed"],
        "join.batch.aborted_early": counts["join.batch.aborted_early"],
        "join.query.range_ms": _per(range_ms, ranges),
        "join.query.knn_ms": _per(knn_ms, knns),
        "join.query.examined_per_query": counts["join.batch.exact_computed"] / reads,
        "join.query.examined_share": counts["join.batch.exact_computed"]
        / counts["join.query.corpus_size_sum"],
        "join.query.side_evaluated": counts["join.query.side_evaluated"],
        "join.metric_index.build_ms": _per(build_ms, builds),
        "join.metric_index.builds": builds,
        "join.metric_index.nodes_visited": counts["join.metric_index.nodes_visited"],
        "join.metric_index.pruned_subtrees": counts["join.metric_index.pruned_subtrees"],
        "join.corpus.add_ms": _per(add_ms, adds),
        "join.corpus.remove_ms": _per(remove_ms, removes),
        "join.corpus.pack_ms": _per(spans.outer(["join.corpus.pack"])[0], n),
    }


def self_join(spans: Spans, ops, responses, counts, cpu_s) -> Dict[str, float]:
    n = len(ops)
    stats = [body["stats"] for body in _bodies(responses)]
    candidates = counts["join.cascade.candidate_pairs"]
    filter_ms = sum(s["cascade_time"] for s in stats) * 1e3
    metrics = {
        "service.cpu_ms_per_op.self-join": cpu_s * 1e3 / n,
        "join.cascade.candidate_ms": sum(s["candidate_time"] for s in stats) * 1e3 / n,
        "join.cascade.filter_ms": filter_ms / n,
        "join.cascade.verify_ms": sum(s["verify_time"] for s in stats) * 1e3 / n,
        "join.cascade.execute_ms": _per(spans.outer(["join.cascade.execute_plan"])[0], n),
        "join.cascade.filter_us_per_candidate": filter_ms * 1e3 / candidates,
        "join.cascade.hit_rate": counts["join.cascade.matches"] / candidates,
    }
    for key, value in counts.items():
        if key.startswith("join.cascade.") and key != "join.cascade.matches":
            metrics[key] = value
    return metrics


LAYERS = {"pair-distance": pair_distance, "query-churn": query_churn, "self-join": self_join}
