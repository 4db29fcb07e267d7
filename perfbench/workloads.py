"""Deterministic inputs, op lists and correctness checks of the three workloads.

Every input is made from the benchmark seed; the server receives only the
generated corpus files and request bodies.  Tree *sizes* walk fixed
lattices, the same for every seed, so every run holds the same size mix
and the seed varies shapes, labels and which trees are picked: that keeps
the work per run, and so the figures, steady from seed to seed.

An op is ``Op(kind, method, path, body, meta)``; ``kind`` is ``"read"``
or ``"write"``.  ``meta`` keeps what the checks need.  Each workload class
provides:

``corpora``      name → list of bracket strings, registered at start-up;
``connections``  closed-loop client connections;
``has_writes``   whether the timed ops include corpus writes;
``min_ops``      the fewest timed ops a pass may hold;
``warmup_ops``   requests run before timing (lazy builds happen here);
``ops(n)``       the first ``n`` timed ops (always the same for a seed);
``check(ops, responses)``  → ``(failed op indices, messages)``;
``counts(ops, responses)`` → exact work counts taken from the responses.

A run checks the responses of several passes over one op list, so each
workload computes an op's expected answer once and keeps it.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import Dict, List, NamedTuple, Optional

from repro.api import compute, knn, range_query
from repro.datasets.realworld import (
    _TREEBANK_TAGS,
    swissprot_like_tree,
    treebank_like_tree,
    treefam_like_tree,
)
from repro.datasets.random_trees import perturb_tree
from repro.datasets.workloads import clustered_corpus
from repro.io.bracket import parse_bracket, to_bracket

RANGE_TAU = 3.0
KNN_K = 3
JOIN_TAU = 3.0
CHECK_EVERY = 7
"""Every ``CHECK_EVERY``-th read is checked against an independent path;
7 is coprime to the op patterns (3 families, 10-pair size cycle, 5-read
query cycle), so the checks reach every family, size class and query kind."""


class Op(NamedTuple):
    kind: str
    method: str
    path: str
    body: Optional[bytes]
    meta: tuple


def _post(path: str, payload: dict, kind: str = "read", meta: tuple = ()) -> Op:
    return Op(kind, "POST", path, json.dumps(payload).encode("utf-8"), meta)


def _lattice(index: int, low: int, high: int, step: int) -> int:
    """Size ``index`` of a lattice walk over ``[low, high]``; ``step`` is
    coprime to the span, so any ``span`` consecutive indices cover every
    size once."""
    return low + (index * step) % (high - low + 1)


def _treebank(rng: random.Random, size: int) -> str:
    return to_bracket(treebank_like_tree(rng, target_size=size))


def _body(status: int, data: bytes) -> Optional[dict]:
    if status != 200:
        return None
    try:
        body = json.loads(data)
    except ValueError:
        return None
    return body if isinstance(body, dict) else None


# --------------------------------------------------------------------------- #
# pair-distance
# --------------------------------------------------------------------------- #
class PairDistance:
    """Ad-hoc ``POST /distance`` pairs from three shape families.

    Op ``i`` takes family ``i mod 3`` (treebank deep, swissprot flat and
    wide, treefam binary caterpillar); every tenth pair has both trees at
    65–100 nodes, the rest at 8–64.
    """

    name = "pair-distance"
    connections = 2
    has_writes = False
    min_ops = 20
    families = (
        ("treebank", treebank_like_tree),
        ("swissprot", swissprot_like_tree),
        ("treefam", treefam_like_tree),
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.corpora: Dict[str, List[str]] = {}
        rng = random.Random(f"pair-distance-warmup:{seed}")
        self.warmup_ops = [self._pair(rng, i) for i in range(24)]
        self._expected: Dict[bytes, float] = {}

    def _pair(self, rng: random.Random, i: int) -> Op:
        family, build = self.families[i % 3]
        large = i % 10 == 9
        k = i // 10 if large else i - i // 10
        low, high = (65, 100) if large else (8, 64)
        size_a = _lattice(k, low, high, 23)
        size_b = _lattice(k + 5, low, high, 13)
        tree_a = to_bracket(build(rng, target_size=size_a))
        tree_b = to_bracket(build(rng, target_size=size_b))
        return _post(
            "/distance", {"tree_a": tree_a, "tree_b": tree_b}, meta=(family, tree_a, tree_b)
        )

    def ops(self, n: int) -> List[Op]:
        rng = random.Random(f"pair-distance:{self.seed}")
        return [self._pair(rng, i) for i in range(n)]

    def check(self, ops, responses):
        failed, notes = [], []
        for pos, (op, (status, data, *_)) in enumerate(zip(ops, responses)):
            body = _body(status, data)
            if body is None or "distance" not in body or body.get("bounded"):
                failed.append(pos)
                notes.append(f"op {pos}: status {status}, body {data[:120]!r}")
                continue
            if pos % CHECK_EVERY == 0:
                if op.body not in self._expected:
                    _, tree_a, tree_b = op.meta
                    self._expected[op.body] = compute(tree_a, tree_b, algorithm="zhang-l").distance
                expected = self._expected[op.body]
                if body["distance"] != expected:
                    failed.append(pos)
                    notes.append(
                        f"op {pos}: distance {body['distance']} != zhang-l {expected}"
                    )
        return failed, notes

    def counts(self, ops, responses) -> Dict[str, int]:
        subproblems = 0
        for status, data, *_ in responses:
            body = _body(status, data)
            if body is not None:
                subproblems += int(body.get("subproblems", 0))
        return {"algorithms.subproblems": subproblems}


# --------------------------------------------------------------------------- #
# query-churn
# --------------------------------------------------------------------------- #
class QueryChurn:
    """Range and kNN reads with adds and deletes against one live corpus.

    The corpus holds 50 clusters, the way versions of a document gather: a
    treebank-like tree of 8–24 nodes and three variants of it, 1–3 edits
    away (200 trees).  The op cycle is ``range range knn range range add
    delete``: 80 % of reads are ``/range`` (τ = 3), 20 % ``/knn`` (k = 3).
    An add is a new variant of one cluster's first tree; the delete that
    follows removes that cluster's oldest member, so every cluster keeps
    four trees and the corpus stays alike all run long.  Queries are
    a cluster's first tree perturbed by 0–3 edits.  Queries and writes visit
    the clusters in fixed orders, so every run asks the same mix of query
    sizes (a kNN query's cost grows steeply with its size).

    The engine re-pins its snapshot (and rebuilds the VP-tree) on the first
    read after more than 25 % of the pinned corpus changed: 26 add/delete
    pairs on 200 trees.  The warm-up's two range reads pin the corpus and
    build the VP-tree, and its ``WARMUP_WRITES`` pairs leave three pairs to
    go, so every pass crosses the budget on the 22nd timed op, once.
    """

    name = "query-churn"
    connections = 1
    has_writes = True
    clusters = 50
    variants = 3
    sizes = (8, 24)
    cycle = ("range", "range", "knn", "range", "range", "add", "delete")
    WARMUP_WRITES = 23
    min_ops = 4 * len(cycle)
    """A pass runs past the re-pin, on the fourth cycle."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random("query-churn-corpus")
        low, high = self.sizes
        self.bases = []
        self.members = []  # (cluster, bracket text) in corpus order
        for c in range(self.clusters):
            base = treebank_like_tree(rng, target_size=_lattice(c, low, high, 7))
            self.bases.append(base)
            self.members.append((c, to_bracket(base)))
            for v in range(self.variants):
                self.members.append((c, self._variant(c, 1 + v, rng)))
        self.corpora = {"default": [text for _, text in self.members]}
        self.warmup_ops = self._sequence(0)[0]
        self._expected: Dict[tuple, list] = {}

    def _variant(self, cluster: int, edits: int, rng: random.Random) -> str:
        return to_bracket(
            perturb_tree(self.bases[cluster], edits, alphabet=_TREEBANK_TAGS, rng=rng)
        )

    def _read(self, kind, mirror, rng, cluster, edits, check=False) -> Op:
        # The cluster's first tree, so a query's size is the same for every
        # seed (members are 1–3 edits away from it, deleted or not).
        query = to_bracket(
            perturb_tree(self.bases[cluster], edits, alphabet=_TREEBANK_TAGS, rng=rng)
        )
        if kind == "range":
            payload = {"query": query, "threshold": RANGE_TAU}
        else:
            payload = {"query": query, "k": KNN_K}
        # A checked read keeps a copy of the corpus it must be answered on.
        meta = (kind, query, [text for _, text in mirror] if check else None)
        return _post("/" + kind, payload, meta=meta)

    def _write(self, kind, mirror, rng, k) -> Op:
        cluster = (k * 13) % self.clusters
        if kind == "add":
            tree = self._variant(cluster, 1 + k % 3, rng)
            mirror.append((cluster, tree))
            return _post("/corpora/default/trees", {"trees": [tree]}, "write",
                         ("add", len(mirror) - 1, len(mirror)))
        index = next(pos for pos, (c, _) in enumerate(mirror) if c == cluster)
        del mirror[index]
        return Op("write", "DELETE", f"/corpora/default/trees/{index}", None,
                  ("delete", index, len(mirror)))

    def _sequence(self, n: int):
        """``(warm-up ops, first n timed ops)``, drawn from one stream."""
        rng = random.Random(f"query-churn:{self.seed}")
        mirror = list(self.members)
        done = Counter()
        # Range reads build the profiles, pack and VP-tree; a kNN warm-up
        # would add a seed-dependent cost to set-up time.
        warmup = [self._read("range", mirror, rng, c, c) for c in (1, 2)]
        for _ in range(self.WARMUP_WRITES):
            for kind in ("add", "delete"):
                warmup.append(self._write(kind, mirror, rng, done[kind]))
                done[kind] += 1
        ops: List[Op] = []
        reads = 0
        for i in range(n):
            step = self.cycle[i % len(self.cycle)]
            if step in ("add", "delete"):
                ops.append(self._write(step, mirror, rng, done[step]))
            else:
                k = done[step]
                check = reads % CHECK_EVERY == 1
                ops.append(self._read(step, mirror, rng, (k * 7) % self.clusters, k % 4, check))
                reads += 1
            done[step] += 1
        return warmup, ops

    def ops(self, n: int) -> List[Op]:
        return self._sequence(n)[1]

    def check(self, ops, responses):
        failed, notes = [], []
        for pos, (op, (status, data, *_)) in enumerate(zip(ops, responses)):
            body = _body(status, data)
            if body is None:
                failed.append(pos)
                notes.append(f"op {pos} {op.method} {op.path}: status {status}")
                continue
            if op.kind == "write":
                kind, first, size = op.meta
                ok = body.get("size") == size and (
                    body.get("added") == [first] if kind == "add" else body.get("removed") == first
                )
            else:
                kind, query, mirror = op.meta
                ok = not body.get("partial", True)
                if ok and mirror is not None:
                    ok = self._linear_scan(kind, query, mirror) == body.get("matches")
            if not ok:
                failed.append(pos)
                notes.append(f"op {pos} {op.method} {op.path}: wrong answer {data[:160]!r}")
        return failed, notes

    def _linear_scan(self, kind, query, mirror) -> list:
        """The answer over the mirrored corpus, with no metric index."""
        key = (kind, query, tuple(mirror))
        if key not in self._expected:
            if kind == "range":
                expected = range_query(query, mirror, RANGE_TAU, use_metric_index=False)
            else:
                expected = knn(query, mirror, KNN_K, use_metric_index=False)
            self._expected[key] = [list(m) for m in expected.matches]
        return self._expected[key]

    def counts(self, ops, responses) -> Dict[str, int]:
        totals = Counter()
        for op, (status, data, *_) in zip(ops, responses):
            body = _body(status, data)
            if body is None or op.kind != "read":
                continue
            stats = body.get("stats", {})
            totals["join.batch.exact_computed"] += stats.get("exact_computed", 0)
            totals["join.batch.aborted_early"] += stats.get("aborted_early", 0)
            totals["join.query.side_evaluated"] += stats.get("side_evaluated", 0)
            totals["join.metric_index.nodes_visited"] += stats.get("vp_nodes_visited", 0)
            totals["join.metric_index.pruned_subtrees"] += stats.get("vp_pruned_subtrees", 0)
            totals["join.query.corpus_size_sum"] += stats.get("corpus_size", 0)
            totals["join.query.matches"] += len(body.get("matches", ()))
        return dict(totals)


# --------------------------------------------------------------------------- #
# self-join
# --------------------------------------------------------------------------- #
class SelfJoin:
    """``POST /join`` round-robin over four clustered corpora.

    Each corpus is ``clustered_corpus`` with 20 clusters of 10 trees of 14
    nodes (mixed shapes, at most 2 edits inside a cluster), so a join at
    τ = 3 spends its time in candidate generation and the filter cascade.
    """

    name = "self-join"
    connections = 1
    has_writes = False
    min_ops = 8
    num_corpora = 4
    shapes = ["random", "left-branch", "right-branch", "full-binary", "zigzag", "mixed"]

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"self-join:{seed}")
        self.corpora = {}
        for c in range(self.num_corpora):
            trees = clustered_corpus(
                num_clusters=20, cluster_size=10, tree_size=14, num_edits=2,
                shapes=self.shapes[c:] + self.shapes[:c], rng=rng,
            )
            self.corpora[f"join{c}"] = [to_bracket(tree) for tree in trees]
        self.warmup_ops = [self._join(name) for name in self.corpora]
        self._expected: Dict[str, set] = {}

    def _join(self, name: str) -> Op:
        return _post("/join", {"corpus": name, "threshold": JOIN_TAU}, meta=(name,))

    def ops(self, n: int) -> List[Op]:
        names = list(self.corpora)
        return [self._join(names[i % len(names)]) for i in range(n)]

    def expected_matches(self, name: str) -> set:
        """Pairs ``i < j`` with TED < τ, by a path that shares no filter code:
        a size bound and a label-multiset bound written here, then bounded
        Zhang–Shasha on the survivors."""
        if name not in self._expected:
            trees = [parse_bracket(text) for text in self.corpora[name]]
            labels = [Counter(t.label(v) for v in t.iter_postorder()) for t in trees]
            sizes = [t.n for t in trees]
            matches = set()
            for i in range(len(trees)):
                for j in range(i + 1, len(trees)):
                    if abs(sizes[i] - sizes[j]) >= JOIN_TAU:
                        continue
                    common = sum((labels[i] & labels[j]).values())
                    if max(sizes[i], sizes[j]) - common >= JOIN_TAU:
                        continue
                    result = compute(trees[i], trees[j], algorithm="zhang-l", cutoff=JOIN_TAU)
                    if not result.bounded and result.distance < JOIN_TAU:
                        matches.add((i, j))
            self._expected[name] = matches
        return self._expected[name]

    def check(self, ops, responses):
        failed, notes = [], []
        for pos, (op, (status, data, *_)) in enumerate(zip(ops, responses)):
            body = _body(status, data)
            ok = body is not None
            if ok:
                got = {(min(i, j), max(i, j)) for i, j, _ in body.get("matches", ())}
                ok = got == self.expected_matches(op.meta[0])
            if not ok:
                failed.append(pos)
                notes.append(f"op {pos} join {op.meta[0]}: status {status} or wrong match set")
        return failed, notes

    def counts(self, ops, responses) -> Dict[str, int]:
        # The stats name only stages that pruned something; list the three
        # reported ones even when they read 0.
        totals = Counter({f"join.cascade.pruned.{stage}": 0
                          for stage in ("size", "label", "traversal-string")})
        for status, data, *_ in responses:
            body = _body(status, data)
            if body is None:
                continue
            stats = body.get("stats", {})
            for key in ("candidate_pairs", "index_pruned", "accepted_early",
                        "exact_computed", "matches"):
                totals[f"join.cascade.{key}"] += stats.get(key, 0)
            for stage, count in stats.get("stage_pruned", {}).items():
                totals[f"join.cascade.pruned.{stage}"] += count
        return dict(totals)


WORKLOADS = {cls.name: cls for cls in (PairDistance, QueryChurn, SelfJoin)}


def write_probe_ops(seed: int, cycles: int) -> List[Op]:
    """Corpus writes timed after the window on workloads without writes of
    their own: create a 200-tree corpus, then ``cycles`` × (add, delete)."""
    rng = random.Random(f"write-probe:{seed}")
    trees = [_treebank(rng, _lattice(i, 8, 24, 7)) for i in range(200)]
    ops = [_post("/corpora", {"name": "probe", "trees": trees}, "setup")]
    size = len(trees)
    for c in range(cycles):
        tree = _treebank(rng, _lattice(c, 8, 24, 5))
        ops.append(_post("/corpora/probe/trees", {"trees": [tree]}, "write", ("add", size, size + 1)))
        index = rng.randrange(size + 1)
        ops.append(Op("write", "DELETE", f"/corpora/probe/trees/{index}", None, ("delete", index, size)))
    return ops
