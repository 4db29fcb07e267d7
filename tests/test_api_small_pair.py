"""The API's small-pair rule: default ``rted`` on small unit-cost pairs.

``repro.api.compute`` runs a pair through the workspace's small-pair
program when the algorithm is ``rted`` (or an alias), the engine is
``auto``, the cost model is unit and both trees have at most
``SMALL_PAIR_CUTOFF`` nodes.  These tests pin the rule down:

* distances and bounded outcomes equal the literal RTED's, on both sides
  of the 64/65 size boundary;
* distance, subproblem count and bounded outcome do not depend on whether
  a compiled provider is present (``RTED_NO_NATIVE=1``);
* the registry's ``auto`` still runs the literal algorithm;
* every other request bypasses the rule;
* an expired or cancelled deadline raises on every engine and pair size.
"""

import random

import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.workspace import SMALL_PAIR_CUTOFF, SMALL_PAIR_KERNEL, TedWorkspace
from repro.api import compare_algorithms, compute, parse_tree
from repro.costs import WeightedCostModel
from repro.exceptions import ComputeTimeoutError
from repro.runtime import CancelToken, Deadline
from repro.trees import Node, Tree

ALPHABET = "abcd"


def _deep(rng: random.Random, n: int) -> str:
    return "".join("{" + rng.choice(ALPHABET) for _ in range(n)) + "}" * n


def _flat(rng: random.Random, n: int) -> str:
    leaves = "".join("{" + rng.choice(ALPHABET) + "}" for _ in range(n - 1))
    return "{" + rng.choice(ALPHABET) + leaves + "}"


def _caterpillar(rng: random.Random, n: int) -> str:
    # A spine whose nodes each carry one leaf, the last spine node closing
    # the count when ``n`` is odd.
    spine, text = 0, ""
    remaining = n
    while remaining > 0:
        text += "{" + rng.choice(ALPHABET)
        spine += 1
        remaining -= 1
        if remaining > 1:
            text += "{" + rng.choice(ALPHABET) + "}"
            remaining -= 1
    return text + "}" * spine


SHAPES = {"deep": _deep, "flat": _flat, "caterpillar": _caterpillar}
SIZES = [(1, 1), (1, 7), (5, 9), (17, 12), (33, 40), (63, 64), (64, 64), (64, 65), (65, 65)]
CUTOFFS = [None, 1.0, 3.0, 10.0]


def _pairs():
    for shape, build in SHAPES.items():
        for index, (n, m) in enumerate(SIZES):
            rng = random.Random(f"{shape}:{index}")
            f, g = parse_tree(build(rng, n)), parse_tree(build(rng, m))
            assert (f.n, g.n) == (n, m)
            yield pytest.param(f, g, id=f"{shape}-{n}x{m}")


def _outcome(result):
    """Everything a caller can observe about a result except timings."""
    if result.bounded:
        return ("bounded", result.lower_bound, result.aborted, result.subproblems)
    return ("exact", result.distance, result.subproblems)


@pytest.fixture(params=[False, True], ids=["provider", "no-native"])
def kill_switch(request, monkeypatch):
    if request.param:
        monkeypatch.setenv("RTED_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("RTED_NO_NATIVE", raising=False)
    return request.param


class TestSameDistances:
    @pytest.mark.parametrize("f, g", _pairs())
    def test_matches_literal_rted(self, f, g):
        reference = make_algorithm("rted")
        small = f.n <= SMALL_PAIR_CUTOFF and g.n <= SMALL_PAIR_CUTOFF
        for cutoff in CUTOFFS:
            got = compute(f, g, cutoff=cutoff)
            want = reference.compute(f, g, cutoff=cutoff)
            assert got.extra["kernel"] == (SMALL_PAIR_KERNEL if small else "spf")
            assert got.bounded == want.bounded
            if got.bounded:
                assert got.lower_bound >= cutoff
            else:
                assert got.distance == want.distance
            if not small:
                assert _outcome(got) == _outcome(want)

    @pytest.mark.parametrize("f, g", _pairs())
    def test_independent_of_compiled_provider(self, f, g, monkeypatch):
        for cutoff in CUTOFFS:
            monkeypatch.delenv("RTED_NO_NATIVE", raising=False)
            with_provider = compute(f, g, cutoff=cutoff)
            monkeypatch.setenv("RTED_NO_NATIVE", "1")
            without = compute(f, g, cutoff=cutoff)
            assert _outcome(with_provider) == _outcome(without)
            assert with_provider.extra["kernel"] == without.extra["kernel"]

    def test_aliases_take_the_rule(self):
        f, g = parse_tree("{a{b}{c}}"), parse_tree("{a{c}{d}}")
        for name in ("rted", "RTED", "robust", "apted"):
            assert compute(f, g, algorithm=name).extra["kernel"] == SMALL_PAIR_KERNEL


class TestRegistryUnchanged:
    @pytest.mark.parametrize("name", ["rted", "robust", "gted-heavy-g", "gted-left-g"])
    def test_auto_still_runs_the_literal_algorithm(self, name):
        f, g = parse_tree(_deep(random.Random(1), 20)), parse_tree(_flat(random.Random(2), 24))
        auto = make_algorithm(name).compute(f, g)
        spf = make_algorithm(name, engine="spf").compute(f, g)
        assert auto.extra["engine"] == "spf"
        assert "kernel" not in auto.extra
        assert (auto.distance, auto.subproblems) == (spf.distance, spf.subproblems)

    def test_rted_counts_its_optimal_strategy(self):
        f, g = parse_tree(_caterpillar(random.Random(3), 30)), parse_tree(_deep(random.Random(4), 30))
        result = make_algorithm("rted").compute(f, g)
        assert result.subproblems == result.extra["optimal_strategy_cost"]
        assert compute(f, g).subproblems >= result.subproblems

    def test_compare_algorithms_reports_spf(self):
        results = compare_algorithms("{a{b}{c}}", "{a{c}{d}}")
        assert results["rted"].extra["engine"] == "spf"
        assert "kernel" not in results["rted"].extra


class TestBypasses:
    F = "{a{b{c}}{d}}"
    G = "{a{b}{c{d}{e}}}"

    @pytest.mark.parametrize(
        "kwargs, kernel",
        [
            ({"engine": "spf"}, "spf"),
            ({"engine": "recursive"}, "recursive"),
            ({"algorithm": "zhang-l"}, "auto"),
            ({"algorithm": "simple"}, "auto"),
            ({"cost_model": WeightedCostModel(1.0, 1.0, 2.0)}, "spf"),
        ],
        ids=["spf", "recursive", "zhang-l", "simple", "weighted"],
    )
    def test_bypass(self, kwargs, kernel):
        result = compute(self.F, self.G, **kwargs)
        assert result.extra["kernel"] == kernel
        algorithm = kwargs.get("algorithm", "rted")
        literal = make_algorithm(algorithm, engine=kwargs.get("engine")).compute(
            parse_tree(self.F), parse_tree(self.G), cost_model=kwargs.get("cost_model")
        )
        assert _outcome(result) == _outcome(literal)

    def test_unhashable_labels_bypass(self):
        tree = Tree(Node(["unhashable"], [Node(["leaf"])]))
        other = parse_tree(self.G)
        result = compute(tree, other)
        assert result.extra["kernel"] == "spf"
        assert _outcome(result) == _outcome(make_algorithm("rted").compute(tree, other))

    def test_infinite_cutoff_bypasses(self):
        result = compute(self.F, self.G, cutoff=float("inf"))
        assert result.extra["kernel"] == "spf"
        assert not result.bounded
        assert result.distance == compute(self.F, self.G).distance


class TestInfiniteCutoff:
    @pytest.mark.parametrize("engine", ["auto", "native"])
    def test_workspace_program_treats_infinite_cutoff_as_none(self, engine, kill_switch):
        # An infinite cutoff has no integer band width, so the small-pair
        # programs must run the pair unbounded rather than pass it to the
        # banded sweep (the compiled kernel cannot represent it at all).
        f, g = parse_tree("{a{b}}"), parse_tree("{a{c}{d}}")
        algo = make_algorithm("rted", engine=engine, workspace=TedWorkspace())
        result = algo.compute(f, g, cutoff=float("inf"))
        assert result.extra["kernel"] == SMALL_PAIR_KERNEL
        assert _outcome(result) == _outcome(algo.compute(f, g))
        assert result.distance == 2.0


class TestDeadlines:
    SIZES = [1, 3, 40, 70]

    @staticmethod
    def _expired():
        return Deadline(0.0)

    @staticmethod
    def _cancelled():
        token = CancelToken()
        token.cancel()
        return Deadline(None, token=token)

    @pytest.mark.parametrize("engine", ["auto", "native", "spf", "recursive"])
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("make_deadline", ["_expired", "_cancelled"])
    def test_blown_budget_raises(self, engine, size, make_deadline, kill_switch):
        rng = random.Random(size)
        f, g = parse_tree(_caterpillar(rng, size)), parse_tree(_deep(rng, size))
        deadline = getattr(self, make_deadline)()
        with pytest.raises(ComputeTimeoutError):
            compute(f, g, engine=engine, deadline=deadline)

    def test_live_deadline_changes_nothing(self, kill_switch):
        rng = random.Random(9)
        f, g = parse_tree(_flat(rng, 40)), parse_tree(_caterpillar(rng, 40))
        token = CancelToken()
        armed = compute(f, g, deadline=Deadline(60.0, token=token))
        assert armed.extra["kernel"] == SMALL_PAIR_KERNEL
        assert _outcome(armed) == _outcome(compute(f, g))
