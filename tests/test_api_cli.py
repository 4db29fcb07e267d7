"""Tests for the high-level API, the algorithm registry, and the CLI."""

import pytest

from repro import (
    available_algorithms,
    compare_algorithms,
    compute,
    edit_mapping,
    edit_script,
    make_algorithm,
    parse_tree,
    range_query,
    similarity_join,
    tree_edit_distance,
    tree_to_bracket,
)
from repro.algorithms import register_algorithm, SimpleTED, PAPER_ALGORITHMS
from repro.cli import main as cli_main
from repro.exceptions import (
    CutoffError,
    ParseError,
    QueryError,
    UnknownAlgorithmError,
    UnknownEngineError,
)
from repro.trees import Node, Tree, tree_from_nested


class TestParseTree:
    def test_tree_passthrough(self):
        tree = tree_from_nested(("a", ["b"]))
        assert parse_tree(tree) is tree

    def test_node_is_indexed(self):
        assert isinstance(parse_tree(Node("a", [Node("b")])), Tree)

    def test_bracket_autodetection(self):
        assert parse_tree("{a{b}}").n == 2

    def test_newick_autodetection(self):
        assert parse_tree("(A,B)r;").n == 3

    def test_xml_autodetection(self):
        assert parse_tree("<a><b/></a>").n == 2

    def test_explicit_format(self):
        assert parse_tree("{a{b}}", fmt="bracket").n == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(ParseError):
            parse_tree("{a}", fmt="yaml")

    def test_non_tree_input_rejected(self):
        with pytest.raises(ParseError):
            parse_tree(12345)


class TestHighLevelApi:
    def test_distance_with_string_inputs(self):
        assert tree_edit_distance("{a{b}{c}}", "{a{b}{x}}") == 1.0

    def test_compute_returns_metadata(self):
        result = compute("{a{b}{c}}", "{a{b}{x}}", algorithm="rted")
        assert result.distance == 1.0
        assert result.algorithm == "RTED"
        assert result.subproblems > 0

    def test_edit_mapping_and_script(self):
        mapping = edit_mapping("{a{b}}", "{a{b}{c}}")
        assert mapping.cost == 1.0
        script = edit_script("{a{b}}", "{a{b}{c}}")
        assert any(op.op == "insert" for op in script)

    def test_compare_algorithms_agree(self):
        results = compare_algorithms("{a{b{c}}{d}}", "{a{d{c}}{e}}")
        distances = {round(result.distance, 9) for result in results.values()}
        assert len(distances) == 1
        assert set(results) == set(PAPER_ALGORITHMS)

    def test_tree_to_bracket_round_trip(self):
        text = "{a{b}{c{d}}}"
        assert tree_to_bracket(parse_tree(text)) == text

    @pytest.mark.parametrize("algorithm", ["rted", "zhang-l", "zhang-r", "simple", "klein-h"])
    @pytest.mark.parametrize("cutoff", ["abc", [1], float("nan"), True, False])
    def test_malformed_cutoff_raises(self, algorithm, cutoff):
        with pytest.raises(CutoffError):
            compute("{a{b}{c}}", "{a{b}{d}{e}}", algorithm=algorithm, cutoff=cutoff)
        with pytest.raises(CutoffError):
            tree_edit_distance("{a{b}{c}}", "{a{b}{d}{e}}", algorithm=algorithm, cutoff=cutoff)

    @pytest.mark.parametrize("algorithm", ["rted", "zhang-l", "zhang-r", "simple", "klein-h"])
    def test_infinite_cutoff_is_no_cutoff(self, algorithm):
        bounded = compute("{a{b}{c}}", "{a{b}{d}{e}}", algorithm=algorithm, cutoff=float("inf"))
        plain = compute("{a{b}{c}}", "{a{b}{d}{e}}", algorithm=algorithm)
        assert not bounded.bounded
        assert (bounded.distance, bounded.subproblems) == (plain.distance, plain.subproblems)
        assert bounded.extra["kernel"] == plain.extra["kernel"]

    @pytest.mark.parametrize(
        "threshold", [float("nan"), float("inf"), float("-inf"), True, "abc"]
    )
    def test_non_finite_range_threshold_raises(self, threshold):
        with pytest.raises(QueryError):
            range_query("{a{b}}", ["{a{b}{c}}", "{x}"], threshold)

    def test_nan_join_threshold_raises(self):
        with pytest.raises(CutoffError):
            similarity_join(["{a{b}}", "{a{c}}"], float("nan"))

    @pytest.mark.parametrize(
        "algorithm, kernel",
        [("zhang-l", "zhang-shasha"), ("zhang-r", "zhang-shasha"), ("simple", "simple")],
    )
    def test_kernel_names_the_implementation(self, algorithm, kernel):
        for cutoff in (None, 1.0, 2.5):
            result = compute("{a{b}{c}}", "{a{b}{d}{e}}", algorithm=algorithm, cutoff=cutoff)
            assert result.extra["kernel"] == kernel


class TestRegistry:
    def test_available_algorithms_contains_paper_set(self):
        names = available_algorithms()
        for name in PAPER_ALGORITHMS:
            assert name in names

    def test_aliases(self):
        assert make_algorithm("zhang-shasha").name == "Zhang-L"
        assert make_algorithm("ROBUST").name == "RTED"

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithmError):
            make_algorithm("quantum-ted")

    def test_register_custom_algorithm(self):
        register_algorithm("my-oracle", SimpleTED)
        assert make_algorithm("my-oracle").name == "Simple"

    def test_engine_selection(self):
        for name in ("zhang-l", "zhang-r", "rted", "klein-h", "demaine-h"):
            for engine in ("auto", "recursive", "spf"):
                algo = make_algorithm(name, engine=engine)
                assert algo.distance(
                    parse_tree("{a{b{c}}{d}}"), parse_tree("{a{d{c}}{e}}")
                ) == pytest.approx(2.0)

    def test_engine_none_is_auto(self):
        assert make_algorithm("zhang-l", engine=None).name == "Zhang-L"
        assert make_algorithm("zhang-l", engine="spf").name == "Zhang-L[spf]"

    def test_unknown_engine(self):
        with pytest.raises(UnknownEngineError):
            make_algorithm("rted", engine="quantum")

    @pytest.mark.parametrize(
        "name", ["rted", "zhang-l", "zhang-r", "klein-h", "demaine-h", "gted-left-g"]
    )
    def test_unknown_engine_never_falls_back_silently(self, name):
        """Every multi-engine name must reject a bogus selector loudly."""
        with pytest.raises(UnknownEngineError, match="unknown engine"):
            make_algorithm(name, engine="gpu")

    def test_unknown_engine_through_api(self):
        with pytest.raises(UnknownEngineError):
            compute("{a}", "{b}", algorithm="rted", engine="warp")

    def test_unknown_engine_direct_constructors(self):
        from repro.algorithms import GTED, RTED, LeftFStrategy

        with pytest.raises(UnknownEngineError):
            RTED(engine="warp")
        with pytest.raises(UnknownEngineError):
            GTED(LeftFStrategy(), engine="warp")

    def test_auto_engine_defaults_to_spf_for_strategy_algorithms(self):
        for name in ("rted", "klein-h", "demaine-h"):
            result = make_algorithm(name).compute(
                parse_tree("{a{b{c}}{d}}"), parse_tree("{a{d{c}}{e}}")
            )
            assert result.extra["engine"] == "spf"

    def test_single_implementation_rejects_engine(self):
        with pytest.raises(UnknownEngineError):
            make_algorithm("simple", engine="spf")
        assert make_algorithm("simple", engine="auto").name == "Simple"

    def test_engine_through_api(self):
        result = compute("{a{b}{c}}", "{a{b}{x}}", algorithm="zhang-l", engine="spf")
        assert result.distance == 1.0
        assert result.extra["engine"] == "spf"
        assert tree_edit_distance("{a{b}{c}}", "{a{b}{x}}", engine="spf") == 1.0


class TestCli:
    def test_distance_command(self, capsys):
        assert cli_main(["distance", "{a{b}}", "{a{c}}"]) == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_distance_verbose(self, capsys):
        assert cli_main(["distance", "{a{b}}", "{a{c}}", "--verbose", "--algorithm", "zhang-l"]) == 0
        output = capsys.readouterr().out
        assert "distance" in output and "subproblems" in output

    def test_distance_verbose_names_kernel(self, capsys):
        assert cli_main(["distance", "{a{b}}", "{a{c}}", "--verbose"]) == 0
        output = capsys.readouterr().out
        assert "kernel:      small-pair" in output
        assert "sweep:       left" in output  # equal costs keep the left sweep
        # A right comb: the right sweep evaluates 7 · 7 cells, the left 9 · 9.
        assert cli_main(["distance", "{a{b}{c{d}{e}}}", "{a{b}{c{d}{x}}}", "--verbose"]) == 0
        output = capsys.readouterr().out
        assert "sweep:       right" in output and "subproblems: 49" in output
        assert cli_main(["distance", "{a{b}}", "{a{c}}", "--verbose", "--engine", "spf"]) == 0
        output = capsys.readouterr().out
        assert "kernel:      spf" in output and "sweep:" not in output
        for algorithm, kernel in (
            ("zhang-l", "zhang-shasha"), ("zhang-r", "zhang-shasha"), ("simple", "simple"),
        ):
            assert cli_main(
                ["distance", "{a{b}}", "{a{c}}", "--verbose", "--algorithm", algorithm]
            ) == 0
            assert f"kernel:      {kernel}" in capsys.readouterr().out

    def test_distance_malformed_cutoff_is_usage_error(self, capsys):
        assert cli_main(["distance", "{a{b}}", "{a{c}}", "--cutoff", "nan"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("rted: ") and "NaN" in err
        assert cli_main(["distance", "{a{b}}", "{a{c}}", "--cutoff", "inf"]) == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_distance_engine_flag(self, capsys):
        assert cli_main(
            ["distance", "{a{b}}", "{a{c}}", "--algorithm", "zhang-l", "--engine", "spf",
             "--verbose"]
        ) == 0
        output = capsys.readouterr().out
        assert "engine:      spf" in output
        assert "1.0" in output

    def test_distance_from_file(self, tmp_path, capsys):
        path = tmp_path / "tree.bracket"
        path.write_text("{a{b}{c}}")
        assert cli_main(["distance", f"@{path}", "{a{b}{c}}"]) == 0
        assert capsys.readouterr().out.strip() == "0.0"

    def test_mapping_command(self, capsys):
        assert cli_main(["mapping", "{a{b}}", "{a{x}}"]) == 0
        assert "rename" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert cli_main(["compare", "{a{b}{c}}", "{a{c}{d}}"]) == 0
        output = capsys.readouterr().out
        assert "rted" in output and "zhang-l" in output

    def test_generate_command(self, capsys):
        assert cli_main(["generate", "--shape", "zigzag", "--size", "9"]) == 0
        output = capsys.readouterr().out.strip()
        assert output.count("{") == 9

    def test_generate_random_with_render(self, capsys):
        assert cli_main(["generate", "--shape", "random", "--size", "7", "--render"]) == 0
        assert "{" in capsys.readouterr().out

    def test_join_command(self, tmp_path, capsys):
        path = tmp_path / "collection.txt"
        path.write_text("{a{b}{c}}\n{a{b}{d}}\n{x{y{z{w{v}}}}}\n")
        assert cli_main(["join", f"@{path}", "--threshold", "2", "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].split("\t")[:2] == ["0", "1"]
        # Stats go to stderr so piped stdout stays machine-parseable.
        assert "#" not in captured.out
        assert "# matches:" in captured.err and "# pairs total:      3" in captured.err

    def test_query_knn_command(self, tmp_path, capsys):
        path = tmp_path / "collection.txt"
        path.write_text("{a{b}{c}{d}}\n{x{y}}\n{a{b}}\n")
        assert cli_main(
            ["query", "{a{b}{c}}", f"@{path}", "--top-k", "2", "--stats"]
        ) == 0
        captured = capsys.readouterr()
        lines = [line.split("\t") for line in captured.out.splitlines()]
        assert [line[0] for line in lines] == ["0", "2"]
        assert "#" not in captured.out
        assert "# corpus size:      3" in captured.err
        assert "# matches:          2" in captured.err

    def test_query_range_command(self, tmp_path, capsys):
        path = tmp_path / "collection.txt"
        path.write_text("{a{b}{c}{d}}\n{x{y}}\n{a{b}}\n")
        assert cli_main(["query", "{a{b}{c}}", f"@{path}", "--range", "2"]) == 0
        lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [line[0] for line in lines] == ["0", "2"]
        assert all(float(line[1]) < 2.0 for line in lines)

    def test_query_modes_are_exclusive(self, tmp_path, capsys):
        path = tmp_path / "collection.txt"
        path.write_text("{a}\n")
        with pytest.raises(SystemExit):
            cli_main(["query", "{a}", f"@{path}", "--top-k", "1", "--range", "1"])
        with pytest.raises(SystemExit):
            cli_main(["query", "{a}", f"@{path}"])

    def test_query_negative_k_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "collection.txt"
        path.write_text("{a}\n")
        assert cli_main(["query", "{a}", f"@{path}", "--top-k", "-1"]) == 64
        assert "rted:" in capsys.readouterr().err

    def test_join_command_cross_and_no_cascade(self, tmp_path, capsys):
        path_a = tmp_path / "a.txt"
        path_b = tmp_path / "b.txt"
        path_a.write_text("{a{b}}\n")
        path_b.write_text("{a{c}}\n{a{b}}\n")
        assert cli_main(
            ["join", f"@{path_a}", "--other", f"@{path_b}", "--threshold", "1.5",
             "--no-cascade", "--algorithm", "zhang-l"]
        ) == 0
        lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [line[:2] for line in lines] == [["0", "0"], ["0", "1"]]

    def test_join_requires_file_argument(self):
        with pytest.raises(SystemExit):
            cli_main(["join", "{a{b}}", "--threshold", "1"])
