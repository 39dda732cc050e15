"""Tests for the command-line interface and its exit-code contract."""

import sys
from types import SimpleNamespace

import pytest
from conftest import FIG1, FIG1_DOC, FIG2, FIG3, canon

from friendlyops import Dfa, cli, equivalent, experiments, parse_dfa, print_dfa
from friendlyops.cli import main


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.dfa"
    path.write_text(FIG1_DOC)
    return str(path)


@pytest.fixture
def fig3_path(tmp_path):
    path = tmp_path / "fig3.dfa"
    path.write_text(print_dfa(FIG3))
    return str(path)


class TestBuild:
    def test_reproduces_square_root_figure(self, fig1_path, tmp_path, capsys):
        out = tmp_path / "out.dfa"
        labels = tmp_path / "labels.txt"
        code = main([
            "build", "--expr", "root[2](L1)", "--dfa", fig1_path,
            "--mode", "full", "-o", str(out), "--labels", str(labels),
        ])
        assert code == 0
        built = parse_dfa(out.read_text())
        assert canon(built) == FIG2
        assert labels.read_text().splitlines() == ["0 [0,0]", "1 [0,1]", "2 [1,0]", "3 [1,1]"]

    def test_eset_matches_wheel(self, fig1_path, tmp_path):
        eset = tmp_path / "wheel.eset"
        eset.write_text("eset v1 k=1\n(0)\n0(1)\n")
        out1, out2 = tmp_path / "a.dfa", tmp_path / "b.dfa"
        assert main(["build", "--eset", str(eset), "--dfa", fig1_path, "-o", str(out1)]) == 0
        assert main(["build", "--wheel", "1", "--dfa", fig1_path, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_eset_builds_empty_language(self, fig1_path, tmp_path):
        eset = tmp_path / "empty.eset"
        eset.write_text("eset v1 k=1\n")
        out = tmp_path / "out.dfa"
        assert main(["build", "--eset", str(eset), "--dfa", fig1_path, "-o", str(out)]) == 0
        assert not parse_dfa(out.read_text()).finals

    def test_exactly_one_predicate_required(self, fig1_path, capsys):
        code = main(["build", "--expr", "L1", "--wheel", "1", "--dfa", fig1_path])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["build", "--dfa", fig1_path]) == 2

    def test_arity_mismatch_is_usage_error(self, fig1_path):
        assert main(["build", "--wheel", "2", "--dfa", fig1_path]) == 2

    def test_cap_exit_code(self, fig1_path):
        assert main(["--max-states", "3", "build", "--wheel", "1", "--dfa", fig1_path]) == 3

    def test_image_cap_refuses_the_start_tuple(self, tmp_path, capsys):
        # the identity of a 300-state cycle stores 300 images, past 10 x 10
        path = tmp_path / "cycle.dfa"
        cycle = Dfa(("a",), 300, 0, frozenset({299}), (tuple((q + 1) % 300 for q in range(300)),))
        path.write_text(print_dfa(cycle))
        assert main(["--max-states", "10", "build", "--wheel", "1", "--dfa", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than 100 stored images\n"

    def test_deterministic_output(self, fig1_path, tmp_path):
        out1, out2 = tmp_path / "r1.dfa", tmp_path / "r2.dfa"
        for out in (out1, out2):
            assert main(["build", "--expr", "Root(L1)", "--dfa", fig1_path, "-o", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestMinimize:
    def test_writes_minimal_dfa(self, tmp_path):
        src = tmp_path / "big.dfa"
        src.write_text(print_dfa(FIG2))
        out = tmp_path / "min.dfa"
        assert main(["minimize", str(src), "-o", str(out)]) == 0
        assert parse_dfa(out.read_text()).n_states == 3

    def test_both_engines_agree(self, tmp_path):
        src = tmp_path / "big.dfa"
        src.write_text(print_dfa(FIG2))
        out1, out2 = tmp_path / "h.dfa", tmp_path / "m.dfa"
        assert main(["minimize", str(src), "--algo", "hopcroft", "-o", str(out1)]) == 0
        assert main(["minimize", str(src), "--algo", "moore", "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.dfa"
        bad.write_text("dfa v1\nalphabet a\nstates 2\ninitial 0\nfinal\ntrans a: 2 0\n")
        assert main(["minimize", str(bad)]) == 2
        assert "image out of range" in capsys.readouterr().err

    def test_malformed_integer_is_positioned_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.dfa"
        bad.write_text("dfa v1\nalphabet a\nstates --2\ninitial 0\nfinal\ntrans a: 0 0\n")
        assert main(["minimize", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3:") and "Traceback" not in err

    def test_missing_file(self, tmp_path):
        assert main(["minimize", str(tmp_path / "nope.dfa")]) == 2


class TestEquivAndMember:
    def test_equiv_self(self, fig1_path):
        assert main(["equiv", fig1_path, fig1_path]) == 0

    def test_equiv_differs(self, fig1_path, fig3_path, capsys):
        assert main(["equiv", fig1_path, fig3_path]) == 1
        assert "not equivalent" in capsys.readouterr().out

    def test_member(self, fig1_path, capsys):
        assert main(["member", "--dfa", fig1_path, "--word", "a b"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["member", "--dfa", fig1_path, "--word", "a a"]) == 1
        assert capsys.readouterr().out.strip() == "false"
        assert main(["member", "--dfa", fig1_path, "--word", ""]) == 1


class TestDot:
    def test_stdout(self, fig1_path, capsys):
        assert main(["dot", fig1_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph dfa {") and "doublecircle" in out


class TestMonsterCmd:
    def test_writes_coordinate_files(self, tmp_path, capsys):
        prefix = tmp_path / "m"
        assert main(["monster", "--sizes", "2x2", "--kind", "generators", "-o", str(prefix)]) == 0
        names = capsys.readouterr().out.split()
        assert names == [f"{prefix}.1.dfa", f"{prefix}.2.dfa"]
        d1 = parse_dfa((tmp_path / "m.1.dfa").read_text())
        d2 = parse_dfa((tmp_path / "m.2.dfa").read_text())
        assert d1.alphabet == d2.alphabet and len(d1.alphabet) == 4

    @pytest.mark.parametrize("sizes", ["2,3", "2..3"])
    def test_more_than_one_size_tuple_is_usage_error(self, tmp_path, capsys, sizes):
        assert main(["monster", "--sizes", sizes, "-o", str(tmp_path / "m")]) == 2
        assert capsys.readouterr().err == "error: monster expects a single size tuple, e.g. --sizes 2x3\n"
        assert not list(tmp_path.iterdir())

    def test_letter_images_are_capped_before_any_letter_is_made(self, tmp_path, capsys):
        # 3 letters x 3,400 images each pass 10 x 1000
        code = main(["--max-states", "1000", "monster", "--sizes", "3400", "-o", str(tmp_path / "m")])
        assert code == 3
        assert capsys.readouterr().err == "error: more than 10000 stored images\n"
        assert not list(tmp_path.iterdir())


class TestOracle:
    def test_agreement(self, fig1_path, capsys):
        assert main(["oracle", "--expr", "Root(L1)", "--dfa", fig1_path, "--maxlen", "7"]) == 0
        assert "agreement" in capsys.readouterr().out

    def test_smaller_length(self, fig1_path):
        assert main(["oracle", "--wheel", "1", "--dfa", fig1_path, "--maxlen", "4"]) == 0

    def test_length_zero(self, fig1_path, capsys):
        assert main(["oracle", "--expr", "L1", "--dfa", fig1_path, "--maxlen", "0"]) == 0
        assert capsys.readouterr().out == "agreement on all words up to length 0\n"

    def test_disagreement_exits_one(self, fig1_path, capsys, monkeypatch):
        oracle = cli.word_oracle
        monkeypatch.setattr(cli, "word_oracle", lambda pred, dfas, word, **kw: not oracle(pred, dfas, word, **kw))
        assert main(["oracle", "--expr", "Root(L1)", "--dfa", fig1_path, "--maxlen", "3"]) == 1
        # the empty word is checked first
        assert capsys.readouterr().out == "disagreement on word: \n"

    def test_one_oracle_call_per_word(self, fig1_path, capsys, monkeypatch):
        oracle = cli.word_oracle
        walked = []

        def counting(pred, dfas, word, **kw):
            walked.append(word)
            return oracle(pred, dfas, word, **kw)

        monkeypatch.setattr(cli, "word_oracle", counting)
        assert main(["oracle", "--expr", "Root(L1)", "--dfa", fig1_path, "--maxlen", "5"]) == 0
        assert capsys.readouterr().out == "agreement on all words up to length 5\n"
        assert len(walked) == 63  # 1 + 2 + 4 + 8 + 16 + 32 words over two letters

    def test_one_flipped_word_is_the_one_named(self, fig1_path, capsys, monkeypatch):
        # a word in the middle of length 4: the build's verdicts must line up with the words
        oracle, flipped = cli.word_oracle, ("b", "a", "a", "a")

        def flip_one(pred, dfas, word, **kw):
            return oracle(pred, dfas, word, **kw) != (tuple(word) == flipped)

        monkeypatch.setattr(cli, "word_oracle", flip_one)
        assert main(["oracle", "--expr", "Root(L1)", "--dfa", fig1_path, "--maxlen", "6"]) == 1
        assert capsys.readouterr().out == "disagreement on word: b a a a\n"

    def test_empty_alphabet_admits_any_maxlen(self, tmp_path, capsys):
        path = tmp_path / "empty.dfa"
        path.write_text("dfa v1\nalphabet\nstates 2\ninitial 1\nfinal 1\n")
        assert main(["oracle", "--expr", "L1", "--dfa", str(path), "--maxlen", "1000000000"]) == 0
        assert capsys.readouterr().out == "agreement on all words up to length 1000000000\n"

    def test_word_cap_refuses_a_huge_maxlen(self, fig1_path, capsys):
        assert main(["oracle", "--expr", "L1", "--dfa", fig1_path, "--maxlen", "1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than 10000000 words up to length 1000000000\n"

    def test_word_cap_is_ten_times_max_states(self, fig1_path, capsys, monkeypatch):
        # two letters: 63 words up to length 5, 127 up to length 6, against a cap of 100
        argv = ["--max-states", "10", "oracle", "--expr", "L1", "--dfa", fig1_path, "--maxlen"]
        assert main(argv + ["5"]) == 0
        assert capsys.readouterr().out == "agreement on all words up to length 5\n"
        walked = []
        monkeypatch.setattr(cli, "word_oracle", lambda *args: walked.append(args))
        assert main(argv + ["6"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: more than 100 words up to length 6\n")
        assert walked == []  # refused before any word ran

    @pytest.mark.parametrize("expr", [
        "!" * 5000 + "L1",
        "(" * 2000 + "L1" + ")" * 2000,
        " & ".join(["L1"] * 3000),
        "root[1](" * 400 + "L1" + ")" * 400,
    ], ids=["bang", "paren", "chain", "root"])
    def test_deep_expression_is_usage_error(self, fig1_path, capsys, expr):
        assert main(["oracle", "--expr", expr, "--dfa", fig1_path, "--maxlen", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: syntax error at position") and "Traceback" not in err


class TestSc:
    def test_wheel_range(self, tmp_path, capsys):
        # one, two and three coordinates, the full alphabet, and an eset predicate, which has no prediction
        eset = tmp_path / "tail.eset"
        eset.write_text("eset v1 k=1\n0(1)\n")
        for argv, rows in [
            (["sc", "--wheel", "1", "--sizes", "2..5"], [
                "wheel 1,2,3,3,true",
                "wheel 1,3,25,25,true",
                "wheel 1,4,253,253,true",
                "wheel 1,5,3121,3121,true",
            ]),
            (["sc", "--wheel", "2", "--sizes", "2x3"], ["wheel 2,2x3,108,108,true"]),
            # a size-1 coordinate accepts every word, so the monster is no witness: no prediction
            (["sc", "--wheel", "2", "--sizes", "2x1"], ["wheel 2,2x1,1,,"]),
            (["sc", "--wheel", "3", "--sizes", "2x2x3"], ["wheel 3,2x2x3,432,432,true"]),
            (["sc", "--wheel", "1", "--kind", "full", "--sizes", "3"], ["wheel 1,3,25,25,true"]),
            (["sc", "--eset", str(eset), "--sizes", "2..3"], ["eset-k1-m1,2,3,,", "eset-k1-m1,3,6,,"]),
        ]:
            assert main(argv) == 0
            assert capsys.readouterr().out.splitlines() == ["op,sizes,sc,predicted,match", *rows]

    def test_markdown_format(self, capsys):
        assert main(["--format", "md", "sc", "--wheel", "2", "--sizes", "2x2"]) == 0
        assert "| wheel 2 | 2x2 | 16 | 16 | true |" in capsys.readouterr().out

    def test_wheel_expression_is_predicted(self, capsys):
        assert main(["sc", "--expr", "wheel 1", "--sizes", "2..3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "op,sizes,sc,predicted,match",
            "wheel 1,2,3,3,true",
            "wheel 1,3,25,25,true",
        ]

    def test_letter_cap_refuses_full_alphabet(self, capsys):
        assert main(["--max-states", "1000", "sc", "--wheel", "1", "--kind", "full", "--sizes", "6"]) == 3
        err = capsys.readouterr().err
        assert err == "error: full alphabet has 46656 letters, cap is 1000\n"

    @pytest.mark.parametrize("argv, line", [
        (["--max-states", "1000", "sc", "--wheel", "1", "--kind", "full", "--sizes", "6"],
         "error: full alphabet has 46656 letters, cap is 1000\n"),
        (["sc", "--wheel", "1", "--kind", "full", "--sizes", "3000"],
         "error: full alphabet has 3000^3000 letters, cap is 1000000\n"),
    ], ids=["46656", "3000^3000"])
    def test_letter_counts_written_the_same_before_python_3_10_7(self, monkeypatch, capsys, argv, line):
        # Python 3.10.0-3.10.6 have neither the int-to-str digit limit nor its default
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        monkeypatch.setattr(sys, "int_info", SimpleNamespace(bits_per_digit=30, sizeof_digit=4))
        assert main(argv) == 3
        assert capsys.readouterr().err == line

    def test_transition_cap_refuses_full_alphabet_work(self, capsys):
        # 256 letters x 256 states: both under the cap of 1000, their product over 10 x 1000
        assert main(["--max-states", "1000", "sc", "--wheel", "1", "--kind", "full", "--sizes", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "transitions" in captured.err and "Traceback" not in captured.err

    def test_default_cap_refuses_full_alphabet_of_size_six(self, capsys):
        # 46,656 letters pass the letter cap; the transitions would not fit in 10 x 10^6
        assert main(["sc", "--wheel", "1", "--kind", "full", "--sizes", "6"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "transitions" in err

    @pytest.mark.parametrize("argv, line", [
        (["sc", "--wheel", "1", "--kind", "full", "--sizes", "6"],
         "error: 215 tuples x 46656 letters exceed the cap of 10000000 transitions\n"),
        (["--max-states", "1000", "sc", "--wheel", "1", "--kind", "full", "--sizes", "4"],
         "error: 40 tuples x 256 letters exceed the cap of 10000 transitions\n"),
    ], ids=["default-cap-size-6", "cap-1000-size-4"])
    def test_full_alphabet_work_refused_before_any_letter(self, monkeypatch, capsys, argv, line):
        # every letter tuple is reached, so letters x letters over the cap is refused up front
        def no_letters(*args, **kwargs):
            raise AssertionError("monster made letters")

        monkeypatch.setattr(experiments, "monster", no_letters)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line

    def test_image_cap_refuses_large_coordinate(self, capsys):
        # 300 images per component: the cap of 10 x 1000 stored images is reached after 33 states
        assert main(["--max-states", "1000", "sc", "--wheel", "1", "--sizes", "300"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than 10000 stored images\n"

    def test_state_cap_refuses_before_a_later_image_cap(self, capsys):
        # 9 images per component: the 101st tuple is numbered before 1000 images are stored
        assert main(["--max-states", "100", "sc", "--wheel", "1", "--sizes", "9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than 100 reachable tuples\n"

    def test_bad_sizes(self, capsys):
        assert main(["sc", "--wheel", "1", "--sizes", "5..2"]) == 2

    @pytest.mark.parametrize("sizes", ["\u0662..3", "2x\u0663", "1_0", "+2"])
    def test_non_ascii_sizes_are_usage_errors(self, capsys, sizes):
        assert main(["sc", "--wheel", "1", "--sizes", sizes]) == 2
        assert capsys.readouterr().err.startswith("error: bad size entry")

    @pytest.mark.parametrize("sizes", ["2x0", "0"])
    def test_zero_sizes_are_usage_errors(self, capsys, sizes):
        assert main(["sc", "--wheel", "1", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad size entry {sizes!r}\n"

    def test_non_ascii_integer_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sc", "--wheel", "\u0661", "--sizes", "2"])
        assert exc.value.code == 2
        assert "invalid integer" in capsys.readouterr().err

    def test_size_one_coordinates_share_one_letter_under_the_smallest_cap(self, capsys):
        # one identity letter of 4 images: within 10 x 1; size-1 coordinates make no witness, so no prediction
        assert main(["--max-states", "1", "sc", "--wheel", "4", "--sizes", "1x1x1x1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "wheel 4,1x1x1x1,1,,"

    def test_every_entry_is_checked_before_the_first_build(self, capsys):
        # size 4 would pass the cap of 30 states, but the bad entry after it is found first
        assert main(["--max-states", "30", "sc", "--wheel", "1", "--sizes", "1..5,x"]) == 2
        assert capsys.readouterr().err == "error: bad size entry 'x'\n"


class TestFullSpaceRefusals:
    """A full space of 3000^3000 tuples is refused without printing or forming its count."""

    @pytest.fixture
    def bare_dfa_path(self, tmp_path):
        path = tmp_path / "bare.dfa"
        path.write_text("dfa v1\nalphabet\nstates 3000\ninitial 0\nfinal\n")
        return str(path)

    def test_sc_full_alphabet(self, capsys):
        assert main(["sc", "--wheel", "1", "--kind", "full", "--sizes", "3000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: full alphabet has 3000^3000 letters, cap is 1000000\n"

    def test_monster_full_alphabet(self, tmp_path, capsys):
        assert main(["monster", "--kind", "full", "--sizes", "3000", "-o", str(tmp_path / "m")]) == 3
        assert capsys.readouterr().err == "error: full alphabet has 3000^3000 letters, cap is 1000000\n"
        assert not list(tmp_path.iterdir())

    def test_build_full_state_space(self, bare_dfa_path, capsys):
        assert main(["build", "--mode", "full", "--expr", "L1", "--dfa", bare_dfa_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: full state space has 3000^3000 tuples, cap is 1000000\n"


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_zero_max_states_is_usage_error(self, capsys):
        assert main(["--max-states", "0", "sc", "--wheel", "1", "--sizes", "2"]) == 2
        assert capsys.readouterr().err == "error: --max-states must be positive\n"

    @pytest.mark.parametrize("argv", [
        ["oracle", "--expr", "L1", "--dfa", "fig1.dfa", "--maxlen", "-1"],
        ["sc", "--wheel", "-1", "--sizes", "2"],
        ["--max-states", "-5", "sc", "--wheel", "1", "--sizes", "2"],
    ], ids=["maxlen", "wheel", "max-states"])
    def test_negative_integer_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid integer '-" in captured.err


class TestSharedParser:
    """``main`` calls in one process share one parser and give what a fresh parser gives."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_in_sequence_match_a_fresh_parser(self, fig1_path, fig3_path, monkeypatch, capsys):
        oracle = ["oracle", "--expr", "L1", "--dfa", fig1_path, "--maxlen", "5"]
        calls = [
            # two --dfa, then one: the appended list starts empty each time
            ["oracle", "--expr", "L1 & !L2", "--dfa", fig1_path, "--dfa", fig3_path, "--maxlen", "3"],
            oracle,
            # a cap of 5 refuses 63 words, and the next call has the default cap again
            ["--max-states", "5", *oracle],
            oracle,
            ["oracle", "--expr", "L1", "--maxlen", "3"],  # --dfa is required: usage error
            ["-h"],
            oracle,
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [run(argv) for argv in calls]
        assert [code for code, _, _ in shared] == [0, 0, 3, 0, 2, 0, 0]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert [run(argv) for argv in calls] == shared
