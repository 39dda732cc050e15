"""Tests for the DFA core: format, execution, minimization, preimages."""

import random
import tracemalloc

import pytest
from conftest import (
    FIG1,
    FIG1_DOC,
    FIG2,
    assert_minimize_agree,
    brute_equivalent,
    brute_min_states,
    canon,
    per_state_accessible_part,
    sparse_dfa,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from friendlyops import (
    Dfa,
    MonsterSpec,
    accepts,
    accessible_part,
    build_standard,
    build_standard_detailed,
    equivalent,
    minimize,
    monster,
    parse_dfa,
    preimage_dfa,
    print_dfa,
    to_dot,
    wheel_builtin,
)
from friendlyops.automata import _hopcroft_partition, accepts_up_to, nerode_partition, words_up_to, words_within
from friendlyops.errors import ParseError
from friendlyops.experiments import random_dfa
from friendlyops.upseq import UPSeq, upseq_to_unary_dfa


class TestParse:
    def test_golden_document(self):
        assert parse_dfa(FIG1_DOC) == FIG1

    def test_comments_and_order_insensitivity(self):
        doc = """# header comment
        dfa v1
        trans b: 1 1
        states 2   # two states
        initial 0
        alphabet a b
        final 1
        trans a: 1 0
        """
        assert parse_dfa(doc) == FIG1

    def test_degenerate_single_state(self):
        doc = "dfa v1\nalphabet a\nstates 1\ninitial 0\nfinal\ntrans a: 0\n"
        d = parse_dfa(doc)
        assert d.n_states == 1 and not d.finals
        assert not accepts(d, ["a", "a"])

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("nfa v1\n", "malformed header"),
            ("dfa v1\nalphabet a a\nstates 1\ninitial 0\nfinal\ntrans a: 0\n", "duplicate letter"),
            ("dfa v1\nalphabet a\nstates 2\ninitial 0\nfinal\n", "missing transition row"),
            ("dfa v1\nalphabet a b\nstates 2\ninitial 0\nfinal\ntrans a: 1 0\n", "missing transition row"),
            ("dfa v1\nalphabet a\nstates 2\ninitial 0\nfinal\ntrans a: 2 0\n", "image out of range"),
            ("dfa v1\nalphabet a\nstates 2\ninitial 2\nfinal\ntrans a: 0 0\n", "initial out of range"),
            ("dfa v1\nalphabet a\nstates 2\ninitial 0\nfinal 5\ntrans a: 0 0\n", "final out of range"),
            ("dfa v1\nalphabet a\nstates 2\ninitial 0\nfinal\ntrans a: 0\n", "expected 2 images"),
            ("dfa v1\nalphabet a\nstates 2\ninitial 0\nfinal\ntrans b: 0 0\ntrans a: 0 0\n", "unknown letter"),
            ("dfa v1\nalphabet a\nstates 2\ninitial 0\nstates 2\nfinal\ntrans a: 0 0\n", "duplicate 'states'"),
            # integers are ASCII digits, with at most one leading '-' where a sign is allowed
            ("dfa v1\nalphabet a\nstates --2\ninitial 0\nfinal\ntrans a: 0 0\n", "line 3: 'states' expects"),
            ("dfa v1\nalphabet a\nstates 2\ninitial \u0660\nfinal\ntrans a: 0 0\n", "line 4: 'initial' expects"),
            ("dfa v1\nalphabet a\nstates 2\ninitial 0\nfinal \u00b2\ntrans a: 0 0\n", "line 5: 'final' expects"),
            ("dfa v1\nalphabet a\nstates 2\ninitial 0\nfinal\ntrans a: 0 \u0661\n", "line 6: images must be"),
            ("", "line 1: malformed header"),
            ("dfa v1\nalphabet a\nstates 1\ninitial 0\nfinal\nfoo 1\ntrans a: 0\n", "line 6: unknown directive 'foo'"),
            ("dfa v1\nalphabet a\nstates 1\ninitial 0\ntrans a: 0\n", "line 5: missing 'final' line"),
            ('dfa v1\nalphabet a"\nstates 1\ninitial 0\nfinal\ntrans a": 0\n', "line 2: invalid letter token"),
            ("dfa v1\nalphabet a\nstates 0\ninitial 0\nfinal\ntrans a:\n", "line 3: state count must be positive"),
            ("dfa v1\nalphabet a\nstates 1\ninitial 0\nfinal\ntrans a 0\n", "line 6: expected 'trans <letter>: <images>'"),
            ("dfa v1\nalphabet a\nstates 1\ninitial 0\nfinal\ntrans a: 0\ntrans a: 0\n", "line 7: duplicate transition row"),
        ],
    )
    def test_errors_carry_line_numbers(self, doc, message):
        with pytest.raises(ParseError, match="line \\d+") as exc:
            parse_dfa(doc)
        assert message in str(exc.value)


class TestNonIntegerValues:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((("a",), 2, 0, frozenset(), ((1.0, 0),)), r"image 1\.0 in row for 'a' is not an int"),
            ((("a",), 2, 0, frozenset(), ((True, 0),)), r"image True in row for 'a' is not an int"),
            ((("a",), 2, 0.0, frozenset(), ((1, 0),)), r"initial state 0\.0 is not an int"),
            ((("a",), 2, True, frozenset(), ((1, 0),)), r"initial state True is not an int"),
            ((("a",), 2, 0, frozenset({1.0}), ((1, 0),)), r"final state 1\.0 is not an int"),
            ((("a",), 2, 0, frozenset({True}), ((1, 0),)), r"final state True is not an int"),
            ((("a",), 2.0, 0, frozenset(), ((1, 0),)), r"state count 2\.0 is not an int"),
            ((("a",), 0, 0, frozenset(), ((),)), r"^a Dfa needs at least one state$"),
            ((("a", "a"), 2, 0, frozenset(), ((1, 0), (1, 0))), r"^duplicate letter in alphabet$"),
            ((("a:",), 2, 0, frozenset(), ((1, 0),)), r"^invalid letter token 'a:'$"),
            ((("a", "b"), 2, 0, frozenset(), ((1, 0),)), r"^one transition row per letter required$"),
            ((("a",), 2, 0, frozenset(), ((1, 0, 0),)), r"^row for 'a' has length 3, expected 2$"),
            ((("a",), 2, 2, frozenset(), ((1, 0),)), r"^initial state 2 out of range$"),
        ],
    )
    def test_rejected_with_the_value_named(self, args, message):
        with pytest.raises(ValueError, match=message):
            Dfa(*args)

    def test_out_of_range_messages_unchanged(self):
        with pytest.raises(ValueError, match=r"^image 2 out of range in row for 'b'$"):
            Dfa(("a", "b"), 2, 0, frozenset(), ((1, 0), (0, 2)))
        with pytest.raises(ValueError, match=r"^image -1 out of range in row for 'a'$"):
            Dfa(("a",), 2, 0, frozenset(), ((-1, 0),))
        with pytest.raises(ValueError, match=r"^final state 2 out of range$"):
            Dfa(("a",), 2, 0, frozenset({0, 2}), ((1, 0),))


class TestPrint:
    def test_golden_document(self):
        assert print_dfa(FIG1) == FIG1_DOC

    def test_parse_print_round_trip_random(self):
        rng = random.Random(1)
        for _ in range(100):
            d = random_dfa(rng, rng.randint(1, 6), tuple("abc"[: rng.randint(1, 3)]))
            assert parse_dfa(print_dfa(d)) == d

    def test_print_parse_idempotent(self):
        doc = print_dfa(FIG2)
        assert print_dfa(parse_dfa(doc)) == doc


class TestAccepts:
    def test_figure_word(self):
        assert accepts(FIG1, ["a", "b"])

    def test_empty_word_is_initial_finality(self):
        assert not accepts(FIG1, [])
        assert accepts(Dfa(("a",), 1, 0, {0}, ((0,),)), [])

    def test_figure_rejection(self):
        # hand-run: 0 -a-> 1 -a-> 0, not final
        assert not accepts(FIG1, ["a", "a"])

    def test_unknown_letter(self):
        with pytest.raises(ValueError, match="unknown letter"):
            accepts(FIG1, ["c"])
        with pytest.raises(ValueError, match=r"^unknown letter 'z'$"):
            FIG1.row("z")
        with pytest.raises(ValueError, match=r"^unknown letter 'z'$"):
            accepts(FIG1, ["a", "z"])

    def test_letter_index_is_not_part_of_the_value(self):
        # the index accepts builds once per automaton changes neither equality, hash nor the document
        fresh = parse_dfa(FIG1_DOC)
        assert accepts(FIG1, ["a", "b"]) and FIG1.letter_index("b") == 1
        assert FIG1 == fresh and hash(FIG1) == hash(fresh)
        assert print_dfa(FIG1) == print_dfa(fresh) == FIG1_DOC
        assert "_letter_ids" not in repr(FIG1)


class TestAccessiblePart:
    def test_drops_unreachable_sink(self):
        d = Dfa(("a",), 3, 0, {0, 2}, ((0, 2, 2),))
        trimmed = accessible_part(d)
        assert trimmed.n_states == 1
        assert equivalent(d, trimmed)

    def test_fully_accessible_is_renumbering_only(self):
        assert accessible_part(FIG2) == FIG2
        shuffled = Dfa(("a", "b"), 2, 1, {0}, ((0, 1), (0, 0)))
        renumbered = accessible_part(shuffled)
        assert renumbered == Dfa(("a", "b"), 2, 0, {1}, ((0, 1), (1, 1)))
        assert equivalent(shuffled, renumbered)

    def test_canonical_input_is_returned_itself(self):
        assert accessible_part(FIG2) is FIG2
        build = build_standard(wheel_builtin(1), monster(MonsterSpec((4,), "generators")))
        assert accessible_part(build) is build

    def test_noncanonical_input_is_rebuilt(self):
        # every state reachable and initial 0, but discovered in the order 0, 2, 1
        d = Dfa(("a",), 3, 0, {1}, ((2, 0, 1),))
        assert accessible_part(d) == Dfa(("a",), 3, 0, {2}, ((1, 2, 0),))
        # state 2 is unreachable, so 0, 1 is the identity prefix but not the whole
        d = Dfa(("a",), 3, 0, {2}, ((1, 0, 0),))
        assert accessible_part(d) == Dfa(("a",), 2, 0, set(), ((1, 0),))

    def test_figure_square_root_all_reachable(self):
        assert accessible_part(FIG2).n_states == 4

    def test_level_search_matches_a_per_state_search(self):
        rng = random.Random(20)
        shapes = set()
        for _ in range(300):
            d = sparse_dfa(rng)
            got = accessible_part(d)
            assert got == per_state_accessible_part(d), d
            shapes.add((len(d.alphabet), d.initial > 0, got.n_states < d.n_states))
        # every letter count, with and without a non-zero initial state and unreachable states
        assert {(k, True, True) for k in range(4)} <= shapes

    def test_one_state_levels_and_no_letters(self):
        # a chain: every level holds one state, so the level getter returns bare images
        chain = Dfa(("a",), 4, 3, {1}, ((0, 2, 0, 1),))  # 3 -> 1 -> 2 -> 0 -> 0
        assert accessible_part(chain) == Dfa(("a",), 4, 0, {1}, ((1, 2, 3, 3),))
        assert accessible_part(Dfa((), 3, 2, {0, 2}, ())) == Dfa((), 1, 0, {0}, ())

    def test_accessible_builds_are_returned_as_is(self):
        rng = random.Random(21)
        for _ in range(40):
            dfas = [random_dfa(rng, rng.randint(1, 3), "ab"[: rng.randint(1, 2)])]
            dfas.append(random_dfa(rng, rng.randint(1, 3), dfas[0].alphabet))
            build = build_standard(wheel_builtin(2), dfas)
            assert accessible_part(build) is build
        for sizes in ((4,), (2, 3), (3, 3, 3)):
            dfas = monster(MonsterSpec(sizes, "generators"))
            build = build_standard(wheel_builtin(len(sizes)), dfas)
            assert accessible_part(build) is build


@st.composite
def small_dfas(draw) -> Dfa:
    """Complete DFAs with constant letters, one-state cases, unreachable states and degenerate final sets."""
    n = draw(st.integers(1, 12))
    state = st.integers(0, n - 1)
    rows = draw(
        st.lists(
            st.one_of(state.map(lambda t: (t,) * n), st.lists(state, min_size=n, max_size=n).map(tuple)),
            min_size=1,
            max_size=3,
        )
    )
    finals = draw(st.one_of(st.just(frozenset()), st.just(frozenset(range(n))), st.frozensets(state)))
    return Dfa(tuple("abc"[: len(rows)]), n, draw(state), finals, tuple(rows))


def _first_occurrence(part: list[int]) -> list[int]:
    relabel: dict[int, int] = {}
    return [relabel.setdefault(c, len(relabel)) for c in part]


def _chain(n: int) -> Dfa:
    """a^(n-1) a*: the states 0 -> 1 -> ... -> n-1, only the last one final and looping."""
    return Dfa(("a",), n, 0, {n - 1}, (tuple(min(q + 1, n - 1) for q in range(n)),))


class TestMinimize:
    def test_square_root_figure_merges_to_three(self):
        # independent oracle: signature counting over all short words
        assert brute_min_states(FIG2) == 3
        m = assert_minimize_agree(FIG2)
        assert m.n_states == 3

    def test_already_minimal_fixed_point(self):
        m = assert_minimize_agree(FIG1)
        assert m.n_states == 2
        assert minimize(m) == m

    def test_idempotent_and_smaller_random(self):
        rng = random.Random(2)
        for _ in range(60):
            d = random_dfa(rng, rng.randint(1, 7), tuple("abc"[: rng.randint(1, 3)]))
            m = assert_minimize_agree(d)
            assert m.n_states <= d.n_states
            assert minimize(m) == m
            assert equivalent(d, m)
            assert m.n_states == brute_min_states(d)

    def test_agrees_with_moore_random_larger(self):
        # 8-60 states reach both split branches; every fifth DFA has no or only final states
        rng = random.Random(3)
        for i in range(300):
            n = rng.randint(8, 60)
            d = random_dfa(rng, n, tuple("abcd"[: rng.randint(1, 4)]))
            if i % 10 == 0:
                d = Dfa(d.alphabet, n, d.initial, frozenset(), d.trans)
            elif i % 10 == 5:
                d = Dfa(d.alphabet, n, d.initial, frozenset(range(n)), d.trans)
            assert assert_minimize_agree(d).n_states <= n

    def test_agrees_with_moore_with_permutation_letters(self):
        # permutation rows share the ids list as offsets; a row that is one image off a permutation must not
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(2, 40)
            rows = []
            for kind in rng.choices(("perm", "near", "random"), k=rng.randint(1, 4)):
                row = list(range(n))
                rng.shuffle(row)
                if kind == "near":
                    row[rng.randrange(n)] = row[rng.randrange(n)]
                elif kind == "random":
                    row = [rng.randrange(n) for _ in range(n)]
                rows.append(tuple(row))
            finals = frozenset(q for q in range(n) if rng.random() < 0.3)
            d = Dfa(tuple("abcd"[: len(rows)]), n, rng.randrange(n), finals, tuple(rows))
            assert_minimize_agree(d)

    def test_unary_chain_keeps_every_state(self):
        assert assert_minimize_agree(_chain(300)).n_states == 300

    def test_unary_sequence_with_long_prefix_and_period(self):
        rng = random.Random(4)
        u = UPSeq(tuple(rng.randrange(2) for _ in range(150)), tuple(rng.randrange(2) for _ in range(97)))
        d = upseq_to_unary_dfa(u)
        assert d.n_states > 200
        assert assert_minimize_agree(d).n_states == d.n_states

    def test_long_chain_hopcroft(self):
        # each round splits one state off the big block: quadratic unless
        # only the smaller part is moved
        assert minimize(_chain(20_000), "hopcroft").n_states == 20_000

    def test_quotient_is_already_canonical(self):
        # minimize returns its quotient without renumbering it again
        rng = random.Random(6)
        for _ in range(300):
            n, extra = rng.randint(1, 30), rng.randint(1, 5)
            letters = tuple("abcd"[: rng.randint(1, 4)])
            # no transition enters the states n .. n+extra-1, and the initial state is below n
            rows = tuple(
                tuple(rng.randrange(n) for _ in range(n)) + tuple(rng.randrange(n + extra) for _ in range(extra))
                for _ in letters
            )
            finals = frozenset(q for q in range(n + extra) if rng.random() < 0.5)
            d = Dfa(letters, n + extra, rng.randrange(n), finals, rows)
            for algo in ("hopcroft", "moore"):
                m = minimize(d, algo)
                assert accessible_part(m) == m

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(small_dfas())
    def test_hopcroft_matches_moore_on_every_state(self, d):
        # the partitions cover unreachable states too; minimize drops them
        assert _first_occurrence(_hopcroft_partition(d)) == _first_occurrence(nerode_partition(d))
        assert print_dfa(minimize(d, "hopcroft")) == print_dfa(minimize(d, "moore"))

    def test_minimize_peak_memory_stays_near_the_build(self):
        # 256 letters x 256 states: how predecessors are stored decides minimize's peak
        dfas = monster(MonsterSpec((4,), "full"))
        tracemalloc.start()
        try:
            d = build_standard(wheel_builtin(1), dfas)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            m = minimize(d)
            minimize_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.n_states == 253
        assert minimize_peak <= 1.5 * build_peak, (minimize_peak, build_peak)

    def test_build_and_minimize_peaks_stay_near_what_the_build_holds(self):
        # 46,656 states on one coordinate.  Peak over the memory the build holds, on Python
        # 3.10-3.13: build 1.45 when the search kept its tables while cutting the rows and
        # numbered one coordinate through a dict, 1.14 without; minimize 1.97 when Hopcroft
        # and the quotient made a new int for most numbers they stored, 1.58 without.
        dfas = monster(MonsterSpec((6,), "generators"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            built = build_standard_detailed(wheel_builtin(1), dfas)
            held, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            m = minimize(built.dfa)
            minimize_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.n_states == 46651
        held, build_peak, minimize_peak = held - base, build_peak - base, minimize_peak - base
        assert build_peak <= 1.3 * held, (build_peak, held)
        assert minimize_peak <= 1.78 * held, (minimize_peak, held)

    def test_no_finals_collapses(self):
        d = Dfa(("a",), 4, 0, set(), ((1, 2, 3, 0),))
        assert minimize(d).n_states == 1

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            minimize(FIG1, "brzozowski")


class TestEquivalent:
    def test_reflexive(self):
        assert equivalent(FIG1, FIG1)

    def test_minimization_preserves_language(self):
        assert equivalent(FIG2, minimize(FIG2))

    def test_complement_differs(self):
        flipped = Dfa(FIG1.alphabet, 2, 0, {0}, FIG1.trans)
        assert not equivalent(FIG1, flipped)
        # brute-force word scan agrees and the separating word is "a"
        assert not brute_equivalent(FIG1, flipped)
        assert accepts(FIG1, ["a"]) and not accepts(flipped, ["a"])

    def test_alphabet_order_irrelevant(self):
        reordered = Dfa(("b", "a"), 2, 0, {1}, ((1, 1), (1, 0)))
        assert equivalent(FIG1, reordered)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            equivalent(FIG1, Dfa(("a",), 1, 0, set(), ((0,),)))

    def test_agrees_with_brute_force_random(self):
        rng = random.Random(3)
        for _ in range(40):
            a = random_dfa(rng, rng.randint(1, 4), ("a", "b"))
            b = random_dfa(rng, rng.randint(1, 4), ("a", "b"))
            assert equivalent(a, b) == brute_equivalent(a, b)


class TestPreimage:
    def test_identity_map(self):
        same = preimage_dfa(FIG1, {"a": "a", "b": "b"})
        assert same == FIG1

    def test_collapse_to_single_letter(self):
        d = preimage_dfa(FIG1, {"x": "a", "y": "a"})
        assert d.alphabet == ("x", "y")
        # both letters map to the swap, so acceptance is odd word length
        for w in [[], ["x"], ["y"], ["x", "y"], ["y", "y", "x"]]:
            assert accepts(d, w) == (len(w) % 2 == 1)

    def test_unmapped_letter(self):
        with pytest.raises(ValueError, match="unknown letter"):
            preimage_dfa(FIG1, {"x": "z"})

    def test_empty_map(self):
        with pytest.raises(ValueError, match=r"^letter map must be nonempty$"):
            preimage_dfa(FIG1, {})


class TestDot:
    def test_figure_golden(self):
        # A backslash in a letter is doubled: a lone one before the closing quote would escape it.
        for a, label_ab, label_a in [("a", "a,b", "a"), ("a\\", "a\\\\,b", "a\\\\")]:
            dot = to_dot(Dfa((a, "b"), FIG1.n_states, FIG1.initial, FIG1.finals, FIG1.trans))
            assert dot == (
                "digraph dfa {\n"
                "  rankdir=LR;\n"
                '  __init [shape=none label=""];\n'
                "  __init -> 0;\n"
                "  0 [shape=circle];\n"
                "  1 [shape=doublecircle];\n"
                f'  0 -> 1 [label="{label_ab}"];\n'
                f'  1 -> 0 [label="{label_a}"];\n'
                '  1 -> 1 [label="b"];\n'
                "}\n"
            )

    def test_no_finals_no_double_circles(self):
        d = Dfa(("a",), 2, 0, set(), ((1, 1),))
        assert "doublecircle" not in to_dot(d)

    def test_deterministic(self):
        assert to_dot(FIG2) == to_dot(FIG2)


class TestCanonicalNumbering:
    def test_isomorphic_inputs_same_canonical_form(self):
        # FIG1 with states relabeled by the swap 0<->1
        relabeled = Dfa(("a", "b"), 2, 1, {0}, ((1, 0), (0, 0)))
        assert canon(relabeled) == canon(FIG1)


class TestWordsWithin:
    def test_counts_words_up_to_the_cap(self):
        for n_letters in range(4):
            alphabet = "abc"[:n_letters]
            for max_len in range(6):
                count = sum(1 for _ in words_up_to(alphabet, max_len))
                assert words_within(n_letters, max_len, count) == count
                assert words_within(n_letters, max_len, count - 1) is None

    def test_huge_lengths_are_refused_without_counting(self):
        assert words_within(1, 10**18, 10**7) is None
        assert words_within(1, 10**7 - 1, 10**7) == 10**7
        assert words_within(0, 10**18, 1) == 1
        assert words_within(2, 10**18, 10**7) is None


class TestAcceptsUpTo:
    """The level walk, with ``accepts`` on each word of ``words_up_to`` as the reference."""

    def test_matches_accepts_word_by_word(self):
        rng = random.Random(18)
        for case in range(36):
            alphabet = ("", "a", "abc")[case % 3]
            # states n .. n + extra - 1 are never a successor, so they are unreachable
            n, extra = rng.randint(2, 4), rng.randint(1, 2)
            rows = tuple(tuple(rng.randrange(n) for _ in range(n + extra)) for _ in alphabet)
            finals = frozenset(q for q in range(n + extra) if rng.random() < 0.5)
            d = Dfa(tuple(alphabet), n + extra, rng.randrange(1, n), finals, rows)
            for max_len in range(7):
                want = [accepts(d, w) for w in words_up_to(d.alphabet, max_len)]
                assert list(accepts_up_to(d, max_len)) == want, (d, max_len)

    def test_no_letters_stop_after_the_empty_word(self):
        d = Dfa((), 2, 1, frozenset({1}), ())
        assert list(words_up_to((), 10**18)) == [()]
        assert list(accepts_up_to(d, 10**18)) == [True]
        assert list(accepts_up_to(Dfa((), 1, 0, frozenset(), ()), 10**18)) == [False]
