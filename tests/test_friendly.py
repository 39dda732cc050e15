"""Tests for the expression language, predicates and the word oracle."""

import random
from math import lcm
from types import SimpleNamespace

import pytest
from conftest import FIG1, FIG2

from friendlyops import (
    And,
    Arg,
    CharTuple,
    Compiled,
    Dfa,
    Explicit,
    MonsterSpec,
    Not,
    Or,
    RootM,
    RootStar,
    UPSeq,
    Wheel,
    Xor,
    accepts,
    at,
    build_standard,
    eval_expr,
    eval_pred,
    explicit_from_file,
    expr_arity,
    format_expr,
    monster,
    parse_char_tuple,
    parse_expr,
    scale_tuple,
    upseq_to_unary_dfa,
    wheel_builtin,
    word_oracle,
    words_up_to,
)
from friendlyops import friendly, transforms
from friendlyops.errors import CapExceeded, ParseError
from friendlyops.experiments import random_char_tuple, random_dfa, random_expr
from friendlyops.friendly import MAX_EXPR_DEPTH
from friendlyops.transforms import letter_tuples, tuple_compose, tuple_identity
from friendlyops.upseq import char_tuple

# Expressions just past the depth limit, one per way of getting deep:
# prefix operators, brackets, a flat left-leaning chain, nested roots, and
# brackets each opened inside three operators of rising precedence.
TOO_DEEP = {
    "bang": "!" * (MAX_EXPR_DEPTH + 1) + "L1",
    "paren": "(" * (MAX_EXPR_DEPTH + 1) + "L1" + ")" * (MAX_EXPR_DEPTH + 1),
    "chain": " & ".join(["L1"] * (MAX_EXPR_DEPTH + 2)),
    "root": "root[1](" * (MAX_EXPR_DEPTH + 1) + "L1" + ")" * (MAX_EXPR_DEPTH + 1),
    "mixed": "L1 | L1 ^ L1 & (" * MAX_EXPR_DEPTH + "L1" + ")" * MAX_EXPR_DEPTH,
}


class TestParseExpr:
    def test_mixed_example(self):
        got = parse_expr("(root[2](L1) | L2) & !L3")
        assert got == And(Or(RootM(2, Arg(1)), Arg(2)), Not(Arg(3)))
        assert expr_arity(got) == 3

    def test_single_argument(self):
        assert parse_expr("L1") == Arg(1)

    def test_infinitary_root(self):
        assert parse_expr("Root(L1)") == RootStar(Arg(1))

    def test_wheel_atom(self):
        assert parse_expr("wheel 2") == Wheel(2)
        assert expr_arity(parse_expr("wheel 2 | L3")) == 3

    def test_precedence(self):
        assert parse_expr("L1 | L2 & L3") == Or(Arg(1), And(Arg(2), Arg(3)))
        assert parse_expr("L1 ^ L2 | L3") == Or(Xor(Arg(1), Arg(2)), Arg(3))
        assert parse_expr("!L1 & L2") == And(Not(Arg(1)), Arg(2))
        assert parse_expr("!!L1") == Not(Not(Arg(1)))

    def test_spaced_index(self):
        assert parse_expr("L 1") == Arg(1)
        assert parse_expr("L1 ") == Arg(1)

    @pytest.mark.parametrize(
        "bad", ["", "L0", "L", "wheel 0", "root[2](L1", "L1 &", "& L1", "L1 L2", "root(L1)", "foo"]
        # integers are ASCII digits only
        + ["L\u0661 & root[\u0662](L1)", "root[\u0662](L1)", "L1\u00b2"]
        + [pytest.param(text, id=f"too-deep-{name}") for name, text in TOO_DEEP.items()]
    )
    def test_syntax_errors_carry_position(self, bad):
        with pytest.raises(ParseError, match="position \\d+"):
            parse_expr(bad)

    def test_just_under_depth_limit_evaluates(self):
        chi = parse_char_tuple("0(1)")
        chain = parse_expr(" & ".join(["L1"] * (MAX_EXPR_DEPTH + 1)))
        assert eval_expr(chain, chi) and expr_arity(chain) == 1
        assert parse_expr(format_expr(chain)) == chain
        bangs = parse_expr("!" * MAX_EXPR_DEPTH + "L1")
        assert eval_expr(bangs, chi) == (MAX_EXPR_DEPTH % 2 == 0)
        parens = parse_expr("(" * MAX_EXPR_DEPTH + "L1" + ")" * MAX_EXPR_DEPTH)
        assert parens == Arg(1)
        roots = parse_expr("Root(" * MAX_EXPR_DEPTH + "L1" + ")" * MAX_EXPR_DEPTH)
        assert eval_expr(roots, chi) and parse_expr(format_expr(roots)) == roots

    def test_format_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            e = random_expr(rng, rng.randint(1, 3), 4)
            assert parse_expr(format_expr(e)) == e
        assert parse_expr(format_expr(Wheel(2))) == Wheel(2)


class TestEvalPred:
    def test_explicit_membership(self):
        pred = Explicit((parse_char_tuple("(01),(10)"),), 2)
        assert eval_pred(pred, parse_char_tuple("(01),(10)"))
        assert not eval_pred(pred, parse_char_tuple("(01),(01)"))

    def test_root_star_scan(self):
        pred = Compiled(parse_expr("Root(L1)"))
        assert not eval_pred(pred, parse_char_tuple("(0)"))
        assert eval_pred(pred, parse_char_tuple("0(1)"))

    def test_wheel_unary(self):
        w1 = wheel_builtin(1)
        assert eval_pred(w1, parse_char_tuple("0(1)"))
        assert not eval_pred(w1, parse_char_tuple("(01)"))
        assert eval_pred(w1, parse_char_tuple("(0)"))

    def test_wheel_binary_excludes_all_zero(self):
        w2 = wheel_builtin(2)
        assert not eval_pred(w2, parse_char_tuple("(0),(0)"))
        assert eval_pred(w2, parse_char_tuple("(0),0(1)"))
        assert not eval_pred(w2, parse_char_tuple("(01),0(1)"))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            eval_pred(wheel_builtin(2), parse_char_tuple("(0)"))

    @pytest.mark.parametrize("make, message", [
        (lambda: Explicit((), 0), "arity must be positive"),
        (lambda: Explicit((parse_char_tuple("(0),(1)"),), 1), "tuple arity 2 != predicate arity 1"),
        (lambda: wheel_builtin(0), "wheel arity must be positive"),
    ], ids=["explicit-arity", "explicit-tuple", "wheel-arity"])
    def test_predicate_rejected_with_message(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_argument_reads_index_one(self):
        # membership of a word is membership of its first power
        pred = Compiled(parse_expr("L1"))
        assert eval_pred(pred, parse_char_tuple("0(1)"))
        assert not eval_pred(pred, parse_char_tuple("1(0)"))

    def test_root_zero_reads_index_zero(self):
        pred = Compiled(parse_expr("root[0](L1)"))
        assert not eval_pred(pred, parse_char_tuple("0(1)"))
        assert eval_pred(pred, parse_char_tuple("1(0)"))

    def test_scan_cap(self):
        # periods 1009 and 1013 are prime: the scan bound 1009 * 1013 = 1,022,117 exceeds the cap
        chi = parse_char_tuple("(1" + "0" * 1008 + "),(1" + "0" * 1012 + ")")
        with pytest.raises(CapExceeded):
            eval_pred(Compiled(parse_expr("Root(L1 & L2)")), chi)

    def test_unknown_expression_node(self):
        with pytest.raises(TypeError, match="^not an expression node: "):
            eval_expr(object(), parse_char_tuple("0(1)"))

    def test_unknown_predicate(self):
        with pytest.raises(TypeError, match="^not a predicate: "):
            eval_pred(SimpleNamespace(arity=1), parse_char_tuple("0(1)"))


class TestRootStarBound:
    def test_scan_window_is_sufficient(self):
        # scanning exponents up to A+C must agree with scanning 4(A+C)
        rng = random.Random(13)
        for _ in range(150):
            k = rng.randint(1, 2)
            chi = random_char_tuple(rng, k)
            inner = random_expr(rng, k, 2)
            a = max(len(u.prefix) for u in chi.components)
            c = lcm(*(len(u.period) for u in chi.components))
            short = any(eval_expr(inner, scale_tuple(chi, p)) for p in range(1, a + c + 1))
            long = any(eval_expr(inner, scale_tuple(chi, p)) for p in range(1, 4 * (a + c) + 1))
            assert short == long


def rescaled_eval(e, chi):
    """The evaluator that rescales the tuple at every root, kept as the reference for ``eval_expr``.

    ``root[m]`` evaluates its operand on ``scale_tuple(chi, m)`` and ``Root`` on ``scale_tuple(chi, p)``
    for each exponent p it scans, so an argument always reads bit 1 of the tuple it is given.
    """
    if isinstance(e, Arg):
        return at(chi.components[e.index - 1], 1) == 1
    if isinstance(e, Wheel):
        return friendly._wheel_member(chi.components[: e.k])
    if isinstance(e, Not):
        return not rescaled_eval(e.inner, chi)
    if isinstance(e, And):
        return rescaled_eval(e.left, chi) and rescaled_eval(e.right, chi)
    if isinstance(e, Or):
        return rescaled_eval(e.left, chi) or rescaled_eval(e.right, chi)
    if isinstance(e, Xor):
        return rescaled_eval(e.left, chi) != rescaled_eval(e.right, chi)
    if isinstance(e, RootM):
        return rescaled_eval(e.inner, scale_tuple(chi, e.m))
    if isinstance(e, RootStar):
        bound = max(len(u.prefix) for u in chi.components) + lcm(*(len(u.period) for u in chi.components))
        if bound > friendly.DEFAULT_SCAN_CAP:
            raise CapExceeded(f"Root scan bound {bound} exceeds cap {friendly.DEFAULT_SCAN_CAP}")
        return any(rescaled_eval(e.inner, scale_tuple(chi, p)) for p in range(1, bound + 1))
    raise TypeError(f"not an expression node: {e!r}")


def sized_expr(rng, arity, depth):
    """A random expression over arguments 1..arity with wheel leaves, root[0..4] and nested Root."""
    if depth <= 0 or rng.random() < 0.25:
        return Wheel(rng.randint(1, arity)) if rng.random() < 0.2 else Arg(rng.randint(1, arity))
    node = rng.choice((Not, And, Or, Xor, RootM, RootStar))
    if node is RootM:
        return RootM(rng.randint(0, 4), sized_expr(rng, arity, depth - 1))
    if node in (Not, RootStar):
        return node(sized_expr(rng, arity, depth - 1))
    return node(sized_expr(rng, arity, depth - 1), sized_expr(rng, arity, depth - 1))


def random_bits(rng, lo, hi):
    return tuple(rng.randrange(2) for _ in range(rng.randint(lo, hi)))


def outcome(evaluate, e, chi):
    """The value, or the type and message of the exception, of one evaluation."""
    try:
        return evaluate(e, chi)
    except Exception as exc:
        return type(exc), str(exc)


class TestEvaluationByExponent:
    PERIOD_13 = parse_char_tuple("(1000000000000)")

    def test_agrees_with_rescaled_evaluation(self, monkeypatch):
        # arity 1-3, prefixes of 0-5 bits, periods of 1-7 bits; some pairs under a small scan cap
        rng = random.Random(23)
        seen = set()
        for _ in range(5000):
            k = rng.randint(1, 3)
            e = sized_expr(rng, k, 4)
            chi = CharTuple(tuple(UPSeq(random_bits(rng, 0, 5), random_bits(rng, 1, 7)) for _ in range(k)))
            monkeypatch.setattr(friendly, "DEFAULT_SCAN_CAP", rng.choice((10**6, 40, 12)))
            want = outcome(rescaled_eval, e, chi)
            assert outcome(eval_expr, e, chi) == want, (format_expr(e), str(chi))
            seen.add(want if isinstance(want, bool) else want[0])
        assert seen == {True, False, CapExceeded}

    def test_refusals_follow_the_scaled_bound(self, monkeypatch):
        monkeypatch.setattr(friendly, "DEFAULT_SCAN_CAP", 12)
        for evaluate in (eval_expr, rescaled_eval):
            with pytest.raises(CapExceeded) as exc:
                evaluate(parse_expr("Root(L1)"), self.PERIOD_13)
            assert str(exc.value) == "Root scan bound 13 exceeds cap 12"
            # the 13th power of the word has the tuple (1), whose scan bound is 1
            assert evaluate(parse_expr("root[13](Root(L1))"), self.PERIOD_13) is True


class TestScaleWork:
    """``scale_tuple`` runs at most once per ``Root`` or ``wheel`` node evaluated."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"scale_tuple": 0, "root_or_wheel": 0}
        scale, evaluate = friendly.scale_tuple, friendly.eval_expr

        def counted_scale(chi, m):
            calls["scale_tuple"] += 1
            return scale(chi, m)

        def counted_eval(e, chi, **kwargs):
            calls["root_or_wheel"] += isinstance(e, (RootStar, Wheel))
            return evaluate(e, chi, **kwargs)

        monkeypatch.setattr(friendly, "scale_tuple", counted_scale)
        monkeypatch.setattr(friendly, "eval_expr", counted_eval)
        return calls

    def test_kary_build(self, calls):
        pred = Compiled(parse_expr("Root(L1 & L2) | root[2](L3)"))
        build = build_standard(pred, monster(MonsterSpec((3, 3, 3), "generators")))
        assert build.n_states == 19683
        assert calls["scale_tuple"] <= calls["root_or_wheel"] <= 512

    def test_nested_root_on_two_cycles(self, calls):
        chi = parse_char_tuple("(1" + "0" * 12 + "),(1" + "0" * 16 + ")")
        assert eval_pred(Compiled(parse_expr("Root(Root(L1 & L2 & !L1))")), chi) is False
        # the outer scan's bound is lcm(13, 17) = 221; each exponent it scans rescales at most once
        assert calls["scale_tuple"] <= min(calls["root_or_wheel"], 221)


class TestWordOracle:
    def test_square_root_figure_words(self):
        pred = Compiled(parse_expr("root[2](L1)"))
        # b acts as the constant map to the final state: b.b lands on 1
        assert word_oracle(pred, (FIG1,), ["b"])
        # a.a returns to the initial state
        assert not word_oracle(pred, (FIG1,), ["a"])

    def test_identity_expression_is_plain_acceptance(self):
        pred = Compiled(parse_expr("L1"))
        for w in words_up_to(FIG1.alphabet, 5):
            assert word_oracle(pred, (FIG1,), w) == accepts(FIG1, w)

    def test_figure_consistency_up_to_length_six(self):
        pred = Compiled(parse_expr("root[2](L1)"))
        for w in words_up_to(FIG1.alphabet, 6):
            assert word_oracle(pred, (FIG1,), w) == accepts(FIG2, w)

    def test_arity_is_computed_once_per_predicate(self, monkeypatch):
        walked = []

        def counting_arity(e):
            walked.append(e)
            return expr_arity(e)

        monkeypatch.setattr(friendly, "expr_arity", counting_arity)
        pred = Compiled(parse_expr("root[2](L1) & !L1"))
        word_oracle(pred, (FIG1,), [])
        assert len(walked) == 5  # one visit per node of the expression
        for w in words_up_to(FIG1.alphabet, 4):
            word_oracle(pred, (FIG1,), w)
        assert len(walked) == 5

    def test_unknown_letter_and_mismatches(self):
        pred = Compiled(parse_expr("L1"))
        with pytest.raises(ValueError, match="unknown letter"):
            word_oracle(pred, (FIG1,), ["z"])
        with pytest.raises(ValueError, match="arity"):
            word_oracle(wheel_builtin(2), (FIG1,), ["a"])
        other = upseq_to_unary_dfa(parse_char_tuple("(0)").components[0])
        with pytest.raises(ValueError, match="alphabet mismatch"):
            word_oracle(wheel_builtin(2), (FIG1, other), ["a"])


def reference_oracle(pred, dfas, word):
    """The oracle as a fold of validated tuples: tuple_compose from tuple_identity, then char_tuple."""
    if pred.arity != len(dfas):
        raise ValueError(f"arity mismatch: {len(dfas)} automata, predicate needs {pred.arity}")
    alphabet, letters = letter_tuples(dfas)
    step = dict(zip(alphabet, letters))
    f = tuple_identity(d.n_states for d in dfas)
    for tok in word:
        if tok not in step:
            raise ValueError(f"unknown letter {tok!r}")
        f = tuple_compose(step[tok], f)
    return eval_pred(pred, char_tuple(f, [d.initial for d in dfas], [d.finals for d in dfas]))


class TestOracleAgreesWithTupleFold:
    def test_random_inputs_all_words_up_to_six(self):
        rng = random.Random(9)
        arities, texts = set(), []
        for case in range(24):
            alphabet = "abc"[: 1 + case % 3]
            pred = Compiled(random_expr(rng, 1 + (case // 3) % 3, 4))
            dfas = [random_dfa(rng, rng.randint(1, 5), alphabet) for _ in range(pred.arity)]
            arities.add(pred.arity)
            texts.append(format_expr(pred.expr))
            memo = {}
            for w in words_up_to(alphabet, 6):
                want = reference_oracle(pred, dfas, w)
                assert word_oracle(pred, dfas, w, memo=None) == want, (texts[-1], w)
                assert word_oracle(pred, dfas, w, memo=memo) == want, (texts[-1], w, "memo")
        assert arities == {1, 2, 3}
        assert any("Root(" in t for t in texts) and any("root[" in t for t in texts)

    @pytest.mark.parametrize("pred, dfas, word, message", [
        (wheel_builtin(2), (FIG1,), ["a"], "arity mismatch: 1 automata, predicate needs 2"),
        (Compiled(Wheel(0)), (), ["a"], "need at least one input automaton"),
        (wheel_builtin(2), (FIG1, upseq_to_unary_dfa(parse_char_tuple("(0)").components[0])), ["a"],
         "alphabet mismatch across inputs"),
        (wheel_builtin(1), (FIG1,), ["a", "z"], "unknown letter 'z'"),
    ], ids=["arity", "no-inputs", "alphabet", "letter"])
    def test_error_messages_are_unchanged(self, pred, dfas, word, message):
        for oracle in (word_oracle, reference_oracle):
            with pytest.raises(ValueError) as raised:
                oracle(pred, dfas, word)
            assert str(raised.value) == message

    def test_one_char_tuple_and_no_composition_per_word(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle composed a TransTuple")

        calls = []

        def counting(*args):
            calls.append(args)
            return char_tuple(*args)

        monkeypatch.setattr(friendly, "tuple_compose", refuse)
        monkeypatch.setattr(transforms, "tuple_compose", refuse)
        monkeypatch.setattr(friendly, "char_tuple", counting)
        pred = Compiled(parse_expr("Root(L1) & root[2](L2)"))
        words = list(words_up_to(FIG1.alphabet, 5))
        for w in words:
            word_oracle(pred, (FIG1, FIG2), w)
        assert len(calls) == len(words)
        # with a memo, one char_tuple per distinct folded map, each a state of the accessible build
        calls.clear()
        memo = {}
        for w in words:
            word_oracle(pred, (FIG1, FIG2), w, memo=memo)
        assert len(calls) == len(memo) < len(words)
        assert len(memo) <= build_standard(pred, (FIG1, FIG2)).n_states


class TestWarmMemo:
    """A memo that a full sweep has filled: refusals as without it, and bounded by the build."""

    PRED = Compiled(parse_expr("Root(L1) & root[2](L2)"))
    DFAS = (FIG1, FIG2)

    def warm(self):
        memo = {}
        for w in words_up_to(FIG1.alphabet, 6):
            word_oracle(self.PRED, self.DFAS, w, memo=memo)
        return memo

    @pytest.mark.parametrize("pred, dfas, word, message", [
        (wheel_builtin(1), (FIG1, FIG2), ["a"], "arity mismatch: 2 automata, predicate needs 1"),
        (PRED, (FIG1, upseq_to_unary_dfa(parse_char_tuple("(0)").components[0])), ["a"],
         "alphabet mismatch across inputs"),
        (PRED, (FIG1, FIG2), ["a", "z"], "unknown letter 'z'"),
    ], ids=["arity", "alphabet", "letter"])
    def test_refusals_match_the_plain_fold(self, pred, dfas, word, message):
        memo = self.warm()
        # the first letter's step is memoized, so a lookup before the check would pass 'a'
        start = memo[tuple(tuple(range(d.n_states)) for d in self.DFAS)]
        assert start[FIG1.alphabet.index("a")] is not None
        before = {key: list(rec) for key, rec in memo.items()}
        for m in (None, memo):
            with pytest.raises(ValueError) as raised:
                word_oracle(pred, dfas, word, memo=m)
            assert str(raised.value) == message
        assert {key: list(rec) for key, rec in memo.items()} == before

    def test_bounded_by_the_accessible_build(self, monkeypatch):
        memo = self.warm()
        sigma = len(FIG1.alphabet)
        assert len(memo) <= build_standard(self.PRED, self.DFAS).n_states
        for key, rec in memo.items():
            assert len(rec) == sigma + 2 and rec[-2] == key and rec[-1] is not None
            for li, succ in enumerate(rec[:sigma]):
                # each successor is the record of the key one letter further on
                step = tuple(tuple(d.trans[li][q] for q in f) for d, f in zip(self.DFAS, key))
                assert succ is None or succ is memo[step]
        # a second sweep only looks up: no new record, no characteristic tuple
        words = list(words_up_to(FIG1.alphabet, 6))
        want = [word_oracle(self.PRED, self.DFAS, w) for w in words]
        monkeypatch.setattr(friendly, "char_tuple", None)
        size = len(memo)
        assert [word_oracle(self.PRED, self.DFAS, w, memo=memo) for w in words] == want
        assert len(memo) == size


ONE_STATE = Dfa(("a",), 1, 0, frozenset({0}), ((0,),))


class TestMemoStart:
    """A memo's first record is the identity map's, where every word starts."""

    PRED = Compiled(parse_expr("Root(L1) & root[2](L2)"))

    @pytest.mark.parametrize("first", [(), ("b", "a", "b", "b")], ids=["empty", "longer"])
    def test_first_key_is_the_identity(self, first):
        memo = {}
        word_oracle(self.PRED, (FIG1, FIG2), first, memo=memo)
        identity = ((0, 1), (0, 1, 2, 3))
        assert next(iter(memo)) == identity
        for w in words_up_to(FIG1.alphabet, 4):
            word_oracle(self.PRED, (FIG1, FIG2), w, memo=memo)
        assert next(iter(memo)) == identity and len(memo) > 1

    @pytest.mark.parametrize("text, dfas", [
        ("Root(L1) ^ root[2](L1)", (FIG1,)),
        ("Root(L1) ^ root[2](L1)", (FIG2,)),
        ("Root(L1) & root[2](L2)", (FIG1, FIG2)),
        ("Root(L1) ^ root[2](L1)", (ONE_STATE,)),
    ], ids=["fig1", "fig2", "fig1-fig2", "one-state"])
    def test_warm_memo_gives_the_fresh_verdicts(self, text, dfas):
        pred = Compiled(parse_expr(text))
        words = list(words_up_to(dfas[0].alphabet, 6))
        memo = {}
        # warmed longest word first, so the first call already steps
        for w in reversed(words):
            word_oracle(pred, dfas, w, memo=memo)
        fresh = [word_oracle(pred, dfas, w, memo=None) for w in words]
        assert [word_oracle(pred, dfas, w, memo=memo) for w in words] == fresh


class TestInjectivityProbe:
    def test_distinct_tuples_are_separated_by_one_letter(self):
        # one-letter witness languages read off the tuples themselves
        rng = random.Random(17)
        checked = 0
        while checked < 50:
            k = rng.randint(1, 2)
            u = random_char_tuple(rng, k)
            v = random_char_tuple(rng, k)
            if u == v:
                continue
            checked += 1
            witnesses = tuple(upseq_to_unary_dfa(comp) for comp in u.components)
            assert word_oracle(Explicit((u,), k), witnesses, ["a"])
            assert not word_oracle(Explicit((v,), k), witnesses, ["a"])


class TestWheelCharacterization:
    FORMULA = "(!root[0](L1) & !Root(L1)) | (!root[0](L1) & !Root(!L1))"

    def test_matches_builtin_on_random_tuples(self):
        pred = Compiled(parse_expr(self.FORMULA))
        w1 = wheel_builtin(1)
        rng = random.Random(19)
        for _ in range(200):
            chi = random_char_tuple(rng, 1)
            assert eval_pred(pred, chi) == eval_pred(w1, chi)

    def test_wheel_atom_matches_builtin(self):
        w2 = wheel_builtin(2)
        pred = Compiled(Wheel(2))
        assert w2 == pred
        rng = random.Random(23)
        for _ in range(100):
            chi = random_char_tuple(rng, 2)
            assert eval_pred(pred, chi) == eval_pred(w2, chi)


class TestExplicitFromFile:
    def test_wheel_equivalent_file(self):
        pred = explicit_from_file("eset v1 k=1\n(0)\n0(1)\n")
        w1 = wheel_builtin(1)
        rng = random.Random(29)
        for _ in range(100):
            chi = random_char_tuple(rng, 1)
            assert eval_pred(pred, chi) == eval_pred(w1, chi)

    def test_empty_set_is_constant_false(self):
        pred = explicit_from_file("eset v1 k=1\n")
        assert pred.tuples == ()
        assert not eval_pred(pred, parse_char_tuple("(0)"))

    def test_duplicates_collapse(self):
        pred = explicit_from_file("eset v1 k=1\n(0)\n00(00)\n0(1)\n")
        assert len(pred.tuples) == 2
