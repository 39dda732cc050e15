"""Tests for eventually periodic sequences and characteristic tuples."""

import random
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from friendlyops import (
    CharTuple,
    TransFn,
    TransTuple,
    UPSeq,
    accepts,
    at,
    char_seq,
    char_tuple,
    format_char_tuple,
    format_upseq,
    identity,
    parse_char_tuple,
    parse_eset,
    parse_upseq,
    rho_shape,
    scale,
    scale_tuple,
    upseq_to_unary_dfa,
)
from friendlyops.errors import ParseError

bits = st.integers(0, 1)
prefixes = st.lists(bits, max_size=5).map(tuple)
periods = st.lists(bits, min_size=1, max_size=5).map(tuple)


def raw_at(prefix, period, p):
    """Index into the sequence as literally written, before canonicalization."""
    if p < len(prefix):
        return prefix[p]
    return period[(p - len(prefix)) % len(period)]


class TestCanonicalize:
    def test_prefix_absorbed_into_period(self):
        # raw 0,1,1,1,... : value checked pointwise below
        u = UPSeq((0, 1), (1, 1))
        assert (u.prefix, u.period) == ((0,), (1,))
        assert all(at(u, p) == raw_at((0, 1), (1, 1), p) for p in range(8))

    def test_repeated_period_collapses(self):
        assert UPSeq((), (0, 1, 0, 1)) == UPSeq((), (0, 1))

    def test_all_zero(self):
        assert UPSeq((0,), (0,)) == UPSeq((), (0,))

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            UPSeq((0,), ())

    @pytest.mark.parametrize("make, message", [
        (lambda: UPSeq((2,), (0,)), "bit 2 is not 0 or 1"),
        (lambda: CharTuple(()), "a CharTuple needs at least one component"),
    ], ids=["bit", "no-component"])
    def test_rejected_with_message(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    @given(prefixes, periods)
    def test_idempotent_and_value_preserving(self, prefix, period):
        u = UPSeq(prefix, period)
        assert UPSeq(u.prefix, u.period) == u
        bound = len(prefix) + len(period) + len(u.prefix) + 2 * len(u.period)
        assert all(at(u, p) == raw_at(prefix, period, p) for p in range(bound + 1))

    @given(prefixes, periods)
    def test_normal_form_is_minimal(self, prefix, period):
        u = UPSeq(prefix, period)
        if u.prefix:
            assert u.prefix[-1] != u.period[-1]
        for d in range(1, len(u.period)):
            assert not (len(u.period) % d == 0 and u.period == u.period[:d] * (len(u.period) // d))


class TestAt:
    def test_zero_then_ones(self):
        u = parse_upseq("0(1)")
        assert at(u, 0) == 0 and at(u, 5) == 1

    @given(st.integers(0, 50))
    def test_alternating_is_parity(self, p):
        assert at(parse_upseq("(01)"), p) == p % 2

    @given(st.integers(0, 50))
    def test_constant_zero(self, p):
        assert at(parse_upseq("(0)"), p) == 0

    def test_negative_index(self):
        with pytest.raises(ValueError):
            at(parse_upseq("(0)"), -1)


class TestEquality:
    def test_distinct(self):
        assert parse_upseq("(0)") != parse_upseq("0(1)")

    def test_canonicalized_forms_agree(self):
        assert UPSeq((0, 1), (1, 1)) == parse_upseq("0(1)")

    @given(prefixes, periods)
    def test_reflexive(self, prefix, period):
        u = UPSeq(prefix, period)
        assert u == u

    @given(prefixes, periods, prefixes, periods)
    def test_matches_pointwise_comparison(self, p1, q1, p2, q2):
        u, v = UPSeq(p1, q1), UPSeq(p2, q2)
        bound = max(len(u.prefix), len(v.prefix)) + lcm(len(u.period), len(v.period))
        pointwise = all(at(u, p) == at(v, p) for p in range(bound + 1))
        assert (u == v) == pointwise


class TestScale:
    def test_even_samples_of_parity(self):
        # bit at 2p of (01) is always 0
        assert scale(parse_upseq("(01)"), 2) == parse_upseq("(0)")

    def test_identity_factor(self):
        u = parse_upseq("010(110)")
        assert scale(u, 1) == u

    def test_odd_factor_keeps_parity(self):
        # 3p mod 2 = p mod 2
        assert scale(parse_upseq("(01)"), 3) == parse_upseq("(01)")

    def test_zero_factor_freezes_first_bit(self):
        assert scale(parse_upseq("1(0)"), 0) == parse_upseq("(1)")
        assert scale(parse_upseq("0(1)"), 0) == parse_upseq("(0)")

    @given(prefixes, periods, st.integers(0, 6), st.integers(0, 30))
    def test_soundness(self, prefix, period, m, p):
        u = UPSeq(prefix, period)
        assert at(scale(u, m), p) == at(u, m * p)

    @given(prefixes, periods, st.integers(0, 4), st.integers(0, 4))
    def test_composition(self, prefix, period, m1, m2):
        u = UPSeq(prefix, period)
        assert scale(scale(u, m1), m2) == scale(u, m1 * m2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scale(parse_upseq("(0)"), -1)


class TestCharSeq:
    def test_swap_into_final(self):
        # orbit of 0 under the swap: 0,1,0,1,... final set {1}
        assert char_seq(TransFn((1, 0)), 0, {1}) == parse_upseq("(01)")

    def test_swap_other_final_set(self):
        assert char_seq(TransFn((1, 0)), 0, {0}) == parse_upseq("(10)")

    def test_fixed_orbits(self):
        assert char_seq(identity(2), 0, {1}) == parse_upseq("(0)")
        assert char_seq(TransFn((1, 1)), 0, {1}) == parse_upseq("0(1)")

    def test_result_bounded_by_rho_shape(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 7)
            f = TransFn(tuple(rng.randrange(n) for _ in range(n)))
            i = rng.randrange(n)
            finals = {q for q in range(n) if rng.random() < 0.5}
            shape = rho_shape(f, i)
            u = char_seq(f, i, finals)
            assert len(u.prefix) <= shape.tail
            assert shape.cycle % len(u.period) == 0
            # values agree with direct orbit iteration
            x = i
            for p in range(shape.tail + 2 * shape.cycle):
                assert at(u, p) == (1 if x in finals else 0)
                x = f(x)

    def test_final_state_out_of_range(self):
        with pytest.raises(ValueError, match=r"^final state 5 outside \[0, 2\)$"):
            char_seq(identity(2), 0, {5})

    def test_start_out_of_range(self):
        with pytest.raises(ValueError, match=r"^start 2 outside \[0, 2\)$"):
            char_seq(identity(2), 2, {1})

    def test_finals_may_be_any_iterable(self):
        f = TransFn((1, 2, 0))
        want = char_seq(f, 0, frozenset({2}))
        assert char_seq(f, 0, [2]) == char_seq(f, 0, iter([2, 2])) == want == parse_upseq("(001)")


class TestCharTuple:
    def test_two_swapped_components(self):
        # swap on both coordinates, finals {1} and {0}
        ft = TransTuple((TransFn((1, 0)), TransFn((1, 0))))
        chi = char_tuple(ft, (0, 0), ({1}, {0}))
        assert chi == parse_char_tuple("(01),(10)")

    def test_identity_nonfinal(self):
        chi = char_tuple(TransTuple((identity(2), identity(3))), (0, 0), (set(), {1}))
        assert chi == parse_char_tuple("(0),(0)")

    def test_constant_to_final(self):
        chi = char_tuple(TransTuple((TransFn((1, 1)),)), (0,), ({1},))
        assert chi == parse_char_tuple("0(1)")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            char_tuple(TransTuple((identity(2),)), (0, 0), ({1}, {0}))


class TestUnaryDfa:
    def test_zero_then_ones(self):
        d = upseq_to_unary_dfa(parse_upseq("0(1)"))
        assert d.n_states == 2
        assert [accepts(d, ["a"] * p) for p in range(4)] == [False, True, True, True]

    def test_constant_zero(self):
        d = upseq_to_unary_dfa(parse_upseq("(0)"))
        assert d.n_states == 1 and not d.finals

    def test_alternating(self):
        d = upseq_to_unary_dfa(parse_upseq("(01)"))
        assert [accepts(d, ["a"] * p) for p in range(5)] == [False, True, False, True, False]

    @given(prefixes, periods)
    def test_accepts_matches_at(self, prefix, period):
        u = UPSeq(prefix, period)
        d = upseq_to_unary_dfa(u)
        assert d.n_states == len(u.prefix) + len(u.period)
        for p in range(len(u.prefix) + 2 * len(u.period) + 1):
            assert accepts(d, ["a"] * p) == (at(u, p) == 1)


class TestLiterals:
    @pytest.mark.parametrize("text", ["(0)", "0(1)", "(01)", "011(010)"])
    def test_round_trip(self, text):
        assert format_upseq(parse_upseq(text)) == text

    def test_non_canonical_literal_normalizes(self):
        assert format_upseq(parse_upseq("01(11)")) == "0(1)"

    @pytest.mark.parametrize("bad", ["", "01", "()", "0()", "(012)", "0(1", "x(1)"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_upseq(bad)

    def test_char_tuple_round_trip(self):
        chi = parse_char_tuple("0(1),(01),(0)")
        assert format_char_tuple(chi) == "0(1),(01),(0)"

    def test_str_is_the_literal(self):
        assert str(UPSeq((0,), (1,))) == "0(1)"
        assert str(CharTuple((UPSeq((), (0,)), UPSeq((0,), (1,))))) == "(0),0(1)"


class TestEsetFormat:
    def test_golden(self):
        k, tuples = parse_eset("eset v1 k=1\n(0)\n0(1)\n")
        assert k == 1
        assert tuples == [CharTuple((UPSeq((), (0,)),)), CharTuple((UPSeq((0,), (1,)),))]

    def test_blank_lines_skipped(self):
        k, tuples = parse_eset("eset v1 k=2\n\n(0),(01)\n\n")
        assert k == 2 and len(tuples) == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("", "malformed header"),
            ("eset v2 k=1\n", "malformed header"),
            ("eset v1 k=x\n", "malformed arity"),
            ("eset v1 k=\u0661\n", "malformed arity"),
            ("eset v1 k=0\n", "arity must be positive"),
            ("eset v1 k=-1\n", "arity must be positive"),
            ("eset v1 k=+1\n", "malformed arity"),
            ("eset v1 k=--1\n", "malformed arity"),
            ("eset v1 k=1\n(0),(1)\n", "expected 1 components"),
            ("eset v1 k=1\nnope\n", "malformed sequence literal"),
        ],
    )
    def test_errors(self, doc, message):
        with pytest.raises(ParseError, match="line \\d+") as exc:
            parse_eset(doc)
        assert message in str(exc.value)


class TestScaleTuple:
    def test_componentwise(self):
        chi = parse_char_tuple("(01),0(1)")
        assert scale_tuple(chi, 2) == parse_char_tuple("(0),0(1)")
