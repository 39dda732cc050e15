"""Tests for self-maps, tuples, orbits, generators and tokens."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friendlyops import (
    RhoShape,
    TransFn,
    TransTuple,
    compose,
    fn_token,
    identity,
    rho_shape,
    tn_generators,
    token_fn,
    tuple_compose,
    tuple_identity,
)
from friendlyops.errors import ParseError
from friendlyops.modifiers import accessible_tuples
from friendlyops.transforms import (
    all_fns,
    all_tuples,
    constant,
    fn_rank,
    fn_unrank,
    tuple_rank,
    tuple_space_size,
    tuple_space_text,
    tuple_space_within,
    tuple_unrank,
)


@st.composite
def trans_fns(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return TransFn(tuple(images))


@st.composite
def matched_fns(draw, count, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(
        TransFn(tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
        for _ in range(count)
    )


class TestTransFn:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransFn(())
        with pytest.raises(ValueError):
            TransFn((0, 2))
        with pytest.raises(ValueError, match=r"image True of 0 is not an int"):
            TransFn((True, 0))
        with pytest.raises(ValueError, match=r"image 0\.0 of 0 is not an int"):
            TransFn((0.0, 1.0))
        with pytest.raises(ValueError, match=r"^a TransTuple needs at least one component$"):
            TransTuple(())

    def test_predicates(self):
        assert identity(3).is_identity()
        assert constant(3, 1).is_constant()
        assert not TransFn((1, 0)).is_constant()


def assert_same_fn(got, want):
    assert type(got) is TransFn and all(type(v) is int for v in got.images)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert fn_rank(got) == fn_rank(want)


class TestCompose:
    def test_identity_neutral(self):
        g = TransFn((1, 1))
        assert compose(identity(2), g) == g == compose(g, identity(2))

    def test_swap_involution(self):
        swap = TransFn((1, 0))
        assert compose(swap, swap) == identity(2)

    def test_pointwise(self):
        # (f o g)(x) = f(g(x)), evaluated by hand: g(0)=1,f(1)=1; g(1)=0,f(0)=1
        f, g = TransFn((1, 1)), TransFn((1, 0))
        assert compose(f, g) == TransFn((1, 1))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))

    @given(matched_fns(3))
    def test_associative(self, fns):
        f, g, h = fns
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(matched_fns(2))
    def test_matches_direct_evaluation(self, fns):
        f, g = fns
        composed = compose(f, g)
        assert all(composed(x) == f(g(x)) for x in range(f.n))
        # compose builds its result unchecked; it behaves as the checked construction of the same images
        want = TransFn(tuple(f(g(x)) for x in range(f.n)))
        assert_same_fn(composed, want)
        assert fn_token(TransTuple((composed,))) == fn_token(TransTuple((want,)))


class TestTupleCompose:
    def test_identity_neutral(self):
        ft = TransTuple((TransFn((1, 0)), TransFn((1, 1, 0))))
        ident = tuple_identity((2, 3))
        assert tuple_compose(ident, ft) == ft == tuple_compose(ft, ident)

    def test_swaps_cancel(self):
        swap = TransFn((1, 0))
        both = TransTuple((swap, swap))
        assert tuple_compose(both, both) == tuple_identity((2, 2))

    def test_componentwise(self):
        swap, c1 = TransFn((1, 0)), TransFn((1, 1))
        left = TransTuple((swap, c1))
        right = TransTuple((c1, swap))
        result = tuple_compose(left, right)
        # component 1: swap o c1 = [0,0]; component 2: c1 o swap = [1,1]
        assert result == TransTuple((TransFn((0, 0)), TransFn((1, 1))))

    @pytest.mark.parametrize("apply, left, right, message", [
        (tuple_compose, (2,), (3,), r"^size mismatch: 2 vs 3$"),
        (tuple_compose, (2,), (2, 2), r"^shape mismatch: \(2,\) vs \(2, 2\)$"),
        # the build engine: a letter of another shape than its start
        (lambda letter, start: accessible_tuples([letter], [start], 100), (2,), (2, 2),
         r"^shape mismatch: \(2,\) vs \(2, 2\)$"),
    ], ids=["sizes", "count", "engine"])
    def test_shape_mismatch(self, apply, left, right, message):
        with pytest.raises(ValueError, match=message):
            apply(tuple_identity(left), tuple_identity(right))


@st.composite
def matched_tuples(draw, count):
    """``count`` tuples of one shape: 1-3 coordinates of sizes 1-6."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    return tuple(
        TransTuple(tuple(TransFn(tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))) for n in sizes))
        for _ in range(count)
    )


class TestResultsMatchCheckedConstruction:
    """tuple_compose builds its result unchecked; it behaves as the checked construction of the same images."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(matched_tuples(2))
    def test_tuple_compose(self, pair):
        f, g = pair
        got = tuple_compose(f, g)
        want = TransTuple(
            tuple(TransFn(tuple(a(b(x)) for x in range(a.n))) for a, b in zip(f.components, g.components))
        )
        assert type(got) is TransTuple and type(got.components) is tuple
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert got.sizes == want.sizes == f.sizes
        assert tuple_rank(got) == tuple_rank(want)
        assert fn_token(got) == fn_token(want)
        assert token_fn(fn_token(got)) == got
        for c, w in zip(got.components, want.components):
            assert_same_fn(c, w)


def brute_rho(f, start):
    """Smallest (tail+cycle, tail) with f^(tail+cycle)(start) = f^tail(start)."""
    def power(p):
        x = start
        for _ in range(p):
            x = f(x)
        return x

    best = None
    for total in range(1, f.n + 1):
        for tail in range(total):
            cycle = total - tail
            if power(tail + cycle) == power(tail):
                return tail, cycle
    raise AssertionError("no rho shape within n steps")


class TestRhoShape:
    def test_swap(self):
        assert rho_shape(TransFn((1, 0)), 0) == RhoShape(0, 2, (0, 1))

    def test_tail_then_fixpoint(self):
        assert rho_shape(TransFn((1, 1)), 0) == RhoShape(1, 1, (0, 1))

    def test_identity_fixed_point(self):
        for q in range(3):
            assert rho_shape(identity(3), q) == RhoShape(0, 1, (q,))

    def test_start_out_of_range(self):
        with pytest.raises(ValueError):
            rho_shape(identity(2), 2)

    @given(trans_fns(), st.integers(0, 5))
    def test_minimality(self, f, start):
        start %= f.n
        shape = rho_shape(f, start)
        assert shape.tail + shape.cycle <= f.n
        tail, cycle = brute_rho(f, start)
        assert (shape.tail, shape.cycle) == (tail, cycle)
        assert len(set(shape.orbit)) == len(shape.orbit)
        assert f(shape.orbit[-1]) == shape.orbit[shape.tail]


def closure(gens, n):
    seen = {identity(n)}
    frontier = list(seen)
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = compose(g, f)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return seen


class TestGenerators:
    def test_n1(self):
        assert tn_generators(1) == [TransFn((0,))]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closure_is_everything(self, n):
        assert len(closure(tn_generators(n), n)) == n**n

    def test_n2_set(self):
        assert tn_generators(2) == [TransFn((1, 0)), TransFn((0, 0))]

    def test_invalid(self):
        with pytest.raises(ValueError):
            tn_generators(0)


class TestTokens:
    def test_unary_swap(self):
        assert fn_token(TransTuple((TransFn((1, 0)),))) == "[1,0]"

    def test_pair(self):
        ft = TransTuple((TransFn((1, 0)), identity(3)))
        assert fn_token(ft) == "[1,0][0,1,2]"

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            ft = TransTuple(
                tuple(TransFn(tuple(rng.randrange(n) for _ in range(n))) for n in sizes)
            )
            assert token_fn(fn_token(ft)) == ft

    @pytest.mark.parametrize("bad", ["", "[]", "[1,2", "1,0", "[a,b]", "[2,0]", "[0,1] [1,0]", "[\u0661,0]", "[0,1][\u00b2]"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            token_fn(bad)


class TestRanks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fn_rank_matches_enumeration(self, n):
        fns = all_fns(n)
        assert len(fns) == n**n
        for r, f in enumerate(fns):
            assert fn_rank(f) == r
            assert fn_unrank(n, r) == f

    def test_tuple_rank_matches_enumeration(self):
        sizes = (2, 3)
        assert tuple_space_size(sizes) == 4 * 27
        for r, ft in enumerate(all_tuples(sizes)):
            assert tuple_rank(ft) == r
            assert tuple_unrank(sizes, r) == ft

    @pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (1, 1), (2, 3), (3, 3, 3), (4,)])
    @pytest.mark.parametrize("cap", [1, 3, 4, 26, 27, 108, 10**6])
    def test_space_within_cap(self, sizes, cap):
        total = tuple_space_size(sizes)
        assert tuple_space_within(sizes, cap) == (total if total <= cap else None)

    def test_space_text_is_decimal_while_printable(self):
        assert tuple_space_text((6,)) == "46656"
        # 1370^1370 has 4,298 digits and prints; 1380^1380 has 4,334
        assert tuple_space_text((1370,)) == str(1370**1370)
        assert tuple_space_text((2, 1380)) == "2^2 * 1380^1380"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fn_unrank(2, 4)
        with pytest.raises(ValueError):
            tuple_unrank((2,), -1)
