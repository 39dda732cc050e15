"""Tests for modifiers, standardization, composition and standard builds."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import FIG1, FIG2, FIG3, FIG5, assert_passes_the_check, brute_equivalent, canon, sparse_dfa

from friendlyops import (
    Compiled,
    Dfa,
    Explicit,
    Modifier,
    StateConfig,
    TransFn,
    TransTuple,
    accepts,
    apply_modifier,
    build_standard,
    build_standard_detailed,
    char_tuple,
    compl_mod,
    compose_mod,
    equivalent,
    eval_pred,
    minimize,
    parse_expr,
    sc_on_witness,
    sqrt_mod,
    standardize,
    tuple_compose,
    wheel_builtin,
    word_oracle,
    words_up_to,
    xor_mod,
)
from friendlyops import modifiers
from friendlyops.automata import accessible_part, print_dfa
from friendlyops.errors import CapExceeded
from friendlyops.experiments import random_dfa, random_predicate
from friendlyops.modifiers import _final_states, _random_tuple, _std_action
from friendlyops.monsters import MonsterSpec, monster
from friendlyops.transforms import (
    all_tuples,
    compose,
    identity,
    letter_tuples,
    rho_walk,
    tn_generators,
    tuple_identity,
    tuple_rank,
    tuple_space_size,
)

SIGMA_STAR = Dfa(("a", "b"), 1, 0, {0}, ((0,), (0,)))
EMPTY = Dfa(("a", "b"), 1, 0, set(), ((0,), (0,)))


def random_cases(seed, count, max_n=4, letters="ab"):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_dfa(rng, rng.randint(1, max_n), tuple(letters))


class TestSqrtMod:
    def test_figure_reproduction(self):
        out = apply_modifier(sqrt_mod(), (FIG1,))
        assert canon(out) == FIG2

    def test_full_language_is_fixed(self):
        assert equivalent(apply_modifier(sqrt_mod(), (SIGMA_STAR,)), SIGMA_STAR)

    def test_cross_check_with_standard_build(self):
        pred = Compiled(parse_expr("root[2](L1)"))
        for rng, d in random_cases(31, 30):
            assert equivalent(apply_modifier(sqrt_mod(), (d,)), build_standard(pred, (d,)))
            assert apply_modifier(sqrt_mod(), (d,)) == build_standard(pred, (d,), "full")

    def test_monster_square_root_size(self):
        m2 = monster(MonsterSpec((2,), "full"))
        assert minimize(apply_modifier(sqrt_mod(), m2)).n_states == 3


class TestXorMod:
    def test_neutral_and_self_cancelling(self):
        assert equivalent(apply_modifier(xor_mod(), (FIG1, EMPTY)), FIG1)
        assert equivalent(apply_modifier(xor_mod(), (FIG1, FIG1)), EMPTY)

    def test_agrees_with_wordwise_symmetric_difference(self):
        for rng, a in random_cases(37, 20):
            b = random_dfa(rng, rng.randint(1, 4), ("a", "b"))
            out = apply_modifier(xor_mod(), (a, b))
            for w in words_up_to(("a", "b"), 6):
                assert accepts(out, w) == (accepts(a, w) != accepts(b, w))


class TestComplMod:
    def test_figure_flip(self):
        # complement of FIG3 is FIG1 (same transitions, finals flipped)
        assert apply_modifier(compl_mod(), (FIG3,)) == FIG1

    def test_involution(self):
        for rng, d in random_cases(41, 20):
            assert equivalent(apply_modifier(compl_mod(), (apply_modifier(compl_mod(), (d,)),)), d)

    def test_matches_negated_expression(self):
        pred = Compiled(parse_expr("!L1"))
        for rng, d in random_cases(43, 20):
            assert equivalent(apply_modifier(compl_mod(), (d,)), build_standard(pred, (d,)))


class TestMorphismLaw:
    @pytest.mark.parametrize("factory", [sqrt_mod, compl_mod])
    def test_unary_builtins(self, factory):
        m = factory()
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(1, 4)
            cfg = StateConfig((n,), (rng.randrange(n),), (frozenset({rng.randrange(n)}),))
            phi = _random_tuple(rng, cfg.sizes)
            psi = _random_tuple(rng, cfg.sizes)
            assert m.action(cfg, tuple_compose(phi, psi)) == compose(
                m.action(cfg, phi), m.action(cfg, psi)
            )

    def test_xor_and_standardized(self):
        rng = random.Random(53)
        for m in (xor_mod(), standardize(xor_mod())):
            for _ in range(20):
                sizes = (rng.randint(1, 3), rng.randint(1, 3))
                cfg = StateConfig(sizes, (0, 0), (frozenset({0}), frozenset()))
                phi = _random_tuple(rng, sizes)
                psi = _random_tuple(rng, sizes)
                assert m.action(cfg, tuple_compose(phi, psi)) == compose(
                    m.action(cfg, phi), m.action(cfg, psi)
                )


class TestStandardize:
    def test_complement_figure(self):
        out = apply_modifier(standardize(compl_mod()), (FIG3,))
        assert canon(out) == FIG5

    def test_language_preserved_for_builtins(self):
        for rng, d in random_cases(59, 25, max_n=3):
            assert equivalent(apply_modifier(sqrt_mod(), (d,)),
                              apply_modifier(standardize(sqrt_mod()), (d,)))
            assert equivalent(apply_modifier(compl_mod(), (d,)),
                              apply_modifier(standardize(compl_mod()), (d,)))

    def test_language_preserved_for_xor(self):
        for rng, a in random_cases(61, 15, max_n=3):
            b = random_dfa(rng, rng.randint(1, 3), ("a", "b"))
            assert equivalent(apply_modifier(xor_mod(), (a, b)),
                              apply_modifier(standardize(xor_mod()), (a, b)))

    def test_idempotent_up_to_language(self):
        once = standardize(compl_mod())
        twice = standardize(once)
        for rng, d in random_cases(67, 10, max_n=3):
            assert equivalent(apply_modifier(once, (d,)), apply_modifier(twice, (d,)))

    def test_rejects_unfriendly_modifier(self):
        # composing on the wrong side is an antimorphism, not a morphism
        base = sqrt_mod()

        def backwards(cfg, dt):
            from friendlyops.transforms import all_fns, fn_rank

            (n,) = cfg.sizes
            delta = dt.components[0]
            return TransFn(tuple(fn_rank(compose(psi, delta)) for psi in all_fns(n)))

        bad = Modifier(1, base.n_states, base.initial, base.is_final, backwards)
        with pytest.raises(ValueError, match="not friendly"):
            apply_modifier(standardize(bad), (FIG1,))


class TestComposeMod:
    def test_square_root_of_complement(self):
        composed = compose_mod(sqrt_mod(), 1, compl_mod())
        pred = Compiled(parse_expr("root[2](!L1)"))
        for rng, d in random_cases(71, 15):
            assert equivalent(apply_modifier(composed, (d,)), build_standard(pred, (d,)))

    def test_xor_with_square_root_first(self):
        composed = compose_mod(xor_mod(), 1, sqrt_mod())
        pred = Compiled(parse_expr("root[2](L1) ^ L2"))
        for rng, a in random_cases(73, 15, max_n=3):
            b = random_dfa(rng, rng.randint(1, 3), ("a", "b"))
            assert equivalent(apply_modifier(composed, (a, b)), build_standard(pred, (a, b)))

    def test_identity_like_inner_preserves_language(self):
        keep = standardize(compose_mod(compl_mod(), 1, compl_mod()))
        composed = compose_mod(sqrt_mod(), 1, keep)
        for rng, d in random_cases(79, 10, max_n=3):
            assert equivalent(apply_modifier(composed, (d,)), apply_modifier(sqrt_mod(), (d,)))

    def test_position_out_of_range(self):
        with pytest.raises(ValueError, match="position"):
            compose_mod(sqrt_mod(), 2, compl_mod())

    def test_cap_refuses_before_any_inner_finality_test(self):
        # 6^6 inner states: testing each for finality would take most of a second
        base = sqrt_mod()
        tested = []

        def is_final(cfg, s):
            tested.append(s)
            return base.is_final(cfg, s)

        counted = Modifier(1, base.n_states, base.initial, is_final, base.action, base.label)
        cycle = Dfa(("a",), 6, 0, {0}, ((1, 2, 3, 4, 5, 0),))
        with pytest.raises(CapExceeded, match="more than 1000 states"):
            apply_modifier(compose_mod(compl_mod(), 1, counted), (cycle,), max_states=1000)
        assert tested == []


class TestBuildStandard:
    def test_full_mode_reproduces_figure(self):
        pred = Compiled(parse_expr("root[2](L1)"))
        build = build_standard_detailed(pred, (FIG1,), "full")
        assert build.dfa.n_states == 4
        assert canon(build.dfa) == FIG2
        finals = {build.labels()[s] for s in build.dfa.finals}
        assert finals == {"[1,1]"}

    def test_accessible_mode_is_canonical(self):
        pred = Compiled(parse_expr("root[2](L1)"))
        build = build_standard_detailed(pred, (FIG1,))
        assert build.dfa == FIG2
        assert build.labels() == ("[0,1]", "[1,0]", "[1,1]", "[0,0]")
        assert canon(build.dfa) == build.dfa

    def test_empty_explicit_set_builds_empty_language(self):
        pred = Explicit((), 1)
        out = build_standard(pred, (FIG1,))
        assert not out.finals
        assert equivalent(out, EMPTY)

    def test_wheel_on_two_state_monster(self):
        m2 = monster(MonsterSpec((2,), "full"))
        build = build_standard_detailed(wheel_builtin(1), m2, "full")
        assert build.dfa.n_states == 4
        finals = {build.labels()[s] for s in build.dfa.finals}
        # the identity and both constant maps have eventually-zero or
        # zero-then-one orbits; the swap alternates and stays out
        assert finals == {"[0,1]", "[0,0]", "[1,1]"}
        # independent route: the empty word and each one-letter word
        for tok, wanted in [("[0,1]", True), ("[0,0]", True), ("[1,1]", True), ("[1,0]", False)]:
            assert word_oracle(wheel_builtin(1), m2, [tok]) is wanted
        assert word_oracle(wheel_builtin(1), m2, []) is True
        assert minimize(build.dfa).n_states == 3

    def test_accessible_equivalent_to_full(self):
        rng = random.Random(83)
        for _ in range(15):
            k = rng.randint(1, 2)
            pred = Compiled(parse_expr("Root(L1)") if k == 1 else parse_expr("L1 ^ root[3](L2)"))
            dfas = tuple(random_dfa(rng, rng.randint(1, 3), ("a", "b")) for _ in range(k))
            assert equivalent(build_standard(pred, dfas, "accessible"),
                              build_standard(pred, dfas, "full"))

    def test_same_characteristic_tuple_same_finality(self):
        rng = random.Random(89)
        for _ in range(10):
            pred = Compiled(parse_expr("Root(L1)"))
            d = random_dfa(rng, rng.randint(1, 3), ("a", "b"))
            build = build_standard_detailed(pred, (d,), "full")
            chis = [char_tuple(t, (d.initial,), (d.finals,)) for t in build.states]
            finality = {}
            for sid, chi in enumerate(chis):
                is_final = sid in build.dfa.finals
                assert finality.setdefault(chi, is_final) == is_final

    def test_oracle_agreement_small(self):
        rng = random.Random(97)
        pred = Compiled(parse_expr("(root[2](L1) | L2) & !L1"))
        a = random_dfa(rng, 3, ("a", "b"))
        b = random_dfa(rng, 2, ("a", "b"))
        built = build_standard(pred, (a, b))
        for w in words_up_to(("a", "b"), 6):
            assert accepts(built, w) == word_oracle(pred, (a, b), w)


def full_arity_predicate(rng, k):
    """A random predicate that reads all k arguments."""
    pred = random_predicate(rng, k)
    while pred.arity != k:
        pred = random_predicate(rng, k)
    return pred


def reference_cases():
    """Seeded inputs of 1-3 coordinates (1-4 states, 1-3 shared letters) and three monsters.

    Sizes are redrawn while the full tuple space exceeds 3,000, so the
    full build stays small.
    """
    rng = random.Random(211)
    cases = []
    for _ in range(30):
        k = rng.randint(1, 3)
        letters = tuple("abc"[: rng.randint(1, 3)])
        sizes = [rng.randint(1, 4) for _ in range(k)]
        while tuple_space_size(sizes) > 3000:
            sizes = [rng.randint(1, 4) for _ in range(k)]
        dfas = tuple(random_dfa(rng, n, letters) for n in sizes)
        cases.append((full_arity_predicate(rng, k), dfas))
    for sizes in ((2,), (3,), (2, 2)):
        dfas = monster(MonsterSpec(sizes, "generators"))
        cases.append((full_arity_predicate(rng, len(sizes)), dfas))
    return cases


def bfs_order(d):
    """States of d breadth-first from the initial state, letters in order."""
    order, seen = [d.initial], {d.initial}
    for q in order:
        for row in d.trans:
            if row[q] not in seen:
                seen.add(row[q])
                order.append(row[q])
    return order


class TestInternedBuild:
    """The id-table build against the reference path through TransTuple values.

    Both modes run the one interned search, so full mode's rows are also
    checked against ``_std_action``, which composes and ranks every tuple.
    """

    @pytest.mark.parametrize("case", range(33))
    def test_full_rows_match_the_standard_action(self, case):
        pred, dfas = reference_cases()[case]
        full = build_standard_detailed(pred, dfas, "full")
        cfg = StateConfig.from_dfas(dfas)
        _, letters = letter_tuples(dfas)
        assert full.dfa.trans == tuple(_std_action(cfg, lt).images for lt in letters)

    @pytest.mark.parametrize("case", range(33))
    def test_accessible_is_accessible_part_of_full(self, case):
        pred, dfas = reference_cases()[case]
        acc = build_standard_detailed(pred, dfas, "accessible")
        full = build_standard_detailed(pred, dfas, "full")
        assert print_dfa(acc.dfa) == print_dfa(accessible_part(full.dfa))
        # full states are numbered by tuple rank; the accessible build meets them in BFS order
        ranks = bfs_order(full.dfa)
        assert [tuple_rank(t) for t in acc.states] == ranks
        assert acc.labels() == tuple(full.labels()[r] for r in ranks)
        assert [tuple_rank(t) for t in full.states] == list(range(full.dfa.n_states))

    @pytest.mark.parametrize("case", range(33))
    def test_states_are_folds_of_their_first_words(self, case):
        pred, dfas = reference_cases()[case]
        build = build_standard_detailed(pred, dfas, "accessible")
        _, letters = letter_tuples(dfas)
        words = {0: []}
        for q in bfs_order(build.dfa):
            for li, row in enumerate(build.dfa.trans):
                words.setdefault(row[q], words[q] + [li])
        assert len(words) == build.dfa.n_states
        for sid, word in words.items():
            f = tuple_identity(d.n_states for d in dfas)
            for li in word:
                f = tuple_compose(letters[li], f)
            assert build.states[sid] == f

    @pytest.mark.parametrize("pred, sizes, n_states, n_chis", [
        (wheel_builtin(1), (4,), 256, 15),
        (Compiled(parse_expr("Root(L1 & L2) | root[2](L3)")), (3, 3, 3), 19683, 512),
    ], ids=["wheel1-4", "kary-3x3x3"])
    def test_one_sequence_per_distinct_orbit_class(self, monkeypatch, pred, sizes, n_states, n_chis):
        calls = {"_bits": 0, "char_tuple": 0, "eval_pred": 0}

        def counted(name):
            inner = getattr(modifiers, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(modifiers, name, counted(name))
        dfas = monster(MonsterSpec(sizes, "generators"))
        build = build_standard_detailed(pred, dfas)
        monkeypatch.undo()
        initials, finals = [d.initial for d in dfas], [d.finals for d in dfas]
        classes = set()  # (coordinate, tail, membership bits of the orbit)
        for j, d in enumerate(dfas):
            for images in {t.components[j].images for t in build.states}:
                tail, orbit = rho_walk(images, d.initial)
                classes.add((j, tail, tuple(q in d.finals for q in orbit)))
        chi_of = [char_tuple(t, initials, finals) for t in build.states]
        verdict = {chi: eval_pred(pred, chi) for chi in chi_of}
        assert build.dfa.n_states == n_states
        assert len(verdict) == n_chis
        assert calls == {"_bits": len(classes), "char_tuple": 0, "eval_pred": n_chis}
        # the finals are the states whose characteristic tuple satisfies the predicate
        assert build.dfa.finals == {s for s, chi in enumerate(chi_of) if verdict[chi]}

    def test_build_without_labels_assembles_no_tuples(self):
        build = build_standard_detailed(wheel_builtin(1), monster(MonsterSpec((3,), "generators")))
        assert "states" not in vars(build)
        assert len(build.states) == 27
        assert "states" in vars(build)


def finals_state_by_state(pred, cfg, components, coords):
    """The states whose characteristic tuple, made by ``char_tuple`` for each state, satisfies pred."""
    finals = set()
    for s, ids in enumerate(zip(*coords)):
        t = TransTuple(tuple(TransFn(comps[c]) for comps, c in zip(components, ids)))
        if eval_pred(pred, char_tuple(t, cfg.initials, cfg.finals)):
            finals.add(s)
    return finals


class TestFinalityPass:
    """``_final_states`` against ``char_tuple`` and ``eval_pred`` state by state.

    The components are given by hand, so that the walks include the longest
    ones: an orbit of n points needs all n steps to revisit one.  Each state
    list holds every component twice, in a seeded order, so that states
    share components and ids are read out of order.
    """

    UNARY = [Compiled(parse_expr(e)) for e in ("L1", "Root(L1)", "root[2](L1)", "!L1 & root[3](L1)")] + [
        wheel_builtin(1)
    ]
    BINARY = [Compiled(parse_expr(e)) for e in ("L1 ^ L2", "Root(L1 & L2)", "root[2](L1) | !L2")] + [
        wheel_builtin(2)
    ]

    @staticmethod
    def check(preds, components, seed, final_sets=3):
        rng = random.Random(seed)
        sizes = tuple(len(comps[0]) for comps in components)
        per_state = list(itertools.product(*(range(len(comps)) for comps in components))) * 2
        rng.shuffle(per_state)
        coords = tuple(zip(*per_state))
        for initials in itertools.product(*(range(n) for n in sizes)):
            for _ in range(final_sets):
                finals = tuple(frozenset(q for q in range(n) if rng.random() < 0.5) for n in sizes)
                cfg = StateConfig(sizes, initials, finals)
                for pred in preds:
                    expected = finals_state_by_state(pred, cfg, components, coords)
                    assert _final_states(pred, cfg, components, coords) == expected, (pred, cfg)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_map(self, n):
        self.check(self.UNARY, (tuple(itertools.product(range(n), repeat=n)),), seed=n)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_longest_walks(self, n):
        # x -> x + 1 below n - 1, and n - 1 -> k: from 0 a tail of k states into a cycle of
        # n - k; k = 0 is the n-cycle and k = n - 1 the tail of n - 1 states into a fixed point
        comps = tuple(tuple(range(1, n)) + (k,) for k in range(n))
        self.check(self.UNARY, (comps,), seed=n)

    def test_two_coordinates(self):
        cycle = tuple(tuple(range(1, 5)) + (k,) for k in range(5))
        self.check(self.BINARY, (tuple(itertools.product(range(2), repeat=2)), cycle), seed=7, final_sets=2)


class TestUncheckedAutomata:
    """Builds, renumberings and quotients skip the ``Dfa`` check; each must pass it."""

    @pytest.mark.parametrize("mode", ["accessible", "full"])
    def test_builds(self, mode):
        cases = reference_cases()
        for sizes in ((4,), (2, 3)):
            cases.append((wheel_builtin(len(sizes)), monster(MonsterSpec(sizes, "generators"))))
        for pred, dfas in cases:
            build = build_standard(pred, dfas, mode)
            assert_passes_the_check(build)
            assert_passes_the_check(accessible_part(build))
            for algo in ("hopcroft", "moore"):
                assert_passes_the_check(minimize(build, algo))

    def test_renumberings_and_quotients_of_random_inputs(self):
        rng = random.Random(22)
        for _ in range(200):
            d = sparse_dfa(rng)
            part = accessible_part(d)
            assert (part is d) == (d.n_states == 1)  # past one state, the initial state is not 0
            assert_passes_the_check(part)
            for algo in ("hopcroft", "moore"):
                assert_passes_the_check(minimize(d, algo))


class TestCompositionCount:
    """The build calls ``tuple_compose`` once per distinct (letter component, component) pair."""

    @pytest.mark.parametrize("expr, sizes, mode, calls", [
        ("wheel 1", (4,), "accessible", 768),  # 3 letter components x 256 components
        ("Root(L1 & L2) | root[2](L3)", (3, 3, 3), "accessible", 324),  # 3 coordinates x 4 x 27
        ("wheel 1", (3,), "full", 81),  # 3 x 27
        ("wheel 2", (2, 3), "accessible", 120),  # 3 x 4 + 4 x 27
    ], ids=["mono-n4", "kary-3x3x3", "full-n3", "wheel2-2x3"])
    def test_one_call_per_successor_table_miss(self, monkeypatch, expr, sizes, mode, calls):
        count = 0
        inner = modifiers.tuple_compose

        def counted(f, g):
            nonlocal count
            count += 1
            return inner(f, g)

        monkeypatch.setattr(modifiers, "tuple_compose", counted)
        build_standard(Compiled(parse_expr(expr)), monster(MonsterSpec(sizes, "generators")), mode)
        assert count == calls


def plain_compose(f, g):
    """``f o g`` componentwise, through checked TransFn values only."""
    return TransTuple(tuple(
        TransFn(tuple(a.images[x] for x in b.images)) for a, b in zip(f.components, g.components)
    ))


def naive_accessible(letters, starts, cap):
    """Breadth-first search over TransTuple values: (tuples in order, rows), or None past ``cap`` tuples."""
    order = list(dict.fromkeys(starts))
    number = {t: s for s, t in enumerate(order)}
    rows = [[] for _ in letters]
    for t in order:
        for lt, row in zip(letters, rows):
            u = plain_compose(lt, t)
            if u not in number:
                if len(order) == cap:
                    return None
                number[u] = len(order)
                order.append(u)
            row.append(number[u])
    return order, rows


def monster_letters(sizes):
    return letter_tuples(monster(MonsterSpec(sizes, "generators")))[1]


@st.composite
def engine_inputs(draw):
    """Sizes of 1-3 coordinates (1-4 each), 1-4 letters of mixed kinds, and whether to start full."""
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))

    def fn(n):
        return TransFn(tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))

    letters = []
    kinds = ("random", "generator", "identity", "repeat")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "identity":
            letters.append(tuple_identity(sizes))
        elif kind == "generator":
            # a monster letter: one generator of the full monoid on one coordinate, identity elsewhere
            j = draw(st.integers(0, len(sizes) - 1))
            g = draw(st.sampled_from(tn_generators(sizes[j])))
            letters.append(TransTuple(tuple(g if i == j else identity(n) for i, n in enumerate(sizes))))
        elif kind == "repeat" and letters:
            letters.append(letters[draw(st.integers(0, len(letters) - 1))])
        else:
            letters.append(TransTuple(tuple(fn(n) for n in sizes)))
    full = draw(st.booleans()) and tuple_space_size(sizes) <= 300
    return sizes, letters, full


class TestEngineAgainstNaiveSearch:
    """``accessible_tuples`` against a breadth-first search written over TransTuple values."""

    CAP = 300

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(engine_inputs())
    # monster letters: 256 components on one coordinate, past the cap, and a full start of mixed sizes
    @example(((4,), monster_letters((4,)), False))
    @example(((2, 4), monster_letters((2, 4)), False))
    @example(((1, 4), monster_letters((1, 4)) * 2, True))
    # a block interns components of successors past the cap: over 301 on the 9-point coordinate
    @example(((2, 9), monster_letters((2, 9)), False))
    # a block of 7 pairs (1 tuple at the least) puts block boundaries everywhere, the refusal at
    # the cap mid-block included
    @pytest.mark.parametrize("block, least", [(modifiers.BLOCK_PAIRS, modifiers.MIN_BLOCK_TUPLES), (7, 1)],
                             ids=["real-block", "block-7"])
    def test_same_components_coords_and_rows(self, block, least, case):
        sizes, letters, full = case
        starts = list(all_tuples(sizes)) if full else [tuple_identity(sizes)]
        with mock.patch.object(modifiers, "BLOCK_PAIRS", block), \
                mock.patch.object(modifiers, "MIN_BLOCK_TUPLES", least):
            self.check(sizes, letters, starts, self.CAP)

    def test_many_blocks(self):
        # wheel-2 generator letters on 3x4: 6,912 tuples x 6 letters, several blocks of BLOCK_PAIRS
        letters = monster_letters((3, 4))
        assert 6912 * len(letters) > 4 * modifiers.BLOCK_PAIRS
        self.check((3, 4), letters, [tuple_identity((3, 4))], 10**4)

    @staticmethod
    def check(sizes, letters, starts, cap):
        want = naive_accessible(letters, starts, cap)
        if want is None:
            with pytest.raises(CapExceeded, match=f"^more than {cap} reachable tuples$"):
                modifiers.accessible_tuples(letters, starts, cap)
            return
        order, rows = want
        components, coords, got_rows = modifiers.accessible_tuples(letters, starts, cap)
        # components are interned in order of first appearance over the numbered tuples
        want_components = tuple(
            tuple(dict.fromkeys(t.components[j].images for t in order)) for j in range(len(sizes))
        )
        assert components == want_components
        assert coords == tuple(
            tuple(comps.index(t.components[j].images) for t in order) for j, comps in enumerate(want_components)
        )
        assert got_rows == tuple(map(tuple, rows))
        if len(sizes) == 1:  # the engine numbers one-coordinate tuples by component id
            assert coords[0] == tuple(range(len(coords[0])))


class TestCapsAndErrors:
    def test_full_mode_cap(self):
        with pytest.raises(CapExceeded):
            build_standard(wheel_builtin(1), (FIG1,), "full", max_states=3)

    def test_accessible_mode_cap(self):
        m3 = monster(MonsterSpec((3,), "generators"))
        with pytest.raises(CapExceeded):
            build_standard(wheel_builtin(1), m3, max_states=10)

    @pytest.mark.parametrize("build, size", [
        (lambda cap: build_standard(wheel_builtin(1), monster(MonsterSpec((3,), "full")), "accessible",
                                    max_states=cap).n_states, 27),
        (lambda cap: build_standard(wheel_builtin(1), monster(MonsterSpec((3,), "full")), "full",
                                    max_states=cap).n_states, 27),
        (lambda cap: sc_on_witness(wheel_builtin(1), (3,), "full", max_states=cap).sc, 25),
    ], ids=["accessible", "full", "sc"])
    def test_transition_cap(self, build, size):
        # 27 letters x 27 tuples = 729 transitions: within 10 x 100, over 10 x 50, which
        # allows 500 // 27 = 18 tuples; every path names the 19th
        assert build(100) == size
        with pytest.raises(CapExceeded, match=r"^19 tuples x 27 letters exceed the cap of 500 transitions$"):
            build(50)

    @pytest.mark.parametrize("cap", [100, 1000])
    def test_state_cap_before_a_later_image_cap(self, cap):
        # 9 images per component: the tuple past the cap is numbered before 10 x cap images are
        # stored, though the block that numbers it holds later pairs that would pass that
        with pytest.raises(CapExceeded, match=f"^more than {cap} reachable tuples$"):
            modifiers.accessible_tuples(monster_letters((9,)), [tuple_identity((9,))], cap)

    def test_image_cap_refuses_the_start_tuple(self):
        # the identity of a 300-state cycle stores 300 images, past 10 x 10, before any tuple is numbered
        cycle = Dfa(("a",), 300, 0, {299}, (tuple((q + 1) % 300 for q in range(300)),))
        with pytest.raises(CapExceeded, match=r"^more than 100 stored images$"):
            build_standard(wheel_builtin(1), (cycle,), max_states=10)

    def test_transition_cap_counts_letters_before_any_state(self):
        m3 = monster(MonsterSpec((3,), "full"))
        with pytest.raises(CapExceeded, match="1 tuples x 27 letters"):
            build_standard(wheel_builtin(1), m3, max_states=2)

    def test_apply_cap(self):
        with pytest.raises(CapExceeded):
            apply_modifier(sqrt_mod(), (FIG1,), max_states=3)

    @pytest.mark.parametrize("n", [3000, 30000])
    @pytest.mark.parametrize("factory", [sqrt_mod, lambda: standardize(compl_mod())], ids=["sqrt", "std-compl"])
    def test_apply_cap_prints_no_count(self, factory, n):
        # n**n states: far past the cap and past the interpreter's int-to-str digit limit
        cycle = Dfa(("a",), n, 0, {n - 1}, (tuple((q + 1) % n for q in range(n)),))
        with pytest.raises(CapExceeded) as exc:
            apply_modifier(factory(), (cycle,), max_states=1000)
        assert str(exc.value) == "output would have more than 1000 states"

    def test_arity_and_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            build_standard(wheel_builtin(2), (FIG1,))
        with pytest.raises(ValueError, match=r"^arity mismatch: 1 automata, modifier needs 2$"):
            apply_modifier(xor_mod(), (FIG1,))
        other = Dfa(("a",), 1, 0, set(), ((0,),))
        with pytest.raises(ValueError, match="alphabet mismatch"):
            build_standard(wheel_builtin(2), (FIG1, other))
        with pytest.raises(ValueError, match="unknown build mode"):
            build_standard(wheel_builtin(1), (FIG1,), "lazy")
