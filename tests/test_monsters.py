"""Tests for monster witnesses and their reachability."""

from math import prod

import pytest

from friendlyops import (
    MonsterSpec,
    TransFn,
    build_standard,
    minimize,
    monster,
    reachable_tuples,
    wheel_builtin,
)
from friendlyops.errors import CapExceeded


class TestConstruction:
    def test_two_state_full(self):
        (d,) = monster(MonsterSpec((2,), "full"))
        assert d.alphabet == ("[0,0]", "[0,1]", "[1,0]", "[1,1]")
        assert (d.n_states, d.initial, set(d.finals)) == (2, 0, {1})
        # each letter acts by the map its token spells
        assert d.row("[1,1]") == (1, 1)
        assert d.row("[0,1]") == (0, 1)
        assert d.row("[1,0]") == (1, 0)
        assert d.row("[0,0]") == (0, 0)

    def test_single_state(self):
        (d,) = monster(MonsterSpec((1,), "full"))
        assert d.alphabet == ("[0]",)
        assert d.finals == frozenset({0}) and d.initial == 0

    def test_pair_generators(self):
        pair = monster(MonsterSpec((2, 2), "generators"))
        assert len(pair) == 2
        assert pair[0].alphabet == pair[1].alphabet
        assert len(pair[0].alphabet) == 4  # 2 generators x 2 coordinates
        assert all(d.n_states == 2 for d in pair)

    def test_generator_letters_act_on_their_coordinate(self):
        pair = monster(MonsterSpec((2, 3), "generators"))
        assert pair[0].row("[1,0][0,1,2]") == (1, 0)
        assert pair[1].row("[1,0][0,1,2]") == (0, 1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            MonsterSpec((0,), "full")
        with pytest.raises(ValueError):
            MonsterSpec((2,), "tiny")
        with pytest.raises(ValueError, match="need at least one input automaton"):
            reachable_tuples(())

    def test_full_letter_cap(self):
        with pytest.raises(CapExceeded):
            monster(MonsterSpec((4, 4), "full"), max_letters=1000)


class TestReachability:
    def test_examples(self):
        assert reachable_tuples(monster(MonsterSpec((2,), "full"))) == 4
        assert reachable_tuples(monster(MonsterSpec((3,), "generators"))) == 27
        assert reachable_tuples(monster(MonsterSpec((2, 2), "generators"))) == 16

    @pytest.mark.parametrize(
        "sizes", [(1,), (2,), (3,), (4,), (1, 2), (2, 3), (2, 2, 2)]
    )
    def test_generators_reach_the_whole_product(self, sizes):
        expected = prod(n**n for n in sizes)
        assert reachable_tuples(monster(MonsterSpec(sizes, "generators"))) == expected

    def test_non_monster_input_counts_its_transition_monoid(self):
        from conftest import FIG1

        # FIG1's letter maps generate {swap, const1, id, const0}
        assert reachable_tuples((FIG1,)) == 4


class TestFullVersusGenerators:
    @pytest.mark.parametrize("sizes", [(2,), (3,)])
    def test_wheel_minimal_sizes_agree(self, sizes):
        w = wheel_builtin(1)
        full = minimize(build_standard(w, monster(MonsterSpec(sizes, "full"))))
        gens = minimize(build_standard(w, monster(MonsterSpec(sizes, "generators"))))
        assert full.n_states == gens.n_states

    def test_wheel2_minimal_sizes_agree(self):
        w = wheel_builtin(2)
        full = minimize(build_standard(w, monster(MonsterSpec((2, 2), "full"))))
        gens = minimize(build_standard(w, monster(MonsterSpec((2, 2), "generators"))))
        assert full.n_states == gens.n_states == 16
