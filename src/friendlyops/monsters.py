"""Monster witness automata.

The k coordinates of a monster share one alphabet whose letters are (or
generate) all tuples of self-maps of the coordinate state sets; the
letter named by a tuple acts on coordinate j as the tuple's j-th
component.  Coordinate j has states 0..n_j-1, initial state 0 and the
single final state n_j-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .automata import Dfa
from .errors import CapExceeded
from .modifiers import DEFAULT_MAX_STATES, accessible_tuples
from .transforms import (
    TransTuple,
    all_tuples,
    fn_token,
    identity,
    letter_tuples,
    tn_generators,
    tuple_identity,
    tuple_space_text,
    tuple_space_within,
)


@dataclass(frozen=True)
class MonsterSpec:
    """Sizes of the coordinates plus the alphabet flavor.

    "full" uses one letter per function tuple; "generators" uses, per
    coordinate, a fixed generating set of its transformation monoid
    (identity elsewhere), at most 3k letters after deduplication.
    """

    sizes: tuple[int, ...]
    alphabet_kind: str = "generators"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be positive")
        if self.alphabet_kind not in ("full", "generators"):
            raise ValueError(f"unknown alphabet kind {self.alphabet_kind!r}")


def monster(spec: MonsterSpec, *, max_letters: int = DEFAULT_MAX_STATES) -> tuple[Dfa, ...]:
    """Build the coordinate DFAs of a monster on their common alphabet."""
    sizes = spec.sizes
    if spec.alphabet_kind == "full":
        if tuple_space_within(sizes, max_letters) is None:
            raise CapExceeded(f"full alphabet has {tuple_space_text(sizes)} letters, cap is {max_letters}")
        letter_tuples = list(all_tuples(sizes))
    else:
        letter_tuples = []
        seen: set[TransTuple] = set()
        for j, n in enumerate(sizes):
            for g in tn_generators(n):
                t = TransTuple(tuple(g if jj == j else identity(nn) for jj, nn in enumerate(sizes)))
                if t not in seen:
                    seen.add(t)
                    letter_tuples.append(t)
    alphabet = tuple(fn_token(t) for t in letter_tuples)
    dfas = []
    for j, n in enumerate(sizes):
        rows = tuple(t.components[j].images for t in letter_tuples)
        dfas.append(Dfa(alphabet, n, 0, frozenset({n - 1}), rows))
    return tuple(dfas)


def reachable_tuples(dfas: Sequence[Dfa]) -> int:
    """Size of the joint transition monoid of automata on one alphabet.

    Counts the tuples of transition functions reachable from the identity
    tuple by composing letter actions on the left; for monsters of either
    alphabet kind this is the full product of the coordinate monoids.
    The count stops at the default caps of the standard build: a monoid
    of more than ``DEFAULT_MAX_STATES`` tuples, of more tuples times
    letters than ``TRANSITIONS_PER_STATE * DEFAULT_MAX_STATES``, or whose
    distinct components hold more images than that, raises CapExceeded.
    """
    _, letters = letter_tuples(dfas)
    start = tuple_identity(d.n_states for d in dfas)
    _, coords, _ = accessible_tuples(letters, [start], DEFAULT_MAX_STATES)
    return len(coords[0])
