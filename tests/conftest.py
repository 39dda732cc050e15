"""Shared fixtures: golden automata and brute-force oracles.

The golden automata are the running two-state example (a,b swap/sink
shape) and its four-state square-root companion, hand-coded in canonical
breadth-first numbering.  The brute-force helpers decide equivalence and
minimal size by exhaustive word enumeration, independently of the
library's minimization path.
"""

from __future__ import annotations

import random

from friendlyops import Dfa, accessible_part, accepts, minimize, print_dfa, words_up_to

# Two states, initial 0, final 1; a swaps, b sends everything to 1.
FIG1 = Dfa(("a", "b"), 2, 0, frozenset({1}), ((1, 0), (1, 1)))

FIG1_DOC = """dfa v1
alphabet a b
states 2
initial 0
final 1
trans a: 1 0
trans b: 1 1
"""

# Square-root companion of FIG1.  States encode self-maps of {0,1} in
# BFS order from the identity: 0=[0,1], 1=[1,0], 2=[1,1], 3=[0,0].
FIG2 = Dfa(("a", "b"), 4, 0, frozenset({2}), ((1, 0, 3, 2), (2, 2, 2, 2)))

# FIG1 with the final set flipped (initial state accepting).
FIG3 = Dfa(("a", "b"), 2, 0, frozenset({0}), ((1, 0), (1, 1)))

# Standardized complement of FIG3: same shape as FIG2, finals where the
# state map sends 0 out of FIG3's final set, i.e. maps [1,0] and [1,1].
FIG5 = Dfa(("a", "b"), 4, 0, frozenset({1, 2}), ((1, 0, 3, 2), (2, 2, 2, 2)))


def canon(d: Dfa) -> Dfa:
    """Canonical BFS renumbering (the isomorphism-invariant form)."""
    return accessible_part(d)


def run_word(d: Dfa, q: int, word) -> int:
    index = {tok: li for li, tok in enumerate(d.alphabet)}
    for tok in word:
        q = d.trans[index[tok]][q]
    return q


def brute_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Word-by-word language comparison, independent of minimize().

    Sound because inequivalent automata with m and n states differ on
    some word of length at most m + n - 2.
    """
    assert set(d1.alphabet) == set(d2.alphabet)
    letters = sorted(d1.alphabet)
    bound = d1.n_states + d2.n_states
    return all(accepts(d1, w) == accepts(d2, w) for w in words_up_to(letters, bound))


def brute_min_states(d: Dfa) -> int:
    """Minimal-DFA size by exhaustive signature comparison.

    Reachable states are grouped by their acceptance signature over all
    words up to length n; states of an n-state DFA that are
    distinguishable at all are distinguishable within that bound.
    """
    reach = set()
    frontier = [d.initial]
    while frontier:
        q = frontier.pop()
        if q in reach:
            continue
        reach.add(q)
        frontier.extend(row[q] for row in d.trans)
    words = list(words_up_to(d.alphabet, d.n_states))
    sigs = {tuple(run_word(d, q, w) in d.finals for w in words) for q in reach}
    return len(sigs)


def assert_minimize_agree(d: Dfa) -> Dfa:
    """Both minimization engines must emit byte-identical documents."""
    h = minimize(d, "hopcroft")
    m = minimize(d, "moore")
    assert print_dfa(h) == print_dfa(m)
    return h


def sparse_dfa(rng: random.Random, max_states: int = 40, max_letters: int = 3) -> Dfa:
    """A random DFA of 1 to ``max_states`` states and 0 to ``max_letters`` letters.

    With two states or more, the initial state is not 0, and states past
    the first ``reach`` are no successor of any state, so they are unreachable.
    """
    n = rng.randint(1, max_states)
    reach = rng.randint(max(1, n // 2), n)
    letters = tuple("abc"[: rng.randint(0, max_letters)])
    rows = tuple(tuple(rng.randrange(reach) for _ in range(n)) for _ in letters)
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    initial = rng.randrange(1, reach) if reach > 1 else (1 if n > 1 else 0)
    return Dfa(letters, n, initial, finals, rows)


def per_state_accessible_part(d: Dfa) -> Dfa:
    """``accessible_part`` by a search of one state at a time: the reference for its level search."""
    order, index = [d.initial], {d.initial: 0}
    for q in order:
        for row in d.trans:
            if row[q] not in index:
                index[row[q]] = len(order)
                order.append(row[q])
    rows = tuple(tuple(index[row[q]] for q in order) for row in d.trans)
    return Dfa(d.alphabet, len(order), 0, frozenset(index[q] for q in d.finals if q in index), rows)


def assert_passes_the_check(d: Dfa) -> None:
    """``d`` is what the checked ``Dfa`` makes of its own fields, field types included."""
    assert type(d) is Dfa
    assert type(d.alphabet) is tuple and all(type(a) is str for a in d.alphabet)
    assert type(d.n_states) is int and type(d.initial) is int
    assert type(d.finals) is frozenset and all(type(q) is int for q in d.finals)
    assert type(d.trans) is tuple
    assert all(type(row) is tuple and all(type(t) is int for t in row) for row in d.trans)
    assert Dfa(d.alphabet, d.n_states, d.initial, d.finals, d.trans) == d
