"""DFA constructions given by four maps over state configurations.

A ``Modifier`` packages, for any tuple of input state configurations, the
output state count, initial state, finality predicate, and the per-letter
transition action.  Output states are integers; where they encode richer
objects (function tuples, pairs) the encoding is fixed by the ranking
order of :mod:`friendlyops.transforms`, and ``label`` renders it.

``build_standard`` is the central construction: the output states are
tuples of transition functions, the initial state is the identity tuple,
a letter acts by composing its own function tuple on the left, and a
state is final exactly when its characteristic tuple satisfies the given
predicate.  ``standardize`` rebuilds any composition-compatible modifier
in that shape without changing the recognized language.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .automata import Dfa
from .errors import CapExceeded
from .friendly import EPredicate, eval_pred
from .transforms import (
    TransFn,
    TransTuple,
    _fn,
    _tuple,
    all_tuples,
    compose,
    fn_token,
    fn_unrank,
    letter_tuples,
    rho_walk,
    tuple_compose,
    tuple_identity,
    tuple_rank,
    tuple_space_size,
    tuple_space_text,
    tuple_space_within,
    tuple_unrank,
)
from .upseq import CharTuple, char_tuple

DEFAULT_MAX_STATES = 10**6
# A build may perform this many transitions (states times letters) per state of its cap.
TRANSITIONS_PER_STATE = 10

# Per coordinate, the images of each distinct component, indexed by component id.
Components = tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class StateConfig:
    """The state configurations (sizes, initial states, final sets) of inputs."""

    sizes: tuple[int, ...]
    initials: tuple[int, ...]
    finals: tuple[frozenset[int], ...]

    @classmethod
    def from_dfas(cls, dfas: Sequence[Dfa]) -> "StateConfig":
        return cls(
            tuple(d.n_states for d in dfas),
            tuple(d.initial for d in dfas),
            tuple(frozenset(d.finals) for d in dfas),
        )


@dataclass(frozen=True)
class Modifier:
    """A k-ary DFA construction.

    ``action`` realizes the transition map: given the transition functions
    of one letter on the k inputs, it returns the induced function on the
    output states [0, n_states).  For composition-compatible ("friendly")
    modifiers, action turns composition of letter tuples into composition
    of output functions.  ``n_states`` and ``initial`` read only the sizes
    and initial states of a configuration, never its final sets.
    """

    arity: int
    n_states: Callable[[StateConfig], int]
    initial: Callable[[StateConfig], int]
    is_final: Callable[[StateConfig, int], bool]
    action: Callable[[StateConfig, TransTuple], TransFn]
    label: Callable[[StateConfig, int], str] | None = None


def apply_modifier(m: Modifier, dfas: Sequence[Dfa], *, max_states: int = DEFAULT_MAX_STATES) -> Dfa:
    """Materialize the modifier's output DFA on concrete inputs.

    An output of more than ``max_states`` states raises CapExceeded.  The
    refusal names the cap, not the output's count, which for the standard
    shape is a product of powers n**n too long to print.
    """
    if len(dfas) != m.arity:
        raise ValueError(f"arity mismatch: {len(dfas)} automata, modifier needs {m.arity}")
    alphabet, letters = letter_tuples(dfas)
    cfg = StateConfig.from_dfas(dfas)
    n = m.n_states(cfg)
    if n > max_states:
        raise CapExceeded(f"output would have more than {max_states} states")
    rows = tuple(m.action(cfg, lt).images for lt in letters)
    finals = frozenset(s for s in range(n) if m.is_final(cfg, s))
    return Dfa(alphabet, n, m.initial(cfg), finals, rows)


def sqrt_mod() -> Modifier:
    """Square-root construction: states are all self-maps of the input.

    A letter with action d sends the state map p to d o p; the map p is
    final when p(p(i)) is final in the input.  Apart from that finality
    test this is the standard shape of ``build_standard`` in "full" mode.
    """

    def is_final(cfg: StateConfig, s: int) -> bool:
        (n,) = cfg.sizes
        phi = fn_unrank(n, s)
        return phi.images[phi.images[cfg.initials[0]]] in cfg.finals[0]

    return Modifier(1, _std_n_states, _std_initial, is_final, _std_action, _std_label)


def xor_mod() -> Modifier:
    """Product construction for symmetric difference."""

    def n_states(cfg: StateConfig) -> int:
        n1, n2 = cfg.sizes
        return n1 * n2

    def initial(cfg: StateConfig) -> int:
        i1, i2 = cfg.initials
        return i1 * cfg.sizes[1] + i2

    def is_final(cfg: StateConfig, s: int) -> bool:
        q1, q2 = divmod(s, cfg.sizes[1])
        return (q1 in cfg.finals[0]) != (q2 in cfg.finals[1])

    def action(cfg: StateConfig, dt: TransTuple) -> TransFn:
        n1, n2 = cfg.sizes
        d1, d2 = dt.components
        return TransFn(
            tuple(d1.images[q1] * n2 + d2.images[q2] for q1 in range(n1) for q2 in range(n2))
        )

    return Modifier(2, n_states, initial, is_final, action)


def compl_mod() -> Modifier:
    """Complement: same automaton with the final set flipped."""

    def n_states(cfg: StateConfig) -> int:
        return cfg.sizes[0]

    def initial(cfg: StateConfig) -> int:
        return cfg.initials[0]

    def is_final(cfg: StateConfig, s: int) -> bool:
        return s not in cfg.finals[0]

    def action(cfg: StateConfig, dt: TransTuple) -> TransFn:
        return dt.components[0]

    return Modifier(1, n_states, initial, is_final, action)


def compose_mod(m1: Modifier, p: int, m2: Modifier) -> Modifier:
    """Feed the output of m2 as the p-th input of m1.

    The result takes m1.arity + m2.arity - 1 inputs: the block of
    m2.arity inputs starting at position p is consumed by m2; its output
    configuration and per-letter actions stand in for input p of m1.  That
    split of a configuration is computed once per configuration and
    memoized with ``functools.lru_cache``.  The output's state count and
    initial state need no finality test of m2: the split they read leaves
    m2's final set empty, so a cap can refuse the output before m2 tests
    any of its states.
    """
    if not 1 <= p <= m1.arity:
        raise ValueError(f"position {p} out of range for arity {m1.arity}")
    k = m2.arity

    @lru_cache(maxsize=None)
    def split(cfg: StateConfig, finality: bool) -> tuple[StateConfig, StateConfig]:
        inner = StateConfig(
            cfg.sizes[p - 1 : p - 1 + k],
            cfg.initials[p - 1 : p - 1 + k],
            cfg.finals[p - 1 : p - 1 + k],
        )
        nq = m2.n_states(inner)
        fset = frozenset(s for s in range(nq) if m2.is_final(inner, s)) if finality else frozenset()
        outer = StateConfig(
            cfg.sizes[: p - 1] + (nq,) + cfg.sizes[p - 1 + k :],
            cfg.initials[: p - 1] + (m2.initial(inner),) + cfg.initials[p - 1 + k :],
            cfg.finals[: p - 1] + (fset,) + cfg.finals[p - 1 + k :],
        )
        return inner, outer

    def n_states(cfg: StateConfig) -> int:
        return m1.n_states(split(cfg, False)[1])

    def initial(cfg: StateConfig) -> int:
        return m1.initial(split(cfg, False)[1])

    def is_final(cfg: StateConfig, s: int) -> bool:
        return m1.is_final(split(cfg, True)[1], s)

    def action(cfg: StateConfig, dt: TransTuple) -> TransFn:
        inner, outer = split(cfg, True)
        mid = m2.action(inner, TransTuple(dt.components[p - 1 : p - 1 + k]))
        return m1.action(outer, TransTuple(dt.components[: p - 1] + (mid,) + dt.components[p - 1 + k :]))

    return Modifier(m1.arity + k - 1, n_states, initial, is_final, action)


# The standard shape: states are function tuples numbered by tuple_rank, the
# identity tuple is initial and a letter composes its own tuple on the left.
def _std_n_states(cfg: StateConfig) -> int:
    return tuple_space_size(cfg.sizes)


def _std_initial(cfg: StateConfig) -> int:
    return tuple_rank(tuple_identity(cfg.sizes))


def _std_action(cfg: StateConfig, dt: TransTuple) -> TransFn:
    return TransFn(tuple(tuple_rank(tuple_compose(dt, psi)) for psi in all_tuples(cfg.sizes)))


def _std_label(cfg: StateConfig, s: int) -> str:
    return fn_token(tuple_unrank(cfg.sizes, s))


def _random_tuple(rng: random.Random, sizes: tuple[int, ...]) -> TransTuple:
    return TransTuple(tuple(TransFn(tuple(rng.randrange(n) for _ in range(n))) for n in sizes))


def standardize(m: Modifier) -> Modifier:
    """Rebuild a modifier in standard shape; the language is preserved.

    The result's states are full function tuples, its initial state the
    identity tuple, and a letter composes on the left; a tuple is final
    when the original modifier, letting the tuple act as if it were a
    letter, would move its initial state into its final set.

    Composition-compatibility of the original's action is a precondition;
    it is checked on 16 random pairs drawn from ``random.Random(0)``, once
    per configuration (a check that passes is memoized with
    ``functools.lru_cache``), and a violation raises ValueError with the
    counterexample.
    """

    @lru_cache(maxsize=None)
    def ensure(cfg: StateConfig) -> None:
        rng = random.Random(0)
        for _ in range(16):
            phi = _random_tuple(rng, cfg.sizes)
            psi = _random_tuple(rng, cfg.sizes)
            left = m.action(cfg, tuple_compose(phi, psi))
            right = compose(m.action(cfg, phi), m.action(cfg, psi))
            if left != right:
                raise ValueError(
                    "modifier is not friendly: action splits differently on "
                    f"{fn_token(phi)} o {fn_token(psi)}"
                )

    def initial(cfg: StateConfig) -> int:
        ensure(cfg)
        return _std_initial(cfg)

    def is_final(cfg: StateConfig, s: int) -> bool:
        ensure(cfg)
        phi = tuple_unrank(cfg.sizes, s)
        moved = m.action(cfg, phi).images[m.initial(cfg)]
        return m.is_final(cfg, moved)

    def action(cfg: StateConfig, dt: TransTuple) -> TransFn:
        ensure(cfg)
        return _std_action(cfg, dt)

    return Modifier(m.arity, _std_n_states, initial, is_final, action, _std_label)


def check_stored_images(stored: int, max_states: int) -> None:
    """Refuse more than ``TRANSITIONS_PER_STATE * max_states`` stored images.

    A build counts the images of the components it interns; a monster
    counts the images its letters would hold, before it makes them.
    """
    work = TRANSITIONS_PER_STATE * max_states
    if stored > work:
        raise CapExceeded(f"more than {work} stored images")


def _work_cap(n_tuples: int, n_letters: int, max_states: int) -> CapExceeded:
    work = TRANSITIONS_PER_STATE * max_states
    return CapExceeded(f"{n_tuples} tuples x {n_letters} letters exceed the cap of {work} transitions")


def check_transitions(reached: int, n_letters: int, max_states: int) -> None:
    """Refuse, as the build would, a build known to reach ``reached`` tuples.

    A build over ``n_letters`` letters numbers at most
    ``TRANSITIONS_PER_STATE * max_states // n_letters`` tuples and refuses
    the next one, naming its count.
    """
    work_limit = TRANSITIONS_PER_STATE * max_states // max(n_letters, 1)
    if reached > work_limit:
        raise _work_cap(work_limit + 1, n_letters, max_states)


def accessible_tuples(
    letters: Sequence[TransTuple], starts: Iterable[TransTuple], max_states: int
) -> tuple[Components, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The tuples reachable from ``starts`` by composing letters on the left.

    Returns ``(components, coords, rows)``.  A tuple is kept as the ids of
    its components: coordinate j interns each distinct component once, by
    its images ``components[j][id]``, and ``coords[j][s]`` is the id of
    tuple s's j-th component.  The distinct start tuples (at least one, all
    of one shape) are numbered first, in the order given, with their
    components interned in order of first appearance; the search then
    numbers the tuples it discovers breadth-first, letters scanned in the
    given order.  ``rows[li][s]`` is the number of ``letters[li] o`` tuple
    s.  A letter acts on coordinate j through a table of successor ids
    that ``tuple_compose`` fills the first time a letter component meets a
    component, so each distinct pair is composed once.  The tables of a
    coordinate grow in bulk, padded with -1 whenever a new component id
    passes their length, and the search builds one operand per state and
    coordinate, on the state's first miss there.

    More than ``max_states`` tuples, more than ``TRANSITIONS_PER_STATE *
    max_states`` transitions (tuples times letters), or more than that
    many images stored across the interned components raise CapExceeded.
    """
    starts = iter(starts)
    first = next(starts)
    k = first.k
    components: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    ids: list[dict[tuple[int, ...], int]] = [{} for _ in range(k)]
    # Per distinct letter component of coordinate j: (j, successor row, the
    # component as a one-component operand).  row[c] is the id of the letter
    # component o component c, -1 until composed.
    bound_of: list[dict[tuple[int, ...], tuple[int, list[int], TransTuple]]] = [{} for _ in range(k)]
    # succ[j]: the successor rows of coordinate j, all of one length, at least len(components[j])
    succ: list[list[list[int]]] = [[] for _ in range(k)]
    grow: list[list[int]] = [[] for _ in letters]
    # Per letter: its row of grow and its triple on each coordinate.
    binds = []
    for lt, row in zip(letters, grow):
        if lt.k != k:
            raise ValueError(f"shape mismatch: {lt.sizes} vs {first.sizes}")
        bound = []
        for j, f in enumerate(lt.components):
            b = bound_of[j].get(f.images)
            if b is None:
                b = bound_of[j][f.images] = (j, [], _tuple((f,)))
                succ[j].append(b[1])
            bound.append(b)
        binds.append((row, tuple(bound)))

    work = TRANSITIONS_PER_STATE * max_states
    stored = 0

    def intern(j: int, images: tuple[int, ...]) -> int:
        nonlocal stored
        cid = ids[j].get(images)
        if cid is None:
            stored += len(images)
            if stored > work:
                raise CapExceeded(f"more than {work} stored images")
            cid = ids[j][images] = len(components[j])
            components[j].append(images)
            rows = succ[j]
            if rows and cid >= len(rows[0]):
                pad = [-1] * (cid // 8 + 64)
                for row in rows:
                    row.extend(pad)
        return cid

    check_transitions(1, len(letters), max_states)
    # Numbering refuses at the first of the state cap and the transition
    # cap, with the state cap's message when both apply.
    limit = min(max_states, work // max(len(letters), 1))
    # A tuple's key is its component ids in mixed radix.  Every id belongs to
    # a numbered tuple or to the one whose numbering passes the cap, so no id
    # exceeds max_states.
    radix = max_states + 1
    index: dict[int, int] = {}
    coords: list[list[int]] = [[] for _ in range(k)]

    def number(key: int, cids: Sequence[int]) -> int:
        sid = len(index)
        if sid >= limit:
            if sid >= max_states:
                raise CapExceeded(f"more than {max_states} reachable tuples")
            raise _work_cap(sid + 1, len(letters), max_states)
        index[key] = sid
        for coord, c in zip(coords, cids):
            coord.append(c)
        return sid

    for t in itertools.chain((first,), starts):
        cids = [intern(j, f.images) for j, f in enumerate(t.components)]
        key = 0
        for c in cids:
            key = key * radix + c
        if key not in index:
            number(key, cids)
    i = 0
    while i < len(index):
        here = [ids_j[i] for ids_j in coords]
        operands: list[TransTuple | None] = [None] * k
        i += 1
        for row, bound in binds:
            key = 0
            cids = []
            for j, srow, lop in bound:
                h = here[j]
                c = srow[h]
                if c < 0:
                    g = operands[j]
                    if g is None:
                        g = operands[j] = _tuple((_fn(components[j][h]),))
                    srow[h] = c = intern(j, tuple_compose(lop, g).components[0].images)
                key = key * radix + c
                cids.append(c)
            sid = index.get(key)
            if sid is None:
                sid = number(key, cids)
            row.append(sid)
    return tuple(map(tuple, components)), tuple(map(tuple, coords)), tuple(map(tuple, grow))


def _final_states(
    pred: EPredicate,
    cfg: StateConfig,
    components: Components,
    coords: tuple[tuple[int, ...], ...],
) -> frozenset[int]:
    """The states whose characteristic tuple satisfies ``pred``.

    A state's characteristic tuple depends only on the orbit of each
    coordinate's initial state under the state's component there, so the
    orbit is read once per component id.  ``char_tuple`` runs once per
    distinct combination of orbits, ``eval_pred`` once per distinct
    characteristic tuple.
    """
    orbits = []
    for comps, i, fs in zip(components, cfg.initials, cfg.finals):
        seen: dict[tuple[int, tuple[bool, ...]], int] = {}
        per_id = []
        for images in comps:
            tail, orbit = rho_walk(images, i)
            per_id.append(seen.setdefault((tail, tuple(q in fs for q in orbit)), len(seen)))
        orbits.append(per_id)
    by_orbits: dict[tuple[int, ...], bool] = {}
    by_chi: dict[CharTuple, bool] = {}
    finals = []
    keys = zip(*(map(o.__getitem__, ids_j) for o, ids_j in zip(orbits, coords)))
    for sid, key in enumerate(keys):
        hit = by_orbits.get(key)
        if hit is None:
            state = _tuple(tuple(_fn(comps[ids_j[sid]]) for comps, ids_j in zip(components, coords)))
            chi = char_tuple(state, cfg.initials, cfg.finals)
            hit = by_chi.get(chi)
            if hit is None:
                hit = by_chi[chi] = eval_pred(pred, chi)
            by_orbits[key] = hit
        if hit:
            finals.append(sid)
    return frozenset(finals)


@dataclass(frozen=True)
class StandardBuild:
    """A built standard DFA plus the function tuple behind each state.

    The tuples are kept as component ids: ``components[j]`` holds the
    images of the distinct j-th components, ``coords[j][s]`` the id of
    state s's j-th component.  ``states`` assembles the tuples on first
    read.
    """

    dfa: Dfa
    components: Components = field(repr=False)
    coords: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def states(self) -> tuple[TransTuple, ...]:
        per_state = zip(*(map(comps.__getitem__, ids_j) for comps, ids_j in zip(self.components, self.coords)))
        return tuple(_tuple(tuple(map(_fn, images))) for images in per_state)

    def labels(self) -> tuple[str, ...]:
        return tuple(fn_token(t) for t in self.states)


def build_standard_detailed(
    pred: EPredicate,
    dfas: Sequence[Dfa],
    mode: str = "accessible",
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> StandardBuild:
    """Standard-modifier build that also reports the state encodings.

    Both modes run ``accessible_tuples``.  In "accessible" mode it starts
    from the identity tuple alone and discovers states breadth-first
    (letters in alphabet order), so the output is already canonically
    numbered.  In "full" mode it starts from every function tuple in
    ranking order; that space is closed under the letters, so the search
    only fills the rows, and state s is the tuple of rank s (component id
    = ``fn_rank``).  Full mode refuses to start if the space exceeds
    ``max_states`` or its transitions exceed ``TRANSITIONS_PER_STATE *
    max_states``.
    """
    if mode not in ("accessible", "full"):
        raise ValueError(f"unknown build mode {mode!r}")
    if pred.arity != len(dfas):
        raise ValueError(f"arity mismatch: {len(dfas)} automata, predicate needs {pred.arity}")
    alphabet, letters = letter_tuples(dfas)
    cfg = StateConfig.from_dfas(dfas)

    if mode == "full":
        total = tuple_space_within(cfg.sizes, max_states)
        if total is None:
            raise CapExceeded(f"full state space has {tuple_space_text(cfg.sizes)} tuples, cap is {max_states}")
        if total * len(letters) > TRANSITIONS_PER_STATE * max_states:
            raise _work_cap(total, len(letters), max_states)
        starts, init = all_tuples(cfg.sizes), _std_initial(cfg)
    else:
        starts, init = [tuple_identity(cfg.sizes)], 0
    components, coords, rows = accessible_tuples(letters, starts, max_states)
    finals = _final_states(pred, cfg, components, coords)
    dfa = Dfa(alphabet, len(coords[0]), init, finals, rows)
    return StandardBuild(dfa, components, coords)


def build_standard(
    pred: EPredicate,
    dfas: Sequence[Dfa],
    mode: str = "accessible",
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> Dfa:
    """Standard-modifier build; see build_standard_detailed."""
    return build_standard_detailed(pred, dfas, mode, max_states=max_states).dfa
