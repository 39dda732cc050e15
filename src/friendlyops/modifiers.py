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
import operator
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .automata import Dfa, _dfa
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
# Nothing here calls char_tuple; perfbench's tracer patches the name (ROADMAP item 2).
from .upseq import CharTuple, UPSeq, _bits, char_tuple  # noqa: F401

DEFAULT_MAX_STATES = 10**6
# A build may perform this many transitions (states times letters) per state of its cap.
TRANSITIONS_PER_STATE = 10
# accessible_tuples expands numbered tuples in blocks of this many (tuple, letter) pairs,
# rounded down to whole tuples.  A block holds one key per pair until it is numbered, at
# most 160 kB here unless the floor below applies.  Larger blocks gained nothing
# measurable: on the 3x3x3 monster (9 letters) a whole sc run took 0.31-0.33 s, with a
# peak RSS within 1% of the per-pair search's, at every size from 1,024 to 65,536 pairs.
BLOCK_PAIRS = 4096
# ...but a block holds at least this many tuples.  Keying makes one map per letter and
# coordinate and one zip over all letters per block, so with one tuple a block (past 2,048
# letters) that set-up is most of the work: on the full n=5 monster (3,125 letters) the
# search took 65-92 s with one tuple a block and 29-49 s with 16 to 256 tuples, at the same
# max RSS (2 vCPU Xeon, Python 3.11.7).  It changes nothing for up to 128 letters.
MIN_BLOCK_TUPLES = 32

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


def check_transitions(reached: int, n_letters: int, max_states: int) -> None:
    """Refuse, as the build would, a build known to reach ``reached`` tuples.

    A build over ``n_letters`` letters numbers at most
    ``TRANSITIONS_PER_STATE * max_states // n_letters`` tuples and refuses
    the next one, naming its count.
    """
    work = TRANSITIONS_PER_STATE * max_states
    work_limit = work // max(n_letters, 1)
    if reached > work_limit:
        raise CapExceeded(f"{work_limit + 1} tuples x {n_letters} letters exceed the cap of {work} transitions")


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
    component, so each distinct pair is composed once.

    The search expands a block of numbered tuples at a time:
    ``BLOCK_PAIRS // len(letters)`` of them, at least ``MIN_BLOCK_TUPLES``.
    Components are interned in order of first appearance over the numbered
    tuples, so the table slots a block misses are those of the components
    that first appear in it; they are filled first, in (tuple, letter,
    coordinate) order.  Then every successor of the block is keyed by its
    component ids in mixed radix (the tables hold the ids pre-scaled):
    letter by letter, one ``map`` per coordinate reads the block's successor
    ids there and ``map(operator.add, ...)`` sums them, and ``zip``
    interleaves the letters' keys back into (tuple, letter) order.  The
    keys not seen before are numbered in that order, and the successors'
    numbers join one list of transitions in that order, which is cut into
    the rows at the end.  All of this but the fill runs in C, through
    ``map``, ``dict.fromkeys`` and ``itertools``.

    More than ``max_states`` tuples, more than ``TRANSITIONS_PER_STATE *
    max_states`` transitions (tuples times letters), or more than that
    many images stored across the interned components raise CapExceeded.
    Every start's components are interned before any start is numbered.
    Callers keep their starts within the state and transition caps, so
    the stored-images cap is the only refusal the starts can meet.  Past
    the starts, the refusal is the one a search of one (tuple, letter)
    pair at a time would meet first: before a component that passes the
    stored-images cap is refused, the successors of the pairs before its
    pair are numbered, and that numbering may refuse first.
    """
    starts = iter(starts)
    first = next(starts)
    k = first.k
    components: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    ids: list[dict[tuple[int, ...], int]] = [{} for _ in range(k)]
    # cids[j][c] is the int object c that ids[j] holds; coords[j] are decoded through it, so
    # that every reference to an id shares one object.
    cids: list[list[int]] = [[] for _ in range(k)]
    # A tuple's key is its component ids in mixed radix.  Coordinate j of n
    # points has at most n**n components, and its radix is that or, if that
    # is more, max_states + 1.  An id belongs to a numbered tuple or to a
    # successor of the block being expanded.  If a coordinate of radix
    # max_states + 1 holds that many ids or more, the keys of those tuples
    # take more than max_states values (the ids of the last such coordinate
    # cover every residue), so the numbering refuses before it decodes a key.
    radices = [tuple_space_within((n,), max_states) or max_states + 1 for n in first.sizes]
    scales = [prod(radices[j + 1 :]) for j in range(k)]
    # Per distinct letter component of coordinate j: (successor row, the component as a
    # one-component operand).  row[c] is scales[j] times the id of the letter component o
    # component c, -1 until composed.
    bound_of: list[dict[tuple[int, ...], tuple[list[int], TransTuple]]] = [{} for _ in range(k)]
    # Per letter: its pair on each coordinate.
    binds = []
    for lt in letters:
        if lt.k != k:
            raise ValueError(f"shape mismatch: {lt.sizes} vs {first.sizes}")
        binds.append(tuple(b.setdefault(f.images, ([], _tuple((f,)))) for b, f in zip(bound_of, lt.components)))
    # tables[j][li]: the successor row of letter li on coordinate j.  The rows of a coordinate
    # are all of one length, at least filled[j]; they grow in bulk, padded with -1.
    tables = [[bound[j][0] for bound in binds] for j in range(k)]

    work = TRANSITIONS_PER_STATE * max_states
    stored = 0

    def intern(j: int, images: tuple[int, ...]) -> int:
        nonlocal stored
        cid = ids[j].get(images)
        if cid is None:
            stored += len(images)
            if stored > work:
                check_stored_images(stored, max_states)
            cid = ids[j][images] = len(components[j])
            components[j].append(images)
            cids[j].append(cid)
        return cid

    # Numbering refuses at the first of the state cap and the transition
    # cap, with the state cap's message when both apply.
    limit = min(max_states, work // max(len(letters), 1))
    index: dict[int, int] = {}
    coords: list[list[int]] = [[] for _ in range(k)]
    targets: list[int] = []  # the number of each successor, tuple by tuple, letters in order

    def number(keys: Iterable[int]) -> None:
        """Number the keys not numbered yet, in order of first appearance."""
        new = dict.fromkeys(itertools.filterfalse(index.__contains__, keys))
        sid = len(index)
        if sid + len(new) > limit:
            if limit >= max_states:
                raise CapExceeded(f"more than {max_states} reachable tuples")
            check_transitions(limit + 1, len(letters), max_states)
        index.update(zip(new, range(sid, sid + len(new))))
        for coord, objs, scale, radix in zip(coords, cids, scales, radices):  # each key's digit there
            digits = map(operator.floordiv, new, itertools.repeat(scale))
            coord.extend(map(objs.__getitem__, map(operator.mod, digits, itertools.repeat(radix))))

    def successor_keys(parts: list[list[int]]) -> Iterator[int]:
        """The successor keys of the tuples with component ids ``parts``, tuple by tuple, letters in order.

        The keys are made letter by letter, each the sum over coordinates of
        the letter's scaled successor ids there, and then interleaved.
        """
        per_letter = []
        for li in range(len(letters)):
            per_coord = [map(table[li].__getitem__, part) for part, table in zip(parts, tables)]
            keys = per_coord[0]
            for more in per_coord[1:]:
                keys = map(operator.add, keys, more)
            per_letter.append(keys)
        return itertools.chain.from_iterable(zip(*per_letter))

    number(
        sum(intern(j, f.images) * scales[j] for j, f in enumerate(t.components))
        for t in itertools.chain((first,), starts)
    )
    filled = [0] * k  # per coordinate: the components whose slots are filled
    span = max(MIN_BLOCK_TUPLES, BLOCK_PAIRS // max(len(letters), 1))  # tuples per block
    i = 0
    while i < len(index):
        end = min(len(index), i + span)
        parts = [coord[i:end] for coord in coords]
        # (position, coordinate, id) of each component first seen in the block; ids first
        # appear in increasing order, so each position is searched from the one before
        firsts = []
        for j, (coord, part) in enumerate(zip(coords, parts)):
            top = max(part) + 1
            p = i
            for c in range(filled[j], top):
                p = coord.index(c, p, end)
                firsts.append((p, j, c))
            filled[j] = max(filled[j], top)
            if tables[j] and top > len(tables[j][0]):
                pad = [-1] * (top + top // 8 + 64 - len(tables[j][0]))
                for srow, _ in bound_of[j].values():
                    srow.extend(pad)
        firsts.sort()
        try:
            for p, group in itertools.groupby(firsts, operator.itemgetter(0)):
                operands = [(j, c, _tuple((_fn(components[j][c]),)), scales[j]) for _, j, c in group]
                for li, bound in enumerate(binds):
                    for j, c, g, scale in operands:
                        srow, lop = bound[j]
                        if srow[c] < 0:
                            cid = intern(j, tuple_compose(lop, g).components[0].images)
                            # a scale-1 id is stored itself, not a copy
                            srow[c] = cid * scale if scale > 1 else cid
        except CapExceeded:
            # the pairs before the refused one (tuple p, letter li) come first
            number(itertools.islice(successor_keys(parts), (p - i) * len(letters) + li))
            raise
        keys = list(successor_keys(parts))
        number(keys)
        targets.extend(map(index.__getitem__, keys))
        i = end
    rows = tuple(tuple(targets[li :: len(letters)]) for li in range(len(letters)))
    return tuple(map(tuple, components)), tuple(map(tuple, coords)), rows


def _final_states(
    pred: EPredicate,
    cfg: StateConfig,
    components: Components,
    coords: tuple[tuple[int, ...], ...],
) -> frozenset[int]:
    """The states whose characteristic tuple satisfies ``pred``.

    A state's characteristic tuple is, per coordinate, the sequence of the
    orbit of the initial state under the state's component there: its
    membership bits in the final set, the tail as prefix and the cycle as
    period.  So each coordinate makes one sequence per distinct orbit class
    (tail and bits), and numbers the distinct sequences.  A state's key is
    its tuple of sequence numbers; sequences are canonical, so distinct keys
    are distinct characteristic tuples, and ``eval_pred`` runs once per
    distinct key.  The keys are read twice, at C speed, and never stored.
    """
    seqs: list[list[UPSeq]] = []  # per coordinate: its distinct sequences, by number
    seq_of: list[list[int]] = []  # per coordinate: the sequence number of each component id
    for comps, i, fs in zip(components, cfg.initials, cfg.finals):
        by_class: dict[tuple[int, tuple[bool, ...]], int] = {}
        numbers: dict[UPSeq, int] = {}
        per_id = []
        for images in comps:
            tail, orbit = rho_walk(images, i)
            bits = tuple(map(fs.__contains__, orbit))
            sn = by_class.get((tail, bits))
            if sn is None:
                u = _bits(tuple(map(int, bits[:tail])), tuple(map(int, bits[tail:])))
                sn = by_class[(tail, bits)] = numbers.setdefault(u, len(numbers))
            per_id.append(sn)
        seqs.append(list(numbers))
        seq_of.append(per_id)

    def keys() -> Iterator[tuple[int, ...]]:
        return zip(*(map(per_id.__getitem__, ids_j) for per_id, ids_j in zip(seq_of, coords)))

    verdict = {
        key: eval_pred(pred, CharTuple(tuple(map(list.__getitem__, seqs, key))))
        for key in dict.fromkeys(keys())
    }
    return frozenset(itertools.compress(itertools.count(), map(verdict.__getitem__, keys())))


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
        check_transitions(total, len(letters), max_states)
        starts, init = all_tuples(cfg.sizes), _std_initial(cfg)
    else:
        starts, init = [tuple_identity(cfg.sizes)], 0
    components, coords, rows = accessible_tuples(letters, starts, max_states)
    finals = _final_states(pred, cfg, components, coords)
    dfa = _dfa(alphabet, len(coords[0]), init, finals, rows)
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
