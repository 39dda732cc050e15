"""Complete deterministic finite automata.

A ``Dfa`` is immutable and always complete: one transition per state and
letter.  Alphabet order is part of the value; it drives the canonical
breadth-first state numbering used by ``accessible_part`` and
``minimize``, so two accessible automata are isomorphic exactly when
their canonical forms compare equal.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ParseError

_FORBIDDEN_IN_TOKEN = set(':#"')


def _valid_token(tok: str) -> bool:
    return bool(tok) and not any(c.isspace() or c in _FORBIDDEN_IN_TOKEN for c in tok)


@dataclass(frozen=True)
class Dfa:
    """A complete DFA over an ordered token alphabet.

    ``trans`` holds one row per letter, aligned with ``alphabet``;
    ``trans[li][q]`` is the successor of state q under letter li.
    """

    alphabet: tuple[str, ...]
    n_states: int
    initial: int
    finals: frozenset[int]
    trans: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        alphabet = tuple(self.alphabet)
        finals = frozenset(self.finals)
        trans = tuple(tuple(row) for row in self.trans)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "finals", finals)
        object.__setattr__(self, "trans", trans)
        n = self.n_states
        if type(n) is not int:
            raise ValueError(f"state count {n!r} is not an int")
        if n < 1:
            raise ValueError("a Dfa needs at least one state")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("duplicate letter in alphabet")
        for tok in alphabet:
            if not _valid_token(tok):
                raise ValueError(f"invalid letter token {tok!r}")
        if len(trans) != len(alphabet):
            raise ValueError("one transition row per letter required")
        for tok, row in zip(alphabet, trans):
            if len(row) != n:
                raise ValueError(f"row for {tok!r} has length {len(row)}, expected {n}")
            for v in row:
                if type(v) is not int:
                    raise ValueError(f"image {v!r} in row for {tok!r} is not an int")
                if not 0 <= v < n:
                    raise ValueError(f"image {v} out of range in row for {tok!r}")
        if type(self.initial) is not int:
            raise ValueError(f"initial state {self.initial!r} is not an int")
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")
        for q in finals:
            if type(q) is not int:
                raise ValueError(f"final state {q!r} is not an int")
            if not 0 <= q < n:
                raise ValueError(f"final state {q} out of range")

    @cached_property
    def _letter_ids(self) -> dict[str, int]:
        """Each letter's index in ``alphabet``; built on first use, not a field."""
        return {tok: li for li, tok in enumerate(self.alphabet)}

    def letter_index(self, letter: str) -> int:
        li = self._letter_ids.get(letter)
        if li is None:
            raise ValueError(f"unknown letter {letter!r}")
        return li

    def row(self, letter: str) -> tuple[int, ...]:
        return self.trans[self.letter_index(letter)]


def accepts(d: Dfa, word: Sequence[str]) -> bool:
    """Run the word from the initial state; true iff it lands on a final."""
    index = d._letter_ids
    q = d.initial
    for tok in word:
        li = index.get(tok)
        if li is None:
            raise ValueError(f"unknown letter {tok!r}")
        q = d.trans[li][q]
    return q in d.finals


def _dfa(
    alphabet: tuple[str, ...],
    n_states: int,
    initial: int,
    finals: frozenset[int],
    trans: tuple[tuple[int, ...], ...],
) -> Dfa:
    """The Dfa of fields known to pass its check, with exactly its field types; unchecked.

    For automata whose every value the package computed (a build, a
    renumbering, a quotient), as ``transforms._fn`` is for maps; input
    paths keep the checked ``Dfa``.
    """
    d = object.__new__(Dfa)
    d.__dict__.update(alphabet=alphabet, n_states=n_states, initial=initial, finals=finals, trans=trans)
    return d


def accessible_part(d: Dfa) -> Dfa:
    """Restrict to states reachable from the initial one, BFS-renumbered.

    On a fully accessible automaton this is a pure canonical renumbering:
    states appear in breadth-first discovery order, letters scanned in
    alphabet order.  An automaton already in that order is returned as is.

    The search runs a level at a time in C.  One ``itemgetter`` of the
    level reads its images under each letter, and an extended slice puts
    them in place, so the successors come state by state with letters in
    order.  Those seen before are dropped and the rest keep their first
    appearance (``dict.fromkeys``).  That is the order a search of one
    state at a time discovers them in, since every state nearer the
    initial one is seen before the level is expanded.  ``seen`` is a list
    of flags: a ``bytearray`` would take a byte a state instead of 8, but
    filters slower, its ``__getitem__`` being a slot wrapper.
    """
    seen = [False] * d.n_states
    seen[d.initial] = True
    n_letters = len(d.trans)
    order = [d.initial]
    level = [d.initial]
    while level:
        get = operator.itemgetter(*level)
        if len(level) == 1:  # the getter returns the image itself, not a tuple
            successors = list(map(get, d.trans))
        else:
            successors = [0] * (n_letters * len(level))
            for li, row in enumerate(d.trans):
                successors[li::n_letters] = get(row)
        level = list(dict.fromkeys(itertools.filterfalse(seen.__getitem__, successors)))
        for t in level:
            seen[t] = True
        order += level
    n = len(order)
    if n == d.n_states and all(map(operator.eq, order, range(n))):
        return d
    index = dict(zip(order, range(n)))
    rows = tuple(tuple(map(index.__getitem__, map(row.__getitem__, order))) for row in d.trans)
    finals = frozenset(map(index.__getitem__, filter(index.__contains__, d.finals)))
    return _dfa(d.alphabet, n, 0, finals, rows)


def nerode_partition(d: Dfa) -> list[int]:
    """Nerode class of every state, via Moore's refinement.

    Classes are numbered by first occurrence in state order.  States are
    merged iff no word distinguishes them; reachability is not required.
    Each refinement round is one pass over all states and letters, and
    there can be up to n rounds, so a chain of n states costs O(n^2).
    """
    cls = [1 if q in d.finals else 0 for q in range(d.n_states)]
    n_classes = len(set(cls))
    while True:
        remap: dict[tuple[int, ...], int] = {}
        new = []
        for q in range(d.n_states):
            sig = (cls[q],) + tuple(cls[row[q]] for row in d.trans)
            new.append(remap.setdefault(sig, len(remap)))
        if len(remap) == n_classes:
            return new
        cls, n_classes = new, len(remap)


def _hopcroft_partition(d: Dfa) -> list[int]:
    """Nerode classes via Hopcroft's splitter-worklist refinement.

    Runs in O(m log n) for m transitions and n states (Hopcroft 1971),
    over the array-based refinable partition of Valmari & Lehtinen
    (STACS 2008): block b is the slice ``elems[first[b]:past[b]]``, the
    states moved to its front ``elems[first[b]:marked[b]]`` are those hit
    by the current splitter, and ``loc[q]`` is the index of q in ``elems``.
    A split touches only the marked states and the smaller part; the
    smaller part gets the new block id, so only its states are relabelled,
    and it always joins the worklist (if the old id was queued, the larger
    part stays queued under it).

    Predecessors are stored flat, per letter, after one count of sources
    per target (the letter's in-degrees).  A letter whose in-degrees are all
    1 permutes the states: ``pre[li]`` is ``(src, None)``, where ``src`` is
    the inverse of its row, filled in one pass, and the refinement reads the
    one predecessor of t as ``src[t]``, with no slice.  For any other letter
    ``pre[li]`` is ``(src, off)``, and the states with a transition into t
    are ``src[off[t]:off[t + 1]]``.  ``off`` holds n + 1 offsets, the
    running sums of the counts.  ``src`` lists the states by target,
    ascending within a target, as a stable comparison sort keyed by target
    leaves them.

    Every int stored here, in the predecessor lists, ``elems``, ``loc``,
    the split points and the block ids, is one of the objects of ``ids``
    (n + 1 of them, 28 bytes each past 256), so every list costs 8 bytes a
    slot: a permutation letter stores its inverse alone, 8 bytes per
    transition, and any other letter ``src`` plus ``off``, 16 bytes per
    transition.  Making a new int for each number stored would add 28 bytes
    for most of them.
    """
    n = d.n_states
    ids = list(range(n + 1))  # every list below points into these int objects
    states = ids[:n]
    pre: list[tuple[list[int], list[int] | None]] = []
    for row in d.trans:
        counts = [0] * n
        for t in row:
            counts[t] += 1
        if max(counts) == 1:  # a permutation: target t has the one source src[t]
            src = [0] * n
            for q, t in zip(states, row):
                src[t] = q
            pre.append((src, None))
        else:
            src = sorted(states, key=row.__getitem__)
            pre.append((src, list(map(ids.__getitem__, itertools.accumulate(counts, initial=0)))))

    finals = d.finals
    elems = [q for q in states if q in finals] + [q for q in states if q not in finals]
    loc = [0] * n
    for q, i in zip(elems, ids):
        loc[q] = i
    k = len(finals)
    block_of = [0] * n
    if 0 < k < n:
        first, past, marked = [0, k], [k, n], [0, k]
        for q in elems[k:]:
            block_of[q] = 1
        worklist = [0 if k <= n - k else 1]
    else:
        first, past, marked = [0], [n], [0]
        worklist = []

    while worklist:
        ai = worklist.pop()
        splitter = elems[first[ai] : past[ai]]  # snapshot: block ai may be split below
        for src, off in pre:
            touched = []
            # the marking is written out twice: one loop over ``(src[t],) if off is None else
            # src[off[t] : off[t + 1]]`` made the partition about 10% slower (mono-n6, kary-3x3x3)
            if off is None:  # a permutation: one predecessor per state, no slice
                for t in splitter:
                    q = src[t]
                    b = block_of[q]
                    m = marked[b]
                    i = loc[q]
                    if i >= m:  # not yet marked: swap q into the marked front
                        if m == first[b]:
                            if past[b] == m + 1:  # a one-state block never splits
                                continue
                            touched.append(b)
                        r = elems[m]
                        elems[i] = r
                        loc[r] = i
                        elems[m] = q
                        loc[q] = m
                        marked[b] = ids[m + 1]
            else:
                for t in splitter:
                    for q in src[off[t] : off[t + 1]]:
                        b = block_of[q]
                        m = marked[b]
                        i = loc[q]
                        if i >= m:  # the same marking as above
                            if m == first[b]:
                                if past[b] == m + 1:
                                    continue
                                touched.append(b)
                            r = elems[m]
                            elems[i] = r
                            loc[r] = i
                            elems[m] = q
                            loc[q] = m
                            marked[b] = ids[m + 1]
            for b in touched:
                lo, m, hi = first[b], marked[b], past[b]
                marked[b] = lo
                if m == hi:  # every state of b was hit: no split
                    continue
                if m - lo <= hi - m:  # marked part is the smaller: it leaves
                    first[b] = marked[b] = m
                    hi = m
                else:
                    past[b] = m
                    lo = m
                ni = ids[len(first)]
                first.append(lo)
                past.append(hi)
                marked.append(lo)
                for i in range(lo, hi):
                    block_of[elems[i]] = ni
                worklist.append(ni)
    return block_of


def check_partition(d: Dfa, cls: Sequence[int]) -> None:
    """Raise ValueError unless ``cls`` is a congruence of d that respects finality.

    ``cls[q]`` is the class of state q, an int from 0 up.  Finality must be
    constant on each class, and under every letter ``cls[q]`` must determine
    ``cls[row[q]]``.  A partition that passes is at least as fine as the
    Nerode partition, so any merge of two distinguishable states fails; that
    it is no finer takes a second engine.  Each test counts, at C speed,
    the distinct int keys ``cls[q] * C + x`` for C past every class number
    and compares them with the number of classes.  The first failure raises,
    naming the letter.
    """
    if len(cls) != d.n_states:
        raise ValueError(f"a partition of {d.n_states} states needs as many classes, not {len(cls)}")
    if min(cls) < 0:
        raise ValueError(f"class number {min(cls)} is negative")
    n_classes = len(set(cls))
    width = max(cls) + 1
    scaled = [c * width for c in cls]
    if len(set(map(operator.add, scaled, map(d.finals.__contains__, range(d.n_states))))) != n_classes:
        raise ValueError("a class holds final and non-final states")
    for tok, row in zip(d.alphabet, d.trans):
        if len(set(map(operator.add, scaled, map(cls.__getitem__, row)))) != n_classes:
            raise ValueError(f"letter {tok!r} sends two states of one class to different classes")


def minimize(d: Dfa, algo: str = "hopcroft") -> Dfa:
    """Minimal complete DFA for the language of d, canonically numbered.

    ``algo`` picks the refinement engine ("hopcroft" or "moore"); both
    always yield the identical canonical automaton, and the number of
    states of the result is the state complexity of the language.
    """
    if algo not in ("hopcroft", "moore"):
        raise ValueError(f"unknown algorithm {algo!r}")
    h = accessible_part(d)
    part = _hopcroft_partition(h) if algo == "hopcroft" else nerode_partition(h)

    # relabel classes by first occurrence, pick the first state as representative; every
    # class number stored below is one of the int objects of nums
    nums = list(range(h.n_states))
    relabel = [-1] * h.n_states
    reps: list[int] = []
    for q, c in zip(nums, part):
        if relabel[c] < 0:
            relabel[c] = nums[len(reps)]
            reps.append(q)
    cls = list(map(relabel.__getitem__, part))
    del part, relabel  # and with them the partition's own class numbers

    # h is numbered breadth-first and classes by first occurrence in h, so
    # the quotient is already in canonical breadth-first order: the first
    # state of a class is reached from some (p, a), and (rep of p's class, a)
    # is no later and lands in the same class.
    # a generator, not map(row.__getitem__, reps): a tuple's __getitem__ is a slot wrapper,
    # and over 3,125 letters it made the rows twice as slow
    rows = tuple(tuple(cls[row[rep]] for rep in reps) for row in h.trans)
    finals = frozenset(itertools.compress(nums, map(h.finals.__contains__, reps)))
    return _dfa(h.alphabet, len(reps), cls[h.initial], finals, rows)


def _with_alphabet_order(d: Dfa, order: tuple[str, ...]) -> Dfa:
    rows = tuple(d.row(tok) for tok in order)
    return Dfa(order, d.n_states, d.initial, d.finals, rows)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """True iff the two automata recognize the same language.

    The alphabets must carry the same tokens; both are reordered to the
    sorted token order internally, then minimized and compared.
    """
    if set(d1.alphabet) != set(d2.alphabet):
        raise ValueError("alphabet mismatch")
    order = tuple(sorted(d1.alphabet))
    return minimize(_with_alphabet_order(d1, order)) == minimize(_with_alphabet_order(d2, order))


def preimage_dfa(d: Dfa, letter_map: Mapping[str, str]) -> Dfa:
    """Inverse image of the language under a letter-to-letter substitution.

    The result reads the keys of ``letter_map`` (in mapping order) and
    behaves on each as d behaves on its image letter.
    """
    alphabet = tuple(letter_map.keys())
    if not alphabet:
        raise ValueError("letter map must be nonempty")
    rows = []
    for a in alphabet:
        img = letter_map[a]
        if img not in d.alphabet:
            raise ValueError(f"letter {a!r} maps to unknown letter {img!r}")
        rows.append(d.row(img))
    return Dfa(alphabet, d.n_states, d.initial, d.finals, tuple(rows))


_HEADER = ("alphabet", "states", "initial", "final")


def _is_nat(tok: str) -> bool:
    """True iff tok is a nonempty run of ASCII digits 0-9."""
    return tok.isascii() and tok.isdigit()


def parse_dfa(text: str) -> Dfa:
    """Parse the "dfa v1" text format.

    Tokens are whitespace-separated; ``#`` starts a comment.  The header
    lines (alphabet, states, initial, final) must each appear exactly
    once, transition rows exactly once per letter, in any order.
    """
    lines: list[tuple[int, list[str]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            lines.append((ln, toks))
    if not lines:
        raise ParseError("line 1: malformed header, expected 'dfa v1'")
    ln, toks = lines[0]
    if toks != ["dfa", "v1"]:
        raise ParseError(f"line {ln}: malformed header, expected 'dfa v1'")
    last_ln = lines[-1][0]

    header: dict[str, tuple[int, list[str]]] = {}
    trans_lines: list[tuple[int, list[str]]] = []
    for ln, toks in lines[1:]:
        key = toks[0]
        if key == "trans":
            trans_lines.append((ln, toks))
        elif key in _HEADER:
            if key in header:
                raise ParseError(f"line {ln}: duplicate '{key}' line")
            header[key] = (ln, toks[1:])
        else:
            raise ParseError(f"line {ln}: unknown directive {key!r}")
    for key in _HEADER:
        if key not in header:
            raise ParseError(f"line {last_ln}: missing '{key}' line")

    def one_int(key: str) -> tuple[int, int]:
        ln, toks = header[key]
        if len(toks) != 1 or not _is_nat(toks[0].removeprefix("-")):
            raise ParseError(f"line {ln}: '{key}' expects a single integer")
        return ln, int(toks[0])

    ln, alphabet_toks = header["alphabet"]
    seen = set()
    for tok in alphabet_toks:
        if tok in seen:
            raise ParseError(f"line {ln}: duplicate letter {tok!r}")
        if not _valid_token(tok):
            raise ParseError(f"line {ln}: invalid letter token {tok!r}")
        seen.add(tok)
    alphabet = tuple(alphabet_toks)

    sln, n = one_int("states")
    if n < 1:
        raise ParseError(f"line {sln}: state count must be positive")
    iln, initial = one_int("initial")
    if not 0 <= initial < n:
        raise ParseError(f"line {iln}: initial out of range")
    fln, final_toks = header["final"]
    finals = set()
    for tok in final_toks:
        if not _is_nat(tok):
            raise ParseError(f"line {fln}: 'final' expects integers")
        q = int(tok)
        if not 0 <= q < n:
            raise ParseError(f"line {fln}: final out of range")
        finals.add(q)

    rows: dict[str, tuple[int, ...]] = {}
    for ln, toks in trans_lines:
        if len(toks) < 2 or not toks[1].endswith(":"):
            raise ParseError(f"line {ln}: expected 'trans <letter>: <images>'")
        letter = toks[1][:-1]
        if letter not in seen:
            raise ParseError(f"line {ln}: unknown letter {letter!r}")
        if letter in rows:
            raise ParseError(f"line {ln}: duplicate transition row for {letter!r}")
        imgs = toks[2:]
        if len(imgs) != n:
            raise ParseError(f"line {ln}: expected {n} images, got {len(imgs)}")
        row = []
        for tok in imgs:
            if not _is_nat(tok):
                raise ParseError(f"line {ln}: images must be integers")
            v = int(tok)
            if v >= n:
                raise ParseError(f"line {ln}: image out of range")
            row.append(v)
        rows[letter] = tuple(row)
    for letter in alphabet:
        if letter not in rows:
            raise ParseError(f"line {last_ln}: missing transition row for {letter!r}")

    return Dfa(alphabet, n, initial, frozenset(finals), tuple(rows[a] for a in alphabet))


def print_dfa(d: Dfa) -> str:
    """Canonical "dfa v1" document; parse_dfa(print_dfa(d)) == d."""
    out = ["dfa v1"]
    out.append("alphabet " + " ".join(d.alphabet) if d.alphabet else "alphabet")
    out.append(f"states {d.n_states}")
    out.append(f"initial {d.initial}")
    finals = " ".join(str(q) for q in sorted(d.finals))
    out.append(f"final {finals}" if finals else "final")
    for tok, row in zip(d.alphabet, d.trans):
        out.append(f"trans {tok}: " + " ".join(map(str, row)))
    return "\n".join(out) + "\n"


def to_dot(d: Dfa) -> str:
    """Graphviz digraph with the initial state marked by an external arrow.

    Output is deterministic: nodes in id order, edge labels grouping
    letters in alphabet order.  Letter tokens cannot contain ``"``, so
    doubling each ``\\`` is all a quoted label needs.
    """
    out = ["digraph dfa {", "  rankdir=LR;", '  __init [shape=none label=""];']
    out.append(f"  __init -> {d.initial};")
    for q in range(d.n_states):
        shape = "doublecircle" if q in d.finals else "circle"
        out.append(f"  {q} [shape={shape}];")
    for q in range(d.n_states):
        grouped: dict[int, list[str]] = {}
        for tok, row in zip(d.alphabet, d.trans):
            grouped.setdefault(row[q], []).append(tok)
        for t, toks in grouped.items():
            label = ",".join(toks).replace("\\", "\\\\")
            out.append(f'  {q} -> {t} [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def words_up_to(alphabet: Iterable[str], max_len: int) -> Iterable[tuple[str, ...]]:
    """All words up to the given length, in length-then-lex order.

    With no letters the empty word is the only word, so the walk stops
    after it whatever ``max_len`` is.
    """
    letters = tuple(alphabet)
    for length in range(max_len + 1 if letters else 1):
        yield from itertools.product(letters, repeat=length)


def accepts_up_to(d: Dfa, max_len: int) -> Iterator[bool]:
    """``accepts(d, w)`` for every word w of ``words_up_to(d.alphabet, max_len)``, in that order.

    The walk keeps the states of one length at a time.  The words of
    length l are each word of length l - 1 in turn, followed by each letter
    in alphabet order, so the next level lists each state's successors
    under every letter, state after state, and is made at C speed: one
    ``itemgetter`` of the level reads its images under each letter, as in
    ``accessible_part``.  With no letters the walk stops after the empty
    word.

    Memory: the largest level holds one state per word of length
    ``max_len``.  The ``oracle`` command admits a ``max_len`` only if all
    its words number at most its word cap (10 per allowed state, the bound
    the transition cap puts on a build's rows), so no level it walks holds
    more states than that.
    """
    is_final = d.finals.__contains__
    level = [d.initial]
    for _ in range(max_len):
        yield from map(is_final, level)
        get = operator.itemgetter(*level)
        if len(level) == 1:  # the getter returns the image itself, not a tuple
            level = list(map(get, d.trans))
        else:
            level = list(itertools.chain.from_iterable(zip(*map(get, d.trans))))
        if not level:
            return
    yield from map(is_final, level)


def words_within(n_letters: int, max_len: int, cap: int) -> int | None:
    """The number of words up to ``max_len`` over ``n_letters`` letters if at most ``cap``, else None.

    The count grows one power of ``n_letters`` at a time and stops once it
    passes ``cap``, so no power past the cap is ever formed.
    """
    if n_letters < 2:
        total = max_len + 1 if n_letters else 1
        return total if total <= cap else None
    total, power = 0, 1
    for _ in range(max_len + 1):
        total += power
        if total > cap:
            return None
        power *= n_letters
    return total
