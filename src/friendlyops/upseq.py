"""Eventually periodic 0/1 sequences in a unique canonical form.

A ``UPSeq`` stores a finite prefix and a repeating period.  Construction
always canonicalizes: the period is reduced to its primitive root, then
the prefix is shrunk while its last bit agrees with the bit the period
would produce at that position (rotating the period as it absorbs prefix
bits).  The normal form is unique, so structural equality is sequence
equality.

A ``CharTuple`` bundles one such sequence per coordinate; for a tuple of
self-maps it records, per coordinate j and exponent p, whether the p-th
iterate of component j sends the initial state into the final set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import ceil, gcd
from typing import Iterable, Sequence

from .automata import Dfa, _is_nat
from .errors import ParseError
from .transforms import TransFn, TransTuple, rho_walk

_BITS = (0, 1)


def _canonical(prefix: Sequence[int], period: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not period:
        raise ValueError("period must be nonempty")
    for b in list(prefix) + list(period):
        if b not in _BITS:
            raise ValueError(f"bit {b!r} is not 0 or 1")
    per = tuple(period)
    for d in range(1, len(per) + 1):
        if len(per) % d == 0 and per == per[:d] * (len(per) // d):
            per = per[:d]
            break
    pre = list(prefix)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = per[-1:] + per[:-1]
    return tuple(pre), per


@dataclass(frozen=True)
class UPSeq:
    """An eventually periodic bit sequence, canonical on construction."""

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        pre, per = _canonical(self.prefix, self.period)
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "period", per)

    def __str__(self) -> str:
        return format_upseq(self)


@dataclass(frozen=True)
class CharTuple:
    """A tuple of UPSeq, one per coordinate."""

    components: tuple[UPSeq, ...]

    def __post_init__(self) -> None:
        components = tuple(self.components)
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("a CharTuple needs at least one component")

    @property
    def arity(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return format_char_tuple(self)


ZERO = UPSeq((), (0,))
ZERO_ONE = UPSeq((0,), (1,))


def at(u: UPSeq, p: int) -> int:
    """The bit at index p (p >= 0)."""
    if p < 0:
        raise ValueError("index must be non-negative")
    if p < len(u.prefix):
        return u.prefix[p]
    return u.period[(p - len(u.prefix)) % len(u.period)]


def scale(u: UPSeq, m: int) -> UPSeq:
    """The sequence p -> u at index m*p; m = 0 freezes the bit at 0."""
    if m < 0:
        raise ValueError("scale factor must be non-negative")
    if m == 0:
        return UPSeq((), (at(u, 0),))
    a = ceil(len(u.prefix) / m)
    b = len(u.period) // gcd(len(u.period), m)
    prefix = tuple(at(u, m * p) for p in range(a))
    period = tuple(at(u, m * (a + t)) for t in range(b))
    return UPSeq(prefix, period)


def scale_tuple(chi: CharTuple, m: int) -> CharTuple:
    return CharTuple(tuple(scale(u, m) for u in chi.components))


def char_seq(f: TransFn, i: int, finals: Iterable[int]) -> UPSeq:
    """Membership bits of the orbit of i under f in the final set.

    Bit p is 1 iff the p-th iterate of f sends i into ``finals``.  The
    canonical prefix is at most the orbit tail and the period divides the
    orbit cycle.
    """
    fset = finals if isinstance(finals, (set, frozenset)) else set(finals)
    n = len(f.images)
    for q in fset:
        if not 0 <= q < n:
            raise ValueError(f"final state {q} outside [0, {n})")
    if not 0 <= i < n:
        raise ValueError(f"start {i} outside [0, {n})")
    tail, orbit = rho_walk(f.images, i)
    bits = [1 if q in fset else 0 for q in orbit]
    return UPSeq(tuple(bits[:tail]), tuple(bits[tail:]))


def char_tuple(ft: TransTuple, initials: Sequence[int], finals: Sequence[Iterable[int]]) -> CharTuple:
    """Componentwise char_seq of a tuple of maps."""
    if not (ft.k == len(initials) == len(finals)):
        raise ValueError("shape mismatch between tuple, initials and finals")
    return CharTuple(tuple(char_seq(f, i, fs) for f, i, fs in zip(ft.components, initials, finals)))


def upseq_to_unary_dfa(u: UPSeq) -> Dfa:
    """A one-letter DFA accepting exactly the powers a^p with bit p set.

    States follow the prefix then loop through the period, so the DFA has
    |prefix| + |period| states.
    """
    a, b = len(u.prefix), len(u.period)
    n = a + b
    row = tuple(p + 1 if p + 1 < n else a for p in range(n))
    finals = frozenset(p for p in range(n) if at(u, p) == 1)
    return Dfa(("a",), n, 0, finals, (row,))


_UPSEQ_RE = re.compile(r"([01]*)\(([01]+)\)")


def parse_upseq(text: str) -> UPSeq:
    """Parse a literal like ``0(1)`` or ``(01)``."""
    m = _UPSEQ_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"malformed sequence literal {text!r}")
    prefix = tuple(int(c) for c in m.group(1))
    period = tuple(int(c) for c in m.group(2))
    return UPSeq(prefix, period)


def format_upseq(u: UPSeq) -> str:
    return "".join(map(str, u.prefix)) + "(" + "".join(map(str, u.period)) + ")"


def parse_char_tuple(text: str) -> CharTuple:
    """Parse a comma-separated list of sequence literals."""
    parts = text.split(",")
    return CharTuple(tuple(parse_upseq(part) for part in parts))


def format_char_tuple(chi: CharTuple) -> str:
    return ",".join(format_upseq(u) for u in chi.components)


def parse_eset(text: str) -> tuple[int, list[CharTuple]]:
    """Parse the "eset v1" file format: a header then one tuple per line."""
    lines = [(ln, raw.strip()) for ln, raw in enumerate(text.splitlines(), start=1) if raw.strip()]
    if not lines:
        raise ParseError("line 1: malformed header, expected 'eset v1 k=<k>'")
    ln, head = lines[0]
    toks = head.split()
    if len(toks) != 3 or toks[0] != "eset" or toks[1] != "v1" or not toks[2].startswith("k="):
        raise ParseError(f"line {ln}: malformed header, expected 'eset v1 k=<k>'")
    if not _is_nat(toks[2][2:].removeprefix("-")):
        raise ParseError(f"line {ln}: malformed arity in header")
    k = int(toks[2][2:])
    if k < 1:
        raise ParseError(f"line {ln}: arity must be positive")
    tuples = []
    for ln, raw in lines[1:]:
        try:
            chi = parse_char_tuple(raw)
        except ParseError as e:
            raise ParseError(f"line {ln}: {e}") from None
        if chi.arity != k:
            raise ParseError(f"line {ln}: expected {k} components, got {chi.arity}")
        tuples.append(chi)
    return k, tuples
