"""Self-maps of a finite set, tuples of such maps, and their combinatorics.

``TransFn`` values are the per-letter transition actions of DFAs;
``TransTuple`` values are the letters of monster automata and the states
of standard-modifier builds.  The ranking helpers fix one global
enumeration order (lexicographic by image list) that every full-space
construction in this package shares.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, Sequence

from .automata import Dfa
from .errors import ParseError


@dataclass(frozen=True)
class TransFn:
    """A total function from {0..n-1} into itself, stored as its images.

    Values are checked where they enter the package: this constructor
    (every image a plain ``int``, ``bool`` excluded, in [0, n)), and
    through it ``token_fn``, ``letter_tuples``, ``tn_generators``,
    ``identity`` and the word oracle; ``parse_dfa`` and ``Dfa`` check
    the rows these come from.  Self-maps of one set are closed under
    composition, so ``compose``, ``tuple_compose`` and the build make
    their results from already checked images with ``_fn`` and
    ``_tuple``, which skip the check.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise ValueError("a TransFn needs a nonempty domain")
        for x, v in enumerate(images):
            if type(v) is not int:
                raise ValueError(f"image {v!r} of {x} is not an int")
            if not 0 <= v < n:
                raise ValueError(f"image {v!r} of {x} outside [0, {n})")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_constant(self) -> bool:
        return all(v == self.images[0] for v in self.images)

    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.images))


@dataclass(frozen=True)
class TransTuple:
    """A tuple of TransFn, one per coordinate (sizes may differ)."""

    components: tuple[TransFn, ...]

    def __post_init__(self) -> None:
        components = tuple(self.components)
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("a TransTuple needs at least one component")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(f.n for f in self.components)


def _fn(images: tuple[int, ...]) -> TransFn:
    """The TransFn of images known to map [0, len(images)) into itself; unchecked."""
    f = object.__new__(TransFn)
    f.__dict__["images"] = images
    return f


def _tuple(components: tuple[TransFn, ...]) -> TransTuple:
    """The TransTuple of a nonempty tuple of TransFn; unchecked."""
    t = object.__new__(TransTuple)
    t.__dict__["components"] = components
    return t


@dataclass(frozen=True)
class RhoShape:
    """Orbit of a start point under a TransFn: a tail leading into a cycle.

    ``orbit`` lists the distinct visited states; the first ``tail`` entries
    are visited once, the remaining ``cycle`` entries repeat forever.
    """

    tail: int
    cycle: int
    orbit: tuple[int, ...]


def identity(n: int) -> TransFn:
    return TransFn(tuple(range(n)))


def constant(n: int, value: int) -> TransFn:
    return TransFn((value,) * n)


def compose(f: TransFn, g: TransFn) -> TransFn:
    """Function composition: (f o g)(x) = f(g(x))."""
    if len(f.images) != len(g.images):
        raise ValueError(f"size mismatch: {f.n} vs {g.n}")
    return _fn(tuple(map(f.images.__getitem__, g.images)))


def tuple_identity(sizes: Iterable[int]) -> TransTuple:
    return TransTuple(tuple(identity(n) for n in sizes))


def tuple_compose(f: TransTuple, g: TransTuple) -> TransTuple:
    """Componentwise composition of two tuples of matching shape."""
    if len(f.components) != len(g.components):
        raise ValueError(f"shape mismatch: {f.sizes} vs {g.sizes}")
    return _tuple(tuple(map(compose, f.components, g.components)))


def shared_alphabet(dfas: Sequence[Dfa]) -> tuple[str, ...]:
    """The one alphabet that every input automaton reads."""
    if not dfas:
        raise ValueError("need at least one input automaton")
    alphabet = dfas[0].alphabet
    for d in dfas[1:]:
        if d.alphabet != alphabet:
            raise ValueError("alphabet mismatch across inputs")
    return alphabet


def letter_tuples(dfas: Sequence[Dfa]) -> tuple[tuple[str, ...], list[TransTuple]]:
    """The shared alphabet of the inputs and, per letter, its tuple of actions."""
    alphabet = shared_alphabet(dfas)
    letters = [TransTuple(tuple(TransFn(d.trans[li]) for d in dfas)) for li in range(len(alphabet))]
    return alphabet, letters


def rho_shape(f: TransFn, start: int) -> RhoShape:
    """Walk start, f(start), ... until the first revisit.

    The returned (tail, cycle) pair is minimal: no shorter tail or cycle
    describes the orbit, and tail + cycle <= n.
    """
    if not 0 <= start < f.n:
        raise ValueError(f"start {start} outside [0, {f.n})")
    tail, orbit = rho_walk(f.images, start)
    return RhoShape(tail, len(orbit) - tail, orbit)


def rho_walk(images: Sequence[int], start: int) -> tuple[int, tuple[int, ...]]:
    """``(tail, orbit)`` of start under the map given by its images, unchecked.

    ``orbit`` lists start, f(start), ... up to the first revisit, which is
    ``orbit[tail]``.
    """
    pos: dict[int, int] = {}
    seq: list[int] = []
    x = start
    while x not in pos:
        pos[x] = len(seq)
        seq.append(x)
        x = images[x]
    return pos[x], tuple(seq)


def tn_generators(n: int) -> list[TransFn]:
    """A fixed generating set of the monoid of all self-maps of {0..n-1}.

    n = 1: the identity alone; n = 2: the swap and the constant 0; n >= 3:
    the cyclic shift x -> x+1, the transposition of 0 and 1, and the
    rank-dropping map sending n-1 to 0 and fixing everything else.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return [identity(1)]
    if n == 2:
        return [TransFn((1, 0)), TransFn((0, 0))]
    cycle = TransFn(tuple((x + 1) % n for x in range(n)))
    swap01 = TransFn((1, 0) + tuple(range(2, n)))
    drop = TransFn(tuple(range(n - 1)) + (0,))
    return [cycle, swap01, drop]


_TOKEN_GROUP_RE = re.compile(r"\[([0-9]+(?:,[0-9]+)*)\]")
_TOKEN_RE = re.compile(r"(?:\[[0-9]+(?:,[0-9]+)*\])+")


def fn_token(ft: TransTuple) -> str:
    """Render a tuple as a letter token, e.g. ``[1,0][0,1,2]``."""
    return "".join("[" + ",".join(map(str, f.images)) + "]" for f in ft.components)


def token_fn(token: str) -> TransTuple:
    """Inverse of fn_token; raises ParseError on malformed tokens."""
    if not _TOKEN_RE.fullmatch(token):
        raise ParseError(f"malformed function token {token!r}")
    components = []
    for group in _TOKEN_GROUP_RE.findall(token):
        images = tuple(int(t) for t in group.split(","))
        if any(v >= len(images) for v in images):
            raise ParseError(f"malformed function token {token!r}: image out of range")
        components.append(TransFn(images))
    return TransTuple(tuple(components))


def fn_rank(f: TransFn) -> int:
    """Position of f in the lexicographic enumeration of all n^n maps."""
    r = 0
    for v in f.images:
        r = r * f.n + v
    return r


def fn_unrank(n: int, rank: int) -> TransFn:
    if not 0 <= rank < n**n:
        raise ValueError(f"rank {rank} outside [0, {n**n})")
    images = [0] * n
    for x in range(n - 1, -1, -1):
        rank, images[x] = divmod(rank, n)
    return TransFn(tuple(images))


@lru_cache(maxsize=None)
def all_fns(n: int) -> tuple[TransFn, ...]:
    """All self-maps of {0..n-1} in rank (lexicographic) order."""
    return tuple(TransFn(im) for im in itertools.product(range(n), repeat=n))


def tuple_space_size(sizes: Iterable[int]) -> int:
    return prod(n**n for n in sizes)


def tuple_space_within(sizes: Iterable[int], cap: int) -> int | None:
    """``tuple_space_size(sizes)`` if it is at most ``cap``, else None.

    The product grows one factor n at a time and stops once it passes
    ``cap``, so no power n**n past the cap is ever formed.
    """
    total = 1
    for n in sizes:
        for _ in range(n):
            total *= n
            if total > cap:
                return None
    return total


def tuple_space_text(sizes: Iterable[int]) -> str:
    """``tuple_space_size(sizes)`` in decimal for messages.

    Past the interpreter's int-to-str digit limit the count is written as
    a product of powers such as ``3000^3000``, which costs nothing to form.
    """
    sizes = tuple(sizes)
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    total = tuple_space_within(sizes, 10**digits - 1)
    return str(total) if total is not None else " * ".join(f"{n}^{n}" for n in sizes)


def tuple_rank(ft: TransTuple) -> int:
    """Mixed-radix rank of a tuple; consistent with all_tuples order."""
    r = 0
    for f in ft.components:
        r = r * f.n**f.n + fn_rank(f)
    return r


def tuple_unrank(sizes: tuple[int, ...], rank: int) -> TransTuple:
    total = tuple_space_size(sizes)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    parts: list[TransFn] = []
    for n in reversed(sizes):
        rank, r = divmod(rank, n**n)
        parts.append(fn_unrank(n, r))
    return TransTuple(tuple(reversed(parts)))


def all_tuples(sizes: tuple[int, ...]) -> Iterator[TransTuple]:
    """All tuples over the given sizes, in tuple_rank order."""
    for combo in itertools.product(*(all_fns(n) for n in sizes)):
        yield TransTuple(combo)
