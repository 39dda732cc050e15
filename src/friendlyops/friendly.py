"""The operation-expression language and decidable predicates over it.

Expressions combine language arguments with boolean connectives, fixed
roots ``root[m]`` (membership of the m-th power) and the infinitary
``Root`` (some positive power is a member), plus the ``wheel k`` atom,
the witness predicate of the tight bound.  An ``EPredicate`` is the
decidable stand-in for a set of characteristic tuples: an explicit finite
set or a compiled expression.

Evaluation reads a word's ``CharTuple`` by exponent: bit p of component j
is [w^p in L_j], so asking whether w^power is in an expression's language
makes ``Lj`` read bit ``power`` (a word is its own first power), makes
``root[m]`` ask about w^(power*m), and leaves the tuple as it is.  Only
``wheel k`` and ``Root`` read the tuple of w^power itself, which is
``scale_tuple(chi, power)``.  ``Root`` scans exponents 1 .. A+C of w^power,
where A is that tuple's longest component prefix and C the lcm of its
periods: past A its bits repeat with period C, so every larger exponent
behaves as the one C lower.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Sequence, Union

from .automata import Dfa
from .errors import CapExceeded, ParseError
from .transforms import TransFn, TransTuple, shared_alphabet
# Not called here; perfbench's traced runs wrap friendly.tuple_compose by name.
from .transforms import tuple_compose  # noqa: F401
from .upseq import ZERO, ZERO_ONE, CharTuple, at, char_tuple, parse_eset, scale_tuple

DEFAULT_SCAN_CAP = 10**6


@dataclass(frozen=True)
class Arg:
    index: int  # 1-based language argument


@dataclass(frozen=True)
class Not:
    inner: "OpExpr"


@dataclass(frozen=True)
class And:
    left: "OpExpr"
    right: "OpExpr"


@dataclass(frozen=True)
class Or:
    left: "OpExpr"
    right: "OpExpr"


@dataclass(frozen=True)
class Xor:
    left: "OpExpr"
    right: "OpExpr"


@dataclass(frozen=True)
class RootM:
    m: int  # m >= 0
    inner: "OpExpr"


@dataclass(frozen=True)
class RootStar:
    inner: "OpExpr"


@dataclass(frozen=True)
class Wheel:
    k: int  # built-in wheel predicate on arguments 1..k


OpExpr = Union[Arg, Not, And, Or, Xor, RootM, RootStar, Wheel]


def expr_arity(e: OpExpr) -> int:
    """Highest argument index appearing in the expression."""
    if isinstance(e, Arg):
        return e.index
    if isinstance(e, Wheel):
        return e.k
    if isinstance(e, Not):
        return expr_arity(e.inner)
    if isinstance(e, (RootM, RootStar)):
        return expr_arity(e.inner)
    return max(expr_arity(e.left), expr_arity(e.right))


def format_expr(e: OpExpr) -> str:
    """Deterministic, re-parseable rendering (binaries fully parenthesized)."""
    if isinstance(e, Arg):
        return f"L{e.index}"
    if isinstance(e, Wheel):
        return f"wheel {e.k}"
    if isinstance(e, Not):
        return f"!{format_expr(e.inner)}"
    if isinstance(e, RootM):
        return f"root[{e.m}]({format_expr(e.inner)})"
    if isinstance(e, RootStar):
        return f"Root({format_expr(e.inner)})"
    op = {And: "&", Or: "|", Xor: "^"}[type(e)]
    return f"({format_expr(e.left)} {op} {format_expr(e.right)})"


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<word>[A-Za-z]+)|(?P<sym>[!&^|()\[\]]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at_pos = len(text) - len(stripped)
            raise ParseError(f"syntax error at position {at_pos}: unexpected character {stripped[0]!r}")
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


MAX_EXPR_DEPTH = 64

# binary operator -> (precedence, node); all associate to the left
_BINARY = {"|": (1, Or), "^": (2, Xor), "&": (3, And)}


class _Parser:
    """Precedence climbing over the token list.

    Every parse method returns the subtree with its depth (the number of
    nodes above a leaf on the longest path).  That depth and ``nesting``,
    the brackets currently open, both stay within MAX_EXPR_DEPTH, so
    neither the parser nor the recursive walks over the tree it returns can
    exhaust the stack; format_expr output nests no deeper than its tree.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"syntax error at position {len(self.text)}: unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"syntax error at position {tok[2]}: expected {want!r}, got {tok[1]!r}")
        return tok

    def level(self, depth: int, pos: int) -> int:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(f"syntax error at position {pos}: expression nested deeper than {MAX_EXPR_DEPTH}")
        return depth

    def parse(self) -> OpExpr:
        e, _ = self.binary(1)
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"syntax error at position {tok[2]}: unexpected {tok[1]!r}")
        return e

    def binary(self, min_prec: int) -> tuple[OpExpr, int]:
        e, depth = self.not_expr()
        while (tok := self.peek()) is not None and _BINARY.get(tok[1], (0,))[0] >= min_prec:
            prec, node = _BINARY[tok[1]]
            self.take()
            right, rdepth = self.binary(prec + 1)
            e, depth = node(e, right), self.level(max(depth, rdepth) + 1, tok[2])
        return e, depth

    def bracketed(self, pos: int) -> tuple[OpExpr, int]:
        """The expression up to the ')' closing the bracket opened at pos."""
        self.nesting = self.level(self.nesting + 1, pos)
        e = self.binary(1)
        self.expect("sym", ")")
        self.nesting -= 1
        return e

    def not_expr(self) -> tuple[OpExpr, int]:
        bangs = []
        while (tok := self.peek()) is not None and tok[1] == "!":
            bangs.append(self.take()[2])
        e, depth = self.atom()
        for pos in reversed(bangs):
            e, depth = Not(e), self.level(depth + 1, pos)
        return e, depth

    def atom(self) -> tuple[OpExpr, int]:
        kind, value, pos = self.take()
        if value == "(":
            return self.bracketed(pos)
        if kind == "word" and value == "L":
            itok = self.expect("int")
            index = int(itok[1])
            if index == 0:
                raise ParseError(f"syntax error at position {itok[2]}: argument index 0")
            return Arg(index), 0
        if kind == "word" and value == "root":
            self.expect("sym", "[")
            m = int(self.expect("int")[1])
            self.expect("sym", "]")
            self.expect("sym", "(")
            e, depth = self.bracketed(pos)
            return RootM(m, e), self.level(depth + 1, pos)
        if kind == "word" and value == "Root":
            self.expect("sym", "(")
            e, depth = self.bracketed(pos)
            return RootStar(e), self.level(depth + 1, pos)
        if kind == "word" and value == "wheel":
            ktok = self.expect("int")
            k = int(ktok[1])
            if k == 0:
                raise ParseError(f"syntax error at position {ktok[2]}: wheel arity 0")
            return Wheel(k), 0
        raise ParseError(f"syntax error at position {pos}: unexpected {value!r}")


def parse_expr(text: str) -> OpExpr:
    """Parse an operation expression (precedence ! > & > ^ > |).

    Expressions deeper than MAX_EXPR_DEPTH levels raise ParseError.
    """
    return _Parser(text).parse()


@dataclass(frozen=True)
class Explicit:
    """Membership in an explicit finite set of characteristic tuples."""

    tuples: tuple[CharTuple, ...]
    arity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "tuples", tuple(self.tuples))
        if self.arity < 1:
            raise ValueError("arity must be positive")
        for chi in self.tuples:
            if chi.arity != self.arity:
                raise ValueError(f"tuple arity {chi.arity} != predicate arity {self.arity}")


@dataclass(frozen=True)
class Compiled:
    """A predicate compiled from an operation expression."""

    expr: OpExpr

    @cached_property
    def arity(self) -> int:
        return expr_arity(self.expr)


EPredicate = Union[Explicit, Compiled]


def wheel_builtin(k: int) -> Compiled:
    """The wheel predicate ``wheel k``: every component constant-0 or 0-then-1.

    For k = 1 that is the whole condition; for k >= 2 the all-zero tuple
    is excluded.
    """
    if k < 1:
        raise ValueError("wheel arity must be positive")
    return Compiled(Wheel(k))


def _wheel_member(components: Sequence) -> bool:
    if not all(u in (ZERO, ZERO_ONE) for u in components):
        return False
    if len(components) == 1:
        return True
    return any(u != ZERO for u in components)


def eval_expr(e: OpExpr, chi: CharTuple, *, power: int = 1) -> bool:
    """Whether w^power is in e's language, for a word w whose characteristic tuple is chi.

    ``Lj`` reads bit ``power`` of component j and ``root[m]`` asks about w^(power*m); neither
    rescales chi.  ``wheel k`` and ``Root`` read the tuple of w^power, ``scale_tuple(chi, power)``.
    Past its longest prefix A its bits repeat with the lcm C of its periods, so the tuple of
    (w^power)^p equals that of (w^power)^(p-C) for p > A+C, and ``Root`` scans p in 1..A+C.
    """
    if isinstance(e, Arg):
        return at(chi.components[e.index - 1], power) == 1
    if isinstance(e, Not):
        return not eval_expr(e.inner, chi, power=power)
    if isinstance(e, And):
        return eval_expr(e.left, chi, power=power) and eval_expr(e.right, chi, power=power)
    if isinstance(e, Or):
        return eval_expr(e.left, chi, power=power) or eval_expr(e.right, chi, power=power)
    if isinstance(e, Xor):
        return eval_expr(e.left, chi, power=power) != eval_expr(e.right, chi, power=power)
    if isinstance(e, RootM):
        return eval_expr(e.inner, chi, power=power * e.m)
    if not isinstance(e, (Wheel, RootStar)):
        raise TypeError(f"not an expression node: {e!r}")
    comps = (chi if power == 1 else scale_tuple(chi, power)).components
    if isinstance(e, Wheel):
        return _wheel_member(comps[: e.k])
    if (bound := max(len(u.prefix) for u in comps) + lcm(*(len(u.period) for u in comps))) > DEFAULT_SCAN_CAP:
        raise CapExceeded(f"Root scan bound {bound} exceeds cap {DEFAULT_SCAN_CAP}")
    return any(eval_expr(e.inner, chi, power=power * p) for p in range(1, bound + 1))


def eval_pred(pred: EPredicate, chi: CharTuple) -> bool:
    """Membership of a characteristic tuple in the predicate's set."""
    if chi.arity != pred.arity:
        raise ValueError(f"arity mismatch: tuple has {chi.arity}, predicate needs {pred.arity}")
    if isinstance(pred, Explicit):
        return chi in pred.tuples
    if isinstance(pred, Compiled):
        return eval_expr(pred.expr, chi)
    raise TypeError(f"not a predicate: {pred!r}")


def word_oracle(pred: EPredicate, dfas: Sequence[Dfa], word: Sequence[str], *, memo: dict | None = None) -> bool:
    """Direct word-membership test for the operation named by ``pred``.

    Folds the word into one transition function per input automaton and
    evaluates the predicate on the resulting characteristic tuple.  This
    is the reference semantics that DFA constructions are checked against.
    The inputs are validated automata, so the fold composes the plain
    images of their rows; the folded maps become one ``TransTuple`` only
    for ``char_tuple``.

    Letters are read through the index that the first automaton keeps
    (``Dfa._letter_ids``, as ``accepts`` does); ``shared_alphabet`` first
    checks that every input reads the same alphabet, so that index fits
    them all.

    ``memo`` maps each folded key met so far (one image tuple per input)
    to its record ``[succ_0, ..., succ_{L-1}, key, verdict]``: one slot per
    letter index for the record of the map one letter further on, then the
    key, then the verdict, each ``None`` until first needed.  A word starts
    at the identity map's record and follows successor references; only a
    missing successor is folded, once.  The identity map's record is made
    before any step, so it is the first record a memo ever receives, and a
    non-empty memo's first record (dicts keep insertion order) is the
    start; the identity key is built only for an empty memo.  So, across
    the calls that share a memo, the fold runs once per (distinct folded
    map, letter) and ``char_tuple`` once per distinct folded map.  Without
    a memo the call uses a fresh one of its own.  The arity, alphabet and
    letter checks run on every call before the memo is read, so every
    refusal is raised whatever the memo holds and leaves it unchanged.  A
    memo belongs to exactly one ``(pred, dfas)`` pair.  Each key is a state
    of the accessible standard build of that pair, so the memo holds at
    most that build's number of states, each with at most one successor
    per letter.
    """
    if pred.arity != len(dfas):
        raise ValueError(f"arity mismatch: {len(dfas)} automata, predicate needs {pred.arity}")
    shared_alphabet(dfas)
    index = dfas[0]._letter_ids
    letters = list(map(index.get, word))
    if None in letters:
        raise ValueError(f"unknown letter {word[letters.index(None)]!r}")
    n_letters = len(index)
    if memo is None:
        memo = {}
    if memo:
        rec = next(iter(memo.values()))
    else:
        rec = _record(memo, tuple(tuple(range(d.n_states)) for d in dfas), n_letters)
    for li in letters:
        succ = rec[li]
        if succ is None:
            # one itemgetter reads a map's images under the letter; a one-point map's is read itself
            key = tuple(
                operator.itemgetter(*f)(d.trans[li]) if len(f) > 1 else (d.trans[li][f[0]],)
                for d, f in zip(dfas, rec[-2])
            )
            succ = rec[li] = _record(memo, key, n_letters)
        rec = succ
    if rec[-1] is None:
        ft = TransTuple(tuple(map(TransFn, rec[-2])))
        chi = char_tuple(ft, [d.initial for d in dfas], [d.finals for d in dfas])
        rec[-1] = eval_pred(pred, chi)
    return rec[-1]


def _record(memo: dict, key: tuple, n_letters: int) -> list:
    """The memo record of a folded key, made on first use (see ``word_oracle``)."""
    rec = memo.get(key)
    if rec is None:
        rec = memo[key] = [None] * n_letters + [key, None]
    return rec


def explicit_from_file(text: str) -> Explicit:
    """Load an "eset v1" document into an Explicit predicate.

    Tuples are canonical by construction; duplicate lines collapse,
    keeping first-occurrence order.
    """
    k, tuples = parse_eset(text)
    return Explicit(tuple(dict.fromkeys(tuples)), k)
