"""State-complexity measurements and structural audits on witnesses.

Every randomized routine takes an explicit seed and records it in its
report, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from typing import Sequence

from .automata import Dfa, minimize, nerode_partition
from .friendly import (
    And,
    Arg,
    Compiled,
    EPredicate,
    Explicit,
    Not,
    OpExpr,
    Or,
    RootM,
    RootStar,
    Wheel,
    Xor,
    format_expr,
    wheel_builtin,
)
from .modifiers import DEFAULT_MAX_STATES, build_standard, build_standard_detailed, check_transitions
from .monsters import MonsterSpec, letter_count, monster
from .transforms import tuple_rank, TransFn, TransTuple
from .upseq import CharTuple, UPSeq


@dataclass(frozen=True)
class ScRow:
    """One measured state complexity, with the closed-form value if known."""

    op_name: str
    sizes: tuple[int, ...]
    sc: int
    predicted: int | None
    match: bool | None

    def __post_init__(self) -> None:
        if self.sc < 1:
            raise ValueError("state complexity is at least 1")
        if (self.predicted is None) != (self.match is None):
            raise ValueError("match must accompany a predicted value")
        if self.predicted is not None and self.match != (self.sc == self.predicted):
            raise ValueError("match flag inconsistent with measured/predicted")


@dataclass(frozen=True)
class BoundAuditReport:
    """Outcome of randomized upper-bound trials at one input size."""

    n: int
    trials: int
    seed: int
    bound: int
    max_sc: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class DistinguishabilityReport:
    """Nerode-class census of the wheel build on a monster."""

    n: int
    total_classes: int
    expected_classes: int
    constant_class_sizes: tuple[int, ...]
    nonconstant_all_singletons: bool

    @property
    def ok(self) -> bool:
        return (
            self.total_classes == self.expected_classes
            and self.constant_class_sizes == (self.n,)
            and self.nonconstant_all_singletons
        )


_SQRT_EXPR = RootM(2, Arg(1))


def predicted_sc(pred: EPredicate, sizes: Sequence[int]) -> int | None:
    """Closed-form worst case on monsters, for the predicates that have one.

    A closed form is claimed only where the monster is a witness.  A
    monster coordinate of size 1 accepts every word, so its characteristic
    sequence is the constant (1) and ``wheel k``, k >= 2, holds on no
    tuple: those sizes get None.
    """
    if isinstance(pred, Compiled) and isinstance(pred.expr, Wheel):
        if pred.arity == 1:
            n = sizes[0]
            return n**n - n + 1
        if 1 in sizes:
            return None
        return prod(n**n for n in sizes)
    if isinstance(pred, Compiled) and pred.expr == _SQRT_EXPR:
        n = sizes[0]
        return n**n - n * (n - 1) // 2
    return None


def pred_name(pred: EPredicate) -> str:
    if isinstance(pred, Compiled):
        return format_expr(pred.expr)
    return f"eset-k{pred.arity}-m{len(pred.tuples)}"


def sc_on_witness(
    pred: EPredicate,
    sizes: Sequence[int],
    alphabet_kind: str = "generators",
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> ScRow:
    """Measure the state complexity of the operation on a monster witness.

    ``max_states`` caps both the monster's letters and the built states.
    Each of the n distinct letters is one step from the identity, so the
    build reaches at least n tuples; when n tuples times n letters pass
    the transition cap, the build's refusal is raised before any letter
    is made.
    """
    if pred.arity != len(sizes):
        raise ValueError(f"arity mismatch: {len(sizes)} sizes, predicate needs {pred.arity}")
    spec = MonsterSpec(tuple(sizes), alphabet_kind)
    n_letters = letter_count(spec, max_letters=max_states)
    check_transitions(n_letters, n_letters, max_states)
    dfas = monster(spec, max_letters=max_states)
    built = build_standard(pred, dfas, "accessible", max_states=max_states)
    sc = minimize(built).n_states
    predicted = predicted_sc(pred, sizes)
    return ScRow(
        pred_name(pred),
        tuple(sizes),
        sc,
        predicted,
        None if predicted is None else sc == predicted,
    )


def random_dfa(
    rng: random.Random,
    n: int,
    alphabet: Sequence[str],
    *,
    initial_nonfinal: bool = False,
) -> Dfa:
    """A uniformly random complete DFA on the given states and letters."""
    rows = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in alphabet)
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    initial = rng.randrange(n)
    if initial_nonfinal:
        finals -= {initial}
    return Dfa(tuple(alphabet), n, initial, finals, rows)


def random_upseq(rng: random.Random) -> UPSeq:
    """A random sequence with a prefix of 0-3 bits and a period of 1-4 bits."""
    prefix = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
    period = tuple(rng.randrange(2) for _ in range(rng.randint(1, 4)))
    return UPSeq(prefix, period)


def random_char_tuple(rng: random.Random, k: int) -> CharTuple:
    return CharTuple(tuple(random_upseq(rng) for _ in range(k)))


def random_expr(rng: random.Random, arity: int, depth: int) -> OpExpr:
    """A random expression using arguments 1..arity, nesting at most depth."""
    if depth <= 0 or rng.random() < 0.25:
        return Arg(rng.randint(1, arity))
    kind = rng.choice(("not", "and", "or", "xor", "rootm", "rootstar"))
    if kind == "not":
        return Not(random_expr(rng, arity, depth - 1))
    if kind == "rootm":
        return RootM(rng.randint(0, 3), random_expr(rng, arity, depth - 1))
    if kind == "rootstar":
        return RootStar(random_expr(rng, arity, depth - 1))
    node = {"and": And, "or": Or, "xor": Xor}[kind]
    return node(random_expr(rng, arity, depth - 1), random_expr(rng, arity, depth - 1))


def random_predicate(rng: random.Random, arity: int) -> EPredicate:
    """Either a random explicit tuple set or a random compiled expression of depth at most 3."""
    if rng.random() < 0.5:
        size = rng.randint(0, 3)
        return Explicit(tuple(dict.fromkeys(random_char_tuple(rng, arity) for _ in range(size))), arity)
    return Compiled(random_expr(rng, arity, 3))


def unary_bound_audit(trials: int, n: int, seed: int) -> BoundAuditReport:
    """Check random unary predicates against the n^n - n + 1 ceiling.

    Each trial draws a predicate and a random n-state DFA, builds the
    standard automaton and minimizes it; exceeding the ceiling is recorded
    as a violation, never raised.
    """
    rng = random.Random(seed)
    bound = n**n - n + 1
    max_sc = 0
    violations = []
    for t in range(trials):
        pred = random_predicate(rng, 1)
        alphabet = tuple("abc"[: rng.randint(1, 3)])
        dfa = random_dfa(rng, n, alphabet)
        sc = minimize(build_standard(pred, (dfa,))).n_states
        max_sc = max(max_sc, sc)
        if sc > bound:
            violations.append(f"trial {t}: {pred_name(pred)} reached {sc} > {bound}")
    return BoundAuditReport(n, trials, seed, bound, max_sc, tuple(violations))


def gst_class_audit(pred: EPredicate, dfa: Dfa) -> int:
    """Count Nerode classes among the final-set collapse maps.

    The audited maps send every final state of the input to one point s
    and every other state to one point t.  In the full standard build
    their n^2 instances must fall into at most n^2 - n + 1 classes.
    """
    if pred.arity != 1:
        raise ValueError("the audit is unary")
    build = build_standard_detailed(pred, (dfa,), "full")
    part = nerode_partition(build.dfa)
    n = dfa.n_states
    classes = set()
    for s in range(n):
        for t in range(n):
            g = TransFn(tuple(s if q in dfa.finals else t for q in range(n)))
            classes.add(part[tuple_rank(TransTuple((g,)))])
    return len(classes)


def distinguishability_audit(n: int) -> DistinguishabilityReport:
    """Census of Nerode classes of the wheel build on the size-n monster.

    The expected picture: the n constant maps share one class and every
    other map is alone in its class, for n^n - n + 1 classes in total.
    """
    dfas = monster(MonsterSpec((n,), "generators"))
    build = build_standard_detailed(wheel_builtin(1), dfas, "accessible")
    part = nerode_partition(build.dfa)
    members: dict[int, list[int]] = {}
    for sid, cls in enumerate(part):
        members.setdefault(cls, []).append(sid)
    constant_classes = {part[sid] for sid, t in enumerate(build.states) if t.components[0].is_constant()}
    constant_sizes = tuple(sorted(len(members[c]) for c in constant_classes))
    singletons = all(
        len(members[part[sid]]) == 1
        for sid, t in enumerate(build.states)
        if not t.components[0].is_constant()
    )
    return DistinguishabilityReport(n, len(members), n**n - n + 1, constant_sizes, singletons)


def _format_sizes(sizes: tuple[int, ...]) -> str:
    return "x".join(map(str, sizes))


def sc_table(rows: Sequence[ScRow], fmt: str = "csv") -> str:
    """Render measurement rows as CSV or a Markdown table, in input order."""
    if fmt not in ("csv", "md"):
        raise ValueError(f"unknown format {fmt!r}")
    cells = [
        (
            row.op_name,
            _format_sizes(row.sizes),
            str(row.sc),
            "" if row.predicted is None else str(row.predicted),
            "" if row.match is None else ("true" if row.match else "false"),
        )
        for row in rows
    ]
    header = ("op", "sizes", "sc", "predicted", "match")
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(c) for c in cells]
        return "\n".join(lines) + "\n"
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(c) + " |" for c in cells]
    return "\n".join(lines) + "\n"
