"""Spans and counters for the traced run, recorded around calls into each layer.

The benchmark does not edit the package: ``installed`` replaces, for the
duration of one traced phase, the module attributes through which one
layer calls the next (``experiments.build_standard``,
``modifiers.tuple_compose``, ``cli.word_oracle`` ...) with wrappers that
open a span, and puts the originals back afterwards.

Spans stay in memory and are written out when the run ends.  A root span
(one job) gets a record of its own.  Calls below it are folded into one
record per (parent record, layer): the record keeps the first start, the
last end, the number of calls and the summed duration.  Self times come
out the same as with one record per call, while a job of 140,000
compositions keeps a handful of records instead of 140,000.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from math import lcm
from pathlib import Path
from types import SimpleNamespace


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "calls", "busy", "child")

    def __init__(self, id: int, name: str, parent: int | None, run: str, start: float):
        self.id = id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = start
        self.end = start
        self.calls = 0
        self.busy = 0.0  # summed duration of the folded calls
        self.child = 0.0  # part of busy covered by direct children

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Span records folded per (parent, layer), and counters per run."""

    def __init__(self):
        self.records: list[Span] = []
        self.run = ""
        self._open: list[Span] = []
        self._folded: dict[tuple[int, str], Span] = {}
        self.counts: dict[tuple[str, str], float] = {}
        self.distinct: dict[tuple[str, int], set] = {}

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span named ``name``; ``after(args, result)`` runs on return."""
        clock = time.perf_counter
        stack = self._open
        folded = self._folded

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                rec = folded.get((parent.id, name))
                if rec is None:
                    rec = folded[(parent.id, name)] = self._new(name, parent.id, clock())
            else:
                parent = None
                rec = self._new(name, None, clock())
            stack.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec.calls += 1
                rec.busy += t1 - t0
                rec.end = t1
                if parent is not None:
                    parent.child += t1 - t0
            if after is not None:
                after(args, result)
            return result

        return traced

    def _new(self, name: str, parent: int | None, start: float) -> Span:
        rec = Span(len(self.records), name, parent, self.run, start)
        self.records.append(rec)
        return rec

    def add(self, name: str, value: float) -> None:
        key = (self.run, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, name: str, value: float) -> None:
        key = (self.run, name)
        self.counts[key] = max(self.counts.get(key, value), value)

    def see(self, name: str, value) -> None:
        """Remember ``value`` among the distinct values of ``name`` in the current job."""
        root = self._open[0].id if self._open else -1
        self.distinct.setdefault((name, root), set()).add(value)

    def in_run(self, run: str) -> list[Span]:
        return [r for r in self.records if r.run == run]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for rec in self.records:
                out.write(json.dumps(rec.as_dict()) + "\n")
            for (run, name), value in sorted(self.counts.items()):
                out.write(json.dumps({"run": run, "count": name, "value": value}) + "\n")


def plain_api(fo, cli) -> SimpleNamespace:
    """The entry points the workloads call, untraced."""
    return SimpleNamespace(monster=fo.monster, sc_on_witness=fo.sc_on_witness, cli_main=cli.main)


@contextmanager
def installed(tracer: Tracer, fo, cli, run: str):
    """Trace one phase: yields the traced entry points and restores every module after."""
    ex, mod, fr, au = fo.experiments, fo.modifiers, fo.friendly, fo.automata
    wrap = tracer.wrap
    tracer.run = run

    def built(args, result):
        tracer.add("modifiers.states", result.n_states)

    def built_detailed(args, result):
        tracer.add("modifiers.states", result.dfa.n_states)

    def minimized(args, result):
        tracer.add("automata.states_in", args[0].n_states)
        tracer.add("automata.classes", result.n_states)

    def chi_seen(args, result):
        tracer.see("upseq.char_tuple", result)

    root_star = fr.RootStar
    eval_expr = fr.eval_expr

    def probe_root_scan(e, chi, **kwargs):
        # The scan length eval_expr uses for Root: longest prefix plus lcm of periods.
        if type(e) is root_star:
            comps = chi.components
            tracer.maximum(
                "friendly.root_scan_max",
                max(len(u.prefix) for u in comps) + lcm(*(len(u.period) for u in comps)),
            )
        return eval_expr(e, chi, **kwargs)

    monster = wrap("monsters", fo.monster)
    compose = wrap("transforms.compose", fo.transforms.tuple_compose)
    chi = wrap("upseq.char_tuple", fo.upseq.char_tuple, chi_seen)
    evaluate = wrap("friendly.eval", fr.eval_pred)
    patches = [
        (ex, "monster", monster),
        (ex, "build_standard", wrap("modifiers.build", ex.build_standard, built)),
        (ex, "minimize", wrap("automata.minimize", ex.minimize, minimized)),
        (au, "accessible_part", wrap("automata.accessible", au.accessible_part)),
        (cli, "build_standard_detailed", wrap("modifiers.build", cli.build_standard_detailed, built_detailed)),
        (cli, "word_oracle", wrap("friendly.oracle", cli.word_oracle)),
        (mod, "tuple_compose", compose),
        (fr, "tuple_compose", compose),
        (mod, "char_tuple", chi),
        (fr, "char_tuple", chi),
        (mod, "eval_pred", evaluate),
        (fr, "eval_pred", evaluate),
        (fr, "eval_expr", probe_root_scan),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, fn in patches:
        setattr(module, attr, fn)
    try:
        yield SimpleNamespace(
            monster=monster,
            sc_on_witness=wrap("experiments.sc", fo.sc_on_witness),
            cli_main=wrap("cli", cli.main),
        )
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, run: str) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    recs = tracer.in_run(run)

    def busy(name: str) -> float:
        return sum(r.busy for r in recs if r.name == name)

    def self_time(name: str) -> float:
        return sum(r.self_time for r in recs if r.name == name)

    def calls(name: str) -> int:
        return sum(r.calls for r in recs if r.name == name)

    def count(name: str) -> float:
        return tracer.counts.get((run, name), 0)

    roots = {r.id for r in recs if r.parent is None}
    distinct = sum(len(tracer.distinct.pop(key)) for key in list(tracer.distinct) if key[1] in roots)
    chi_calls = calls("upseq.char_tuple")
    return {
        "transforms.compose_calls": calls("transforms.compose"),
        "transforms.time_s": busy("transforms.compose"),
        "upseq.char_tuple_calls": chi_calls,
        "upseq.time_s": busy("upseq.char_tuple"),
        "upseq.distinct_ratio": distinct / chi_calls if chi_calls else 0.0,
        "friendly.eval_calls": calls("friendly.eval"),
        "friendly.eval_s": busy("friendly.eval"),
        "friendly.oracle_calls": calls("friendly.oracle"),
        "friendly.oracle_s": busy("friendly.oracle"),
        "friendly.root_scan_max": count("friendly.root_scan_max"),
        "modifiers.build_s": busy("modifiers.build"),
        "modifiers.self_s": self_time("modifiers.build"),
        "modifiers.states": count("modifiers.states"),
        "automata.minimize_s": busy("automata.minimize"),
        "automata.accessible_s": busy("automata.accessible"),
        # accessible_part is the only traced call inside minimize
        "automata.partition_s": self_time("automata.minimize"),
        "automata.states_in": count("automata.states_in"),
        "automata.classes": count("automata.classes"),
        "experiments.sc_s": busy("experiments.sc"),
        "cli.self_s": self_time("cli"),
    }


def self_time_sum(tracer: Tracer, run: str) -> float:
    """Sum of self times over every record of one pass."""
    return sum(r.self_time for r in tracer.in_run(run))


COUNT_METRICS = (
    "transforms.compose_calls",
    "upseq.char_tuple_calls",
    "upseq.distinct_ratio",
    "friendly.eval_calls",
    "friendly.oracle_calls",
    "friendly.root_scan_max",
    "modifiers.states",
    "automata.states_in",
    "automata.classes",
)


def unit(name: str) -> str:
    if name == "upseq.distinct_ratio":
        return "ratio"
    return "count" if name in COUNT_METRICS else "s"


def summarize(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timing over traced passes; counts must agree across passes.

    Returns the figures and the names of counts that differed between passes.
    """
    out: dict[str, float] = {}
    unstable = []
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                unstable.append(name)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, unstable
