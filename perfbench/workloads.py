"""The benchmark's workloads: set-up, one timed job, and the checks on its output.

Why each workload exists and which layers it exercises or bypasses is
written down in README.md beside this file.  Every input is made here
from the seed; the package under test only receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

MAXLEN = 6  # words checked per oracle case: all words up to this length
_ARGUMENT = re.compile(r"L(\d+)")
CATALOGUE_SEED = 5  # the oracle cases are one fixed draw; the run's seed renames them


def import_friendlyops(src: Path):
    """Import ``friendlyops`` and its CLI afresh from ``src``, never from elsewhere."""
    for name in [n for n in sys.modules if n == "friendlyops" or n.startswith("friendlyops.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    fo = importlib.import_module("friendlyops")
    cli = importlib.import_module("friendlyops.cli")
    if not Path(fo.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"friendlyops was imported from {fo.__file__}, not from {src}")
    return fo, cli


@dataclass
class Checks:
    """Correctness checks attempted and failed, with the first few failures spelled out."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)
        return ok


@contextlib.contextmanager
def capture(fo, got: dict):
    """Keep the DFA built and the DFA minimized inside ``sc_on_witness`` in ``got``."""
    ex = fo.experiments
    build, minimize = ex.build_standard, ex.minimize

    def keep_build(*args, **kwargs):
        got["built"] = build(*args, **kwargs)
        return got["built"]

    def keep_minimal(*args, **kwargs):
        got["minimal"] = minimize(*args, **kwargs)
        return got["minimal"]

    ex.build_standard, ex.minimize = keep_build, keep_minimal
    try:
        yield
    finally:
        ex.build_standard, ex.minimize = build, minimize


@dataclass(frozen=True)
class ScWorkload:
    """One ``sc_on_witness`` call on a generator monster per job.

    ``expr`` is an operation expression, or None for ``wheel`` of the
    sizes' arity.  The checks: every job returns the same row with the
    expected sc; on the last job, Hopcroft and Moore give the same
    automaton byte for byte, and the built and minimal automata agree with
    ``word_oracle`` on a seeded sample of words.
    """

    name: str
    expr: str | None
    sizes: tuple[int, ...]
    expected_states: int
    expected_sc: int
    sample_words: int = 400
    max_word_len: int = 16
    kind = "sc"

    def setup(self, fo, api, rng: random.Random, workdir: Path) -> dict:
        if self.expr is None:
            pred = fo.wheel_builtin(len(self.sizes))
        else:
            pred = fo.Compiled(fo.parse_expr(self.expr))
        dfas = api.monster(fo.MonsterSpec(self.sizes, "generators"))
        alphabet = dfas[0].alphabet
        words = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(0, self.max_word_len)))
            for _ in range(self.sample_words)
        ]
        return {
            "pred": pred,
            "dfas": dfas,
            "words": words,
            "size": {
                "sizes": list(self.sizes),
                "letters": len(alphabet),
                "states": self.expected_states,
                "sample_words": self.sample_words,
            },
        }

    def work(self, inputs: dict) -> int:
        """States built by one job."""
        return self.expected_states

    def job(self, api, inputs: dict):
        return api.sc_on_witness(inputs["pred"], self.sizes)

    def check_job(self, row, first, checks: Checks) -> None:
        checks.expect(
            row.sc == self.expected_sc and row.match is not False,
            f"{self.name}: sc {row.sc}, expected {self.expected_sc} (row {row})",
        )
        if first is not None:
            checks.expect(row == first, f"{self.name}: row {row} differs from the first job's {first}")

    def check_outputs(self, fo, inputs: dict, got: dict, checks: Checks) -> None:
        built, minimal = got.get("built"), got.get("minimal")
        if not checks.expect(built is not None and minimal is not None, f"{self.name}: no build seen"):
            return
        checks.expect(
            built.n_states == self.expected_states,
            f"{self.name}: built {built.n_states} states, expected {self.expected_states}",
        )
        moore = fo.minimize(built, "moore")
        checks.expect(
            fo.print_dfa(moore) == fo.print_dfa(minimal),
            f"{self.name}: Hopcroft and Moore results differ",
        )
        pred, dfas = inputs["pred"], inputs["dfas"]
        for word in inputs["words"]:
            want = fo.word_oracle(pred, dfas, word)
            checks.expect(
                fo.accepts(built, word) == want and fo.accepts(minimal, word) == want,
                f"{self.name}: automaton and word_oracle disagree on {' '.join(word) or '(empty word)'}",
            )


@dataclass(frozen=True)
class OracleCase:
    argv: tuple[str, ...]
    words: int


def random_expr_text(rng: random.Random, arity: int, depth: int) -> str:
    """A random expression on L1..L<arity>, drawn like criterion 05's ``random_expr``."""
    if depth <= 0 or rng.random() < 0.25:
        return f"L{rng.randint(1, arity)}"
    kind = rng.choice(("not", "and", "or", "xor", "rootm", "rootstar"))
    if kind == "not":
        return "!" + random_expr_text(rng, arity, depth - 1)
    if kind == "rootm":
        return f"root[{rng.randint(0, 3)}]({random_expr_text(rng, arity, depth - 1)})"
    if kind == "rootstar":
        return f"Root({random_expr_text(rng, arity, depth - 1)})"
    op = {"and": "&", "or": "|", "xor": "^"}[kind]
    left = random_expr_text(rng, arity, depth - 1)
    return f"({left} {op} {random_expr_text(rng, arity, depth - 1)})"


def random_dfa(rng: random.Random, n: int, letters: int) -> tuple:
    """A uniformly random complete DFA: (states, initial, finals, one row per letter)."""
    rows = [[rng.randrange(n) for _ in range(n)] for _ in range(letters)]
    finals = [q for q in range(n) if rng.random() < 0.5]
    return n, rng.randrange(n), finals, rows


def renamed(dfa: tuple, rng: random.Random, letters: list[int]) -> tuple:
    """The same automaton with its states renumbered at random and its rows in ``letters`` order."""
    n, initial, finals, rows = dfa
    perm = list(range(n))
    rng.shuffle(perm)
    old = sorted(range(n), key=perm.__getitem__)  # old[p] is the state renamed p
    rows = [[perm[rows[li][q]] for q in old] for li in letters]
    return n, perm[initial], sorted(perm[q] for q in finals), rows


def dfa_text(dfa: tuple, alphabet: str) -> str:
    """The ``dfa v1`` document of an automaton on the letters of ``alphabet``."""
    n, initial, finals, rows = dfa
    lines = [
        "dfa v1",
        "alphabet " + " ".join(alphabet),
        f"states {n}",
        f"initial {initial}",
        "final " + " ".join(map(str, finals)),
    ]
    lines += [f"trans {a}: " + " ".join(map(str, row)) for a, row in zip(alphabet, rows)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OracleSweep:
    """``friendlyops oracle`` run in-process on cases shaped like criterion 05.

    Each case is a random expression of arity 1-2 and depth 4 with one
    random DFA of 1-4 states per argument, over 1-3 letters; alphabet size
    and requested arity take turns, so every shape has the same number of
    cases.  The cases are one fixed draw (``CATALOGUE_SEED``).  The run's
    seed renumbers the states and reorders the letters of every automaton
    and shuffles the cases: each seed gets other input files and the same
    amount of work, since the work of a case depends on its expression and
    on its automata only up to isomorphism.  A case passes when the command
    exits 0 and reports agreement.
    """

    name: str
    cases: int
    kind = "oracle"

    def setup(self, fo, api, rng: random.Random, workdir: Path) -> dict:
        draw = random.Random(CATALOGUE_SEED)
        catalogue = []
        for i in range(self.cases):
            alphabet = "abc"[: 1 + i % 3]
            text = random_expr_text(draw, 1 + (i // 3) % 2, 4)
            arity = max(int(index) for index in _ARGUMENT.findall(text))
            dfas = [random_dfa(draw, draw.randint(1, 4), len(alphabet)) for _ in range(arity)]
            catalogue.append((text, alphabet, dfas))
        rng.shuffle(catalogue)
        cases = []
        for i, (text, alphabet, dfas) in enumerate(catalogue):
            # one letter order for all automata of a case, so they still read the same word
            letters = rng.sample(range(len(alphabet)), len(alphabet))
            argv = ["oracle", "--expr", text]
            for j, dfa in enumerate(dfas, start=1):
                path = workdir / f"case{i}-{j}.dfa"
                path.write_text(dfa_text(renamed(dfa, rng, letters), alphabet), encoding="utf-8")
                argv += ["--dfa", str(path)]
            argv += ["--maxlen", str(MAXLEN)]
            cases.append(OracleCase(tuple(argv), sum(len(alphabet) ** n for n in range(MAXLEN + 1))))
        return {
            "cases": cases,
            "size": {"cases": self.cases, "words": sum(c.words for c in cases), "maxlen": MAXLEN},
        }

    def work(self, inputs: dict) -> int:
        """Words checked by one pass."""
        return inputs["size"]["words"]

    def job(self, api, case: OracleCase) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api.cli_main(list(case.argv))
        return code, out.getvalue()

    def check_job(self, case: OracleCase, result: tuple[int, str], checks: Checks) -> None:
        code, text = result
        checks.expect(
            code == 0 and text == f"agreement on all words up to length {MAXLEN}\n",
            f"{self.name}: exit {code}, output {text.strip()!r} for {' '.join(case.argv)}",
        )


WORKLOADS = {
    w.name: w
    for w in (
        ScWorkload("mono-n6", None, (6,), expected_states=46656, expected_sc=46651),
        ScWorkload(
            "kary-3x3x3",
            "Root(L1 & L2) | root[2](L3)",
            (3, 3, 3),
            expected_states=19683,
            expected_sc=12312,
        ),
        OracleSweep("oracle-sweep", cases=60),
    )
}
