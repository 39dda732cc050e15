"""Property test of the CLI exit-code contract over generated command lines.

Every command line, well formed or not, must end with exit 0, 1, 2 or 3
(argparse's own exits count), print no traceback, and on exit 2 or 3
print exactly one ``error:`` line.  The strategies draw the real
subcommands and flags, the size grammar, expressions (valid, malformed
and deeper than the parser's limit of 64), ``dfa v1`` and ``eset v1``
files (valid and broken) and caps down to ``--max-states 1``.  Sizes are
bounded so that every example ends well under a second: under a large
cap no witness has more than 729 reachable tuples or 27 full-alphabet
letters, and larger sizes are only asked for under a cap of at most 1000.

Two further tests run the CLI in a subprocess whose address space is
limited to about 1.5 GB: the size of a monster witness and the length of
a size range once grew with the request, not with the cap.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import friendlyops
from friendlyops.cli import main

DFA_FILES = {
    "fig1.dfa": "dfa v1\nalphabet a b\nstates 2\ninitial 0\nfinal 1\ntrans a: 1 0\ntrans b: 1 1\n",
    "fig3.dfa": "dfa v1\nalphabet a b\nstates 2\ninitial 0\nfinal 0\ntrans a: 1 0\ntrans b: 1 1\n",
    "three.dfa": "dfa v1\nalphabet a b\nstates 3\ninitial 0\nfinal 2\ntrans a: 1 2 0\ntrans b: 0 0 2\n",
    "one.dfa": "dfa v1\nalphabet a b\nstates 1\ninitial 0\nfinal\ntrans a: 0\ntrans b: 0\n",
    "unary.dfa": "dfa v1\nalphabet x\nstates 3\ninitial 0\nfinal 0 2\ntrans x: 1 2 1\n",
    "empty-alphabet.dfa": "dfa v1\nalphabet\nstates 2\ninitial 1\nfinal 0\n",
    "bad-image.dfa": "dfa v1\nalphabet a\nstates 2\ninitial 0\nfinal\ntrans a: 2 0\n",
    "bad-int.dfa": "dfa v1\nalphabet a\nstates --2\ninitial 0\nfinal\ntrans a: 0 0\n",
    "bad-digit.dfa": "dfa v1\nalphabet a\nstates \u0662\ninitial 0\nfinal\ntrans a: 0 0\n",
    "missing-row.dfa": "dfa v1\nalphabet a b\nstates 1\ninitial 0\nfinal 0\ntrans a: 0\n",
    "bad-header.dfa": "dfa v2\n",
    "empty.dfa": "",
}
ESET_FILES = {
    "wheel.eset": "eset v1 k=1\n(0)\n0(1)\n",
    "pair.eset": "eset v1 k=2\n(0),(01)\n0(1),(1)\n",
    "none.eset": "eset v1 k=1\n",
    "bad-arity.eset": "eset v1 k=-1\n",
    "bad-literal.eset": "eset v1 k=1\nnope\n",
    "bad-components.eset": "eset v1 k=1\n(0),(1)\n",
    "bad-header.eset": "eset v9 k=1\n",
}

# Valid expressions by arity, then malformed or too deep ones.
EXPRESSIONS = {
    1: ["L1", "!L1", "root[2](L1)", "root[0](L1)", "Root(L1)", "wheel 1", "(root[3](L1) | L1) & !L1",
        "!" * 64 + "L1", "(" * 64 + "L1" + ")" * 64, " & ".join(["L1"] * 65)],
    2: ["L1 & L2", "wheel 2", "Root(L1 & L2)", "L2 ^ root[2](L1)"],
    3: ["Root(L1 & L2) | root[2](L3)", "L1 ^ L2 | L3", "wheel 3"],
}
BAD_EXPRESSIONS = [
    "!" * 65 + "L1", "(" * 70 + "L1" + ")" * 70, "root[1](" * 80 + "L1" + ")" * 80, " & ".join(["L1"] * 300),
    "L1 &", "root[](L1)", "((L1)", "L0", "", "wheel", "wheel 0", "root[2](L1", "L\u0661", "L1 $ L2", "Root()",
    "root[-1](L1)",
]
ESETS = {1: ["wheel.eset", "none.eset"], 2: ["pair.eset"], 3: []}
DFAS = ["fig1.dfa", "fig3.dfa", "three.dfa", "one.dfa"]
BAD_FILES = [name for name in sorted(DFA_FILES) + sorted(ESET_FILES) if name not in DFAS]
UNREADABLE = ["missing.dfa", "out"]
BAD_INTEGERS = ["-1", "-0", "+2", "x", "", " 2", "\u0661", "1_0", "99999999999999999999"]
CAPS = ["1", "2", "3", "5", "30", "100", "1000"]
# Under a large cap every entry builds at most 729 states, and a full alphabet has at most 27 letters.
SIZES = {1: ["1", "2", "3", "4", "1..3", "2..4", "4..4"], 2: ["2x2", "2x3", "1x2", "3x3"], 3: ["2x2x2", "1x2x2", "1x1x1"]}
FULL_SIZES = {1: ["1", "2", "3", "1..3"], 2: ["2x2", "1x2"], 3: ["1x1x2", "1x1x1"]}
# Under a cap of at most 1000 a build stops at the cap, so larger sizes may be asked for.  The sizes
# whose refusal once needed gigabytes are left to the address-space-limited tests below.
LARGE_SIZES = {1: ["4", "5", "6", "7", "300", "3400", "1..100"], 2: ["5x5", "3x4"], 3: ["3x3x3", "6x6x6"]}
BAD_SIZES = ["", "0", "5..2", "x", "2x", "2..", "..3", "2..5,x", "\u0662..3", "2x\u0663", "1_0", "+2", "-1", "2,,3"]
WORDS = ["", "a", "a b", "b a a", "a a a a a"]
BAD_WORDS = ["x", "z", "[0,1]"]


@st.composite
def argvs(draw) -> list[str]:
    """A command line over the files of the working directory, well formed unless ``broken`` is drawn.

    In a broken command line each value is bad with odds of one in five,
    and one option may be dropped or repeated or an extra token added.
    """
    broken = draw(st.integers(0, 2)) == 0

    def pick(good: list, bad: list):
        if not good or (broken and draw(st.integers(0, 4)) == 0):
            return draw(st.sampled_from(bad))
        return draw(st.sampled_from(good))

    def path(good: list[str]) -> str:
        return pick(good, draw(st.sampled_from([BAD_FILES, UNREADABLE])))

    outputs = ["-", "out/x"]
    bad_outputs = ["out", "no/dir"]
    argv: list[str] = []
    cap = pick([None, "1000000"] + CAPS, ["0"] + BAD_INTEGERS)
    if cap is not None:
        argv += ["--max-states", cap]
    small_cap = cap in CAPS
    if draw(st.booleans()):
        argv += ["--format", pick(["csv", "md"], ["tex"])]
    command = pick(["build", "minimize", "equiv", "dot", "monster", "member", "oracle", "sc"], ["frobnicate"])
    argv.append(command)

    k = draw(st.integers(1, 3 if command in ("sc", "monster") else 2))
    kind = pick(["generators", "full"], ["partial"])
    options: list[list[str]] = []
    if command in ("build", "oracle", "sc"):
        flag = draw(st.sampled_from(["--expr", "--eset", "--wheel"]))
        value = {
            "--expr": lambda: pick(EXPRESSIONS[k], BAD_EXPRESSIONS),
            "--eset": lambda: path(ESETS[k]),
            "--wheel": lambda: pick([str(k)], ["0"] + BAD_INTEGERS),
        }[flag]()
        options.append([flag, value])
    if command in ("build", "oracle"):
        options += [["--dfa", path(DFAS)] for _ in range(k)]
    if command == "build":
        options.append(["--mode", pick(["accessible", "full"], ["lazy"])])
        options += [[flag, pick(outputs, bad_outputs)] for flag in ("-o", "--labels") if draw(st.booleans())]
    if command == "oracle":
        options.append(["--maxlen", pick(["0", "1", "2", "3", "4"], BAD_INTEGERS)])
    if command in ("monster", "sc"):
        pool = (FULL_SIZES if kind == "full" else SIZES)[k] + (LARGE_SIZES[k] if small_cap else [])
        many = 1 if command == "monster" and not broken else 3
        options.append(["--sizes", ",".join(pick(pool, BAD_SIZES) for _ in range(draw(st.integers(1, many))))])
        options.append(["--kind", kind])
    if command == "monster":
        options.append(["-o", "out/m"])
    if command in ("sc", "minimize", "dot") and draw(st.booleans()):
        options.append(["-o", pick(outputs, bad_outputs)])
    if command == "member":
        options += [["--dfa", path(DFAS)], ["--word", pick(WORDS, BAD_WORDS)]]
    if command == "minimize":
        options.append(["--algo", pick(["hopcroft", "moore"], ["brzozowski"])])
    if broken and options and draw(st.booleans()):
        i = draw(st.integers(0, len(options) - 1))
        options = options[:i] + options[i + 1 :] if draw(st.booleans()) else options + [options[i]]
    for option in options:
        argv += option
    argv += [path(DFAS) for _ in range({"minimize": 1, "dot": 1, "equiv": 2}.get(command, 0))]
    if broken and draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "-h", "extra"])))
    return argv


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_exit_code_contract(tmp_path, monkeypatch):
    for name, text in {**DFA_FILES, **ESET_FILES}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=400,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(argvs())
    def check(argv):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in out + err, argv
        if code in (2, 3):
            assert sum("error:" in line for line in (out + err).splitlines()) == 1, (argv, err)

    check()


# About 1.5 GB of address space: enough for the interpreter, small next to a runaway allocation.
ADDRESS_SPACE = 1_500_000_000


def run_limited(argv: list[str], cwd: Path) -> tuple[subprocess.CompletedProcess, float]:
    """Run the CLI in a subprocess limited to ADDRESS_SPACE bytes and 10 s."""
    resource = pytest.importorskip("resource")

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    src = str(Path(friendlyops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "friendlyops.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env, cwd=cwd, preexec_fn=limit,
    )
    return done, time.perf_counter() - start


@pytest.mark.parametrize("argv, message", [
    (["sc", "--wheel", "1", "--sizes", "100000000"], "more than 10000000 stored images"),
    (["monster", "--sizes", "100000000", "-o", "m"], "more than 10000000 stored images"),
    (["--max-states", "1000", "sc", "--wheel", "1", "--sizes", "3000000"], "more than 10000 stored images"),
], ids=["sc", "monster", "sc-small-cap"])
def test_witness_size_is_bounded_by_the_cap(tmp_path, argv, message):
    done, seconds = run_limited(argv, tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (3, "", f"error: {message}\n")
    assert seconds < 5 and not list(tmp_path.iterdir())


def test_size_range_is_expanded_one_size_at_a_time(tmp_path):
    done, seconds = run_limited(["--max-states", "30", "sc", "--wheel", "1", "--sizes", "1..1000000000"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: more than 30 reachable tuples\n")
    assert seconds < 5
