"""README's library tour and command-line block run as written and give the results their comments state."""

import re
import shlex
from pathlib import Path

from conftest import FIG1_DOC

import friendlyops as F
from friendlyops import ScRow
from friendlyops.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)


def test_library_tour():
    names: dict = {}
    exec(compile(blocks("python")[0], str(README), "exec"), names)
    assert F.minimize(names["sqrt_A"]).n_states == 3
    assert F.sc_on_witness(names["wheel"], (3,)) == ScRow("wheel 1", (3,), 25, 25, True)


def test_command_line_block(tmp_path, monkeypatch, capsys):
    # the files the block reads: the two-state example and the wheel-1 predicate as a tuple set
    (tmp_path / "fig1.dfa").write_text(FIG1_DOC)
    (tmp_path / "wheel.eset").write_text("eset v1 k=1\n(0)\n0(1)\n")
    monkeypatch.chdir(tmp_path)
    lines = [line for text in blocks("sh") for line in text.splitlines() if line.startswith("friendlyops ")]
    codes = [main(shlex.split(line, comments=True)[1:]) for line in lines]
    # the comments say equiv exits 0 on equivalent automata and sc exits 1 on a missed
    # prediction; min.dfa minimizes out.dfa, wheel 1 meets its closed form, and the rest succeed
    assert codes == [0] * 9
    out = capsys.readouterr().out
    assert "equivalent\n" in out and "agreement on all words up to length 7\n" in out
    assert out.endswith("wheel 1,5,3121,3121,true\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig1.dfa", "m.1.dfa", "m.2.dfa", "min.dfa", "min.dot", "out.dfa", "states.txt", "wheel.eset",
    ]
