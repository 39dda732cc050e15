"""README's library tour runs as written and gives the values its comments state."""

import re
from pathlib import Path

import friendlyops as F
from friendlyops import ScRow

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour():
    tour = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL).group(1)
    names: dict = {}
    exec(compile(tour, str(README), "exec"), names)
    assert F.minimize(names["sqrt_A"]).n_states == 3
    assert F.sc_on_witness(names["wheel"], (3,)) == ScRow("wheel 1", (3,), 25, 25, True)
