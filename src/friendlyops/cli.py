"""Command-line interface.

Exit codes are uniform across subcommands: 0 success, 1 a checked
property does not hold (non-equivalence, oracle disagreement, predicted
state complexity missed), 2 usage or parse error, 3 a resource cap was
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .automata import (
    Dfa,
    _is_nat,
    accepts,
    accepts_up_to,
    equivalent,
    minimize,
    parse_dfa,
    print_dfa,
    to_dot,
    words_up_to,
    words_within,
)
from .errors import CapExceeded, ParseError
from .experiments import ScRow, sc_on_witness, sc_table
from .friendly import Compiled, EPredicate, explicit_from_file, parse_expr, wheel_builtin, word_oracle
from .modifiers import DEFAULT_MAX_STATES, TRANSITIONS_PER_STATE, build_standard_detailed
from .monsters import MonsterSpec, monster


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_dfa(path: str) -> Dfa:
    return parse_dfa(_read(path))


def _predicate(args: argparse.Namespace) -> EPredicate:
    given = [name for name in ("expr", "eset", "wheel") if getattr(args, name) is not None]
    if len(given) != 1:
        raise ParseError("exactly one of --expr/--eset/--wheel is required")
    if args.expr is not None:
        return Compiled(parse_expr(args.expr))
    if args.eset is not None:
        return explicit_from_file(_read(args.eset))
    return wheel_builtin(args.wheel)


def _int_arg(text: str) -> int:
    """argparse type for integer flags: a natural number in ASCII digits.

    No integer flag has a valid negative value, so a sign is refused here,
    by argparse, with exit 2.
    """
    if not _is_nat(text.strip()):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


def _add_predicate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", help="operation expression, e.g. '(root[2](L1) | L2) & !L3'")
    p.add_argument("--eset", help="path to an 'eset v1' file of characteristic tuples")
    p.add_argument("--wheel", type=_int_arg, help="arity of the built-in wheel predicate")


def _parse_size(text: str, entry: str) -> int:
    text = text.strip()
    if not _is_nat(text):
        raise ParseError(f"bad size entry {entry!r}")
    return int(text)


def _parse_sizes(text: str) -> Iterator[tuple[int, ...]]:
    """Size list: comma-separated entries, each 'n', 'n1xn2x...' or 'a..b'.

    Every entry is checked before this returns; a range then yields its
    sizes one at a time, so a long range costs nothing until it is reached.
    """
    parts: list[Iterable[tuple[int, ...]]] = []
    for entry in text.split(","):
        entry = entry.strip()
        if ".." in entry:
            lo_s, _, hi_s = entry.partition("..")
            lo, hi = _parse_size(lo_s, entry), _parse_size(hi_s, entry)
            if lo < 1 or hi < lo:
                raise ParseError(f"bad size range {entry!r}")
            parts.append((n,) for n in range(lo, hi + 1))
        else:
            sizes = tuple(_parse_size(t, entry) for t in entry.split("x"))
            if any(n < 1 for n in sizes):
                raise ParseError(f"bad size entry {entry!r}")
            parts.append([sizes])
    return itertools.chain.from_iterable(parts)


def cmd_build(args: argparse.Namespace) -> int:
    pred = _predicate(args)
    dfas = [_load_dfa(p) for p in args.dfa]
    build = build_standard_detailed(pred, dfas, args.mode, max_states=args.max_states)
    _write(args.output, print_dfa(build.dfa))
    if args.labels is not None:
        lines = [f"{sid} {tok}" for sid, tok in enumerate(build.labels())]
        _write(args.labels, "\n".join(lines) + "\n")
    return 0


def cmd_minimize(args: argparse.Namespace) -> int:
    _write(args.output, print_dfa(minimize(_load_dfa(args.dfa), args.algo)))
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    same = equivalent(_load_dfa(args.first), _load_dfa(args.second))
    print("equivalent" if same else "not equivalent")
    return 0 if same else 1


def cmd_dot(args: argparse.Namespace) -> int:
    _write(args.output, to_dot(_load_dfa(args.dfa)))
    return 0


def cmd_monster(args: argparse.Namespace) -> int:
    sizes_list = list(itertools.islice(_parse_sizes(args.sizes), 2))
    if len(sizes_list) != 1:
        raise ParseError("monster expects a single size tuple, e.g. --sizes 2x3")
    spec = MonsterSpec(sizes_list[0], args.kind)
    dfas = monster(spec, max_letters=args.max_states)
    for j, d in enumerate(dfas, start=1):
        path = f"{args.output}.{j}.dfa"
        _write(path, print_dfa(d))
        print(path)
    return 0


def cmd_member(args: argparse.Namespace) -> int:
    word = args.word.split()
    result = accepts(_load_dfa(args.dfa), word)
    print("true" if result else "false")
    return 0 if result else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    pred = _predicate(args)
    dfas = [_load_dfa(p) for p in args.dfa]
    build = build_standard_detailed(pred, dfas, "accessible", max_states=args.max_states).dfa
    work = TRANSITIONS_PER_STATE * args.max_states
    if words_within(len(build.alphabet), args.maxlen, work) is None:
        raise CapExceeded(f"more than {work} words up to length {args.maxlen}")
    # Each letter is a step of the oracle's fold.  On one letter the words up to L hold
    # L(L+1)/2 letters; on two or more the word cap keeps every word under log2(10N) + 1 letters.
    if len(build.alphabet) == 1 and args.maxlen * (args.maxlen + 1) // 2 > work:
        raise CapExceeded(f"more than {work} letters in words up to length {args.maxlen}")
    memo: dict = {}
    for word, built in zip(words_up_to(build.alphabet, args.maxlen), accepts_up_to(build, args.maxlen)):
        if built != word_oracle(pred, dfas, word, memo=memo):
            print("disagreement on word: " + " ".join(word))
            return 1
    print(f"agreement on all words up to length {args.maxlen}")
    return 0


def cmd_sc(args: argparse.Namespace) -> int:
    pred = _predicate(args)
    rows: list[ScRow] = []
    for sizes in _parse_sizes(args.sizes):
        rows.append(sc_on_witness(pred, sizes, args.kind, max_states=args.max_states))
    _write(args.output, sc_table(rows, args.format))
    return 1 if any(row.match is False for row in rows) else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call.

    Building it makes about 40 ``add_argument`` calls (the ``-h`` flags
    included), each of which asks ``shutil.get_terminal_size``: about 1.2 ms
    on a 2 vCPU Xeon, half of a typical in-process ``oracle`` call (2.4 ms,
    the median job of perfbench's ``oracle-sweep``).
    ``parse_args`` leaves the parser as it was, so calls sharing it stay
    independent; a help text still reads the terminal width when printed.

    The subcommands' ``cmd_*`` functions are bound as defaults at the first
    build, so patching ``cli.cmd_*`` afterwards changes nothing: a test
    patches a name the command looks up when it runs, as ``word_oracle``.
    """
    parser = argparse.ArgumentParser(prog="friendlyops", description=__doc__)
    parser.add_argument("--max-states", type=_int_arg, default=DEFAULT_MAX_STATES, dest="max_states",
                        help="cap on constructed states/letters (default %(default)s)")
    parser.add_argument("--format", choices=("csv", "md"), default="csv",
                        help="table output format (default csv)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the standard DFA of an operation on input DFAs")
    _add_predicate_flags(p)
    p.add_argument("--dfa", action="append", required=True, help="input DFA file (repeat per argument)")
    p.add_argument("--mode", choices=("accessible", "full"), default="accessible")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.add_argument("--labels", help="write a 'state token' side table to this file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("minimize", help="minimize a DFA")
    p.add_argument("dfa")
    p.add_argument("--algo", choices=("hopcroft", "moore"), default="hopcroft")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("equiv", help="check language equivalence of two DFAs")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("dot", help="export a DFA as Graphviz DOT")
    p.add_argument("dfa")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("monster", help="write the coordinate DFAs of a monster witness")
    p.add_argument("--sizes", required=True, help="size tuple, e.g. 3 or 2x3")
    p.add_argument("--kind", choices=("full", "generators"), default="generators")
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    p.set_defaults(func=cmd_monster)

    p = sub.add_parser("member", help="test whether a DFA accepts a word")
    p.add_argument("--dfa", required=True)
    p.add_argument("--word", default="", help="whitespace-separated letter tokens")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("oracle", help="cross-check a build against direct word membership")
    _add_predicate_flags(p)
    p.add_argument("--dfa", action="append", required=True)
    p.add_argument("--maxlen", type=_int_arg, default=7)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sc", help="measure state complexity on monster witnesses")
    _add_predicate_flags(p)
    p.add_argument("--sizes", required=True, help="e.g. 2..5 or 2x2,2x3")
    p.add_argument("--kind", choices=("full", "generators"), default="generators")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_states < 1:
            raise ParseError("--max-states must be positive")
        return args.func(args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
