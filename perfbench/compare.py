"""Compare the runs of a parent commit and a change, one row per workload and metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one run record per line, as ``spread.py`` writes them.
Untraced runs of the two sides are paired by workload and seed.  A row
shows each side's median with its quartiles, the change's share of pairs
won, and a verdict:

- improved: the change wins at least nine tenths of at least ten pairs
  (ties count for neither) and the medians differ, in the better
  direction, by more than the parent's own quartile spread;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
- unresolved: the quartile spread of either side is wider than the bound,
  and not every run of the change reads better than every run of the parent;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_runs(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], better: str, bound: float) -> tuple[str, float]:
    """The verdict and the change's share of pairs won."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if len(pairs) >= 10 and win_rate >= 0.9 and gain > p_q3 - p_q1:
        return "improved", win_rate
    if -gain > bound * abs(p_med):
        return "regressed", win_rate
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", win_rate
    return "unchanged", win_rate


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> list[list[str]]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        p_runs = {r["seed"]: r for r in parent_runs if r["workload"] == workload and r["trace"] == 0}
        c_runs = {r["seed"]: r for r in change_runs if r["workload"] == workload and r["trace"] == 0}
        if not p_runs or not c_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in p_runs.values()]
            change = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [
                (p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                for s in sorted(p_runs.keys() & c_runs.keys())
            ]
            result, win_rate = verdict(parent, change, pairs, metric["better"], metric["bound"])
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            rows.append([
                workload,
                f"{name} ({metric['unit']}, {metric['better']} is better)",
                f"{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] n={len(parent)}",
                f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] n={len(change)}",
                f"{(c_med - p_med) / p_med:+.1%}" if p_med else "n/a",
                f"{win_rate:.0%} of {len(pairs)}",
                result,
            ])
    return rows


def render(rows: list[list[str]]) -> str:
    header = ["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "pairs won", "verdict"]
    table = [header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="run records of the parent commit")
    parser.add_argument("change", type=Path, help="run records of the change")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change), load_spec(BENCH.parent))
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 1
    sys.stdout.write(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
