"""Run a workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload mono-n6 --runs 10 --out perfbench/out/runs
    python3 perfbench/spread.py --workload mono-n6 --runs 10 --parent ../parent --out perfbench/out/pairs

Runs ``run.py`` once per seed (1, 2, ...), one process at a time, and
appends each run's record to ``OUT/runs.jsonl``.  For each metric it
prints the median, the quartiles and their distance as a share of the
median, next to the metric's bound: the benchmark is steady when every
spread but ``setup_s``'s is below a third of its bound.

With ``--parent DIR`` each seed also runs in the checkout DIR, the two
sides taking turns at going first, and those records go to
``OUT/parent.jsonl``; then ``compare.py OUT/parent.jsonl OUT/runs.jsonl``
gives the verdicts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import load_spec, quartiles, spread

BENCH = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
    result = json.loads(proc.stdout.splitlines()[-1])
    record["correct"] = result["correct"]
    record["wall_s"] = time.perf_counter() - start
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="directory for the run records")
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit to pair against")
    args = parser.parse_args(argv)
    spec = load_spec(BENCH.parent)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.out.mkdir(parents=True, exist_ok=True)
    sides = [("runs", BENCH.parent)] + ([("parent", args.parent.resolve())] if args.parent else [])

    steady = True
    for workload in args.workload:
        records = []
        for i in range(args.runs):
            seed = 1 + i
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                record = run_once(checkout, workload, seed, spec["run_seconds"], args.trace)
                with (args.out / f"{side}.jsonl").open("a", encoding="utf-8") as f:
                    f.write(json.dumps(record) + "\n")
                if side == "runs":
                    records.append(record)
                    values = " ".join(f"{k}={v['value']:.4g}" for k, v in record["metrics"].items() if k in bounds)
                    print(f"{workload} seed {seed}: {record['wall_s']:.0f} s, correct={record['correct']} {values}", flush=True)
        if args.trace:
            continue
        print(f"\n{workload}: {len(records)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in records]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            ok = name == "setup_s" or s < bound / 3
            steady &= ok
            print(f"  {name:12s} median {med:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g} "
                  f"spread {s:6.1%}  bound {bound:.0%}  {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
