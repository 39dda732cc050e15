"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mono-n6 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there and nowhere else.  One process, one thread, a closed loop with a
single client: each job starts when the previous one has returned.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off, every time corrected for the host's speed (see ``hostspeed.py``).
With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, with plain wall times; the span
records go to ``perfbench/out/``.  Human-readable lines come first, then
a ``record:`` line with the run's provenance, and last one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads
from workloads import Checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 15
# A traced pass's self times must add up to its run_s within this share plus
# this many seconds per job: the gap is the benchmark's own timer and loop.
RESIDUAL_SHARE = 0.01
RESIDUAL_PER_JOB_S = 0.001


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (q in 1..9) of the values, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def git_commit(root: Path) -> str:
    """HEAD of the checkout, with ``+src-changes`` when ``src/`` differs from it."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        diff = subprocess.run(
            ["git", "-C", str(root), "diff", "--quiet", "HEAD", "--", "src"], capture_output=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("+src-changes" if diff.returncode == 1 else "")


def set_up(workload, seed: int, workdir: Path, tracer: spans.Tracer | None, host):
    """Import the package and build the inputs, ``SETUP_REPEATS`` times; keep the last.

    Returns the modules, the inputs, each set-up's time and, when traced,
    the time spent in ``monster`` during each set-up.
    """

    def once(rep: int):
        fo, cli = workloads.import_friendlyops(ROOT / "src")
        if tracer is None:
            return fo, cli, workload.setup(fo, spans.plain_api(fo, cli), random.Random(seed), workdir)
        run = f"setup.{rep}"
        with spans.installed(tracer, fo, cli, run) as api:
            inputs = tracer.wrap("setup", workload.setup)(fo, api, random.Random(seed), workdir)
        monster_times.append(sum(r.busy for r in tracer.in_run(run) if r.name == "monsters"))
        return fo, cli, inputs

    timings, monster_times = [], []
    for rep in range(SETUP_REPEATS):
        for old in workdir.iterdir():
            old.unlink()
        (fo, cli, inputs), timing = host.time(once, rep)
        timings.append(timing)
    return fo, cli, inputs, [host.correct(t) for t in timings], monster_times


def run_pass(workload, api, inputs, checks: Checks, state: dict, host) -> list[hostspeed.Timing]:
    """One timed pass: one job of an sc workload, or one sweep over every oracle case.

    Only the calls into the package are timed; the checks run between them.
    Returns the timing of each job.
    """
    gc.collect()
    if workload.kind == "sc":
        state["got"].clear()
        row, timing = host.time(workload.job, api, inputs)
        workload.check_job(row, state.get("first"), checks)
        state.setdefault("first", row)
        return [timing]
    timings = []
    for case in inputs["cases"]:
        result, timing = host.time(workload.job, api, case)
        workload.check_job(case, result, checks)
        timings.append(timing)
    return timings


def measure(workload, fo, cli, inputs, seconds: float, tracer: spans.Tracer | None, host, checks: Checks) -> dict:
    """Repeat passes until the next one would overrun ``seconds``.

    Untraced, every job's time is corrected for the host's speed.  Traced,
    passes alternate between untraced and traced, so both kinds run under
    the same conditions, with plain wall times; only the traced passes feed
    the per-layer metrics.
    """
    plain = spans.plain_api(fo, cli)
    state: dict = {"got": {}}
    plain_passes, traced_times, per_pass, residuals, walls = [], [], [], [], []
    jobs_per_pass = len(inputs.get("cases", ())) or 1
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    while True:
        minimum = 1 if tracer is None else 2
        now = time.perf_counter()
        if n >= minimum and now + statistics.median(walls) > deadline:
            break
        with workloads.capture(fo, state["got"]):
            if tracer is not None and n % 2 == 1:
                run = f"pass.{n}"
                with spans.installed(tracer, fo, cli, run) as api:
                    elapsed = sum(t.seconds for t in run_pass(workload, api, inputs, checks, state, host))
                traced_times.append(elapsed)
                per_pass.append(spans.layer_metrics(tracer, run))
                residuals.append((elapsed, spans.self_time_sum(tracer, run), jobs_per_pass))
            else:
                plain_passes.append(run_pass(workload, plain, inputs, checks, state, host))
        walls.append(time.perf_counter() - now)
        n += 1
    # job_times[i][k]: job i of pass k, corrected now that samples follow every job
    job_times = [[host.correct(t) for t in jobs] for jobs in zip(*plain_passes)]
    plain_times = [sum(jobs) for jobs in zip(*job_times)]
    return {
        "plain_times": plain_times,
        "traced_times": traced_times,
        "per_pass": per_pass,
        "residuals": residuals,
        "job_times": job_times,
        "got": state["got"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "elapsed": time.perf_counter() - start,
    }


def end_to_end(workload, inputs, setup_times: list[float], m: dict) -> dict[str, tuple[float, str]]:
    # Every time here is corrected for the host's speed.  Each job runs several
    # times in the run and counts with its median.  An sc pass is one job.
    jobs = [statistics.median(times) for times in m["job_times"]]
    run_s = sum(jobs)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (run_s, "s"),
        "work_per_s": (workload.work(inputs) / run_s, "1/s"),
        "job_p50_ms": (quantile(jobs, 5) * 1e3, "ms"),
        "job_p90_ms": (quantile(jobs, 9) * 1e3, "ms"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def per_layer(tracer: spans.Tracer, monster_times: list[float], m: dict, checks: Checks) -> dict[str, tuple[float, str]]:
    figures, unstable = spans.summarize(m["per_pass"])
    for name in unstable:
        checks.expect(False, f"count {name} differs between traced passes")
    for elapsed, self_sum, jobs in m["residuals"]:
        checks.expect(
            abs(elapsed - self_sum) <= RESIDUAL_SHARE * elapsed + RESIDUAL_PER_JOB_S * jobs,
            f"self times sum to {self_sum:.4f} s, traced run_s is {elapsed:.4f} s",
        )
    out = {"monsters.time_s": (statistics.median(monster_times), "s")}
    out.update((name, (value, spans.unit(name))) for name, value in figures.items())
    out["trace.overhead_s"] = (statistics.median(m["traced_times"]) - statistics.median(m["plain_times"]), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    checks = Checks()
    # The probe would land inside traced spans, so traced runs keep raw times.
    host_speed = hostspeed.HostSpeed() if tracer is None else hostspeed.Unadjusted()
    try:
        try:
            with host_speed as host:
                fo, cli, inputs, setup_times, monster_times = set_up(workload, args.seed, workdir, tracer, host)
        except ImportError as e:
            print(f"error: cannot import friendlyops from {ROOT / 'src'}: {e}", file=sys.stderr)
            return 2
        try:
            with host_speed as host:
                m = measure(workload, fo, cli, inputs, args.seconds, tracer, host, checks)
            if workload.kind == "sc":
                workload.check_outputs(fo, inputs, m["got"], checks)
        except Exception:
            # The program under test raised: report the failure, print no result.
            traceback.print_exc()
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(workload, inputs, setup_times, m)
    else:
        metrics = per_layer(tracer, monster_times, m, checks)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")

    fail_frac = checks.failed / checks.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"input {json.dumps(inputs['size'])}")
    passes = len(m["plain_times"]) + len(m["traced_times"])
    print(f"passes {passes} in {m['elapsed']:.1f} s; checks {checks.attempted}, failed {checks.failed}")
    print("untraced pass times " + " ".join(f"{t:.3f}" for t in m["plain_times"]) + " s")
    for note in checks.notes:
        print(f"FAILED {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"{'fail_frac':28s} {fail_frac:14.6g} ratio")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "input": inputs["size"],
        "passes": passes,
        "fail_frac": fail_frac,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print("record: " + json.dumps(record))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
