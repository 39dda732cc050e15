"""Self-tests of the benchmark: its checks catch wrong output, its trace adds up.

    python3 -m pytest perfbench/tests -q

They use small instances of the workloads so the whole file runs in seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Checks, OracleSweep, ScWorkload  # noqa: E402

MONO_4 = ScWorkload("mono-n4", None, (4,), expected_states=256, expected_sc=253, sample_words=50)
SWEEP_12 = OracleSweep("oracle-12", cases=12)


@pytest.fixture(scope="module")
def package():
    return workloads.import_friendlyops(ROOT / "src")


def test_sc_check_rejects_a_wrong_sc(package):
    fo, _ = package
    good = fo.ScRow("wheel 1", (4,), 253, 253, True)
    wrong = fo.ScRow("wheel 1", (4,), 252, 253, False)
    checks = Checks()
    MONO_4.check_job(good, None, checks)
    assert checks.failed == 0
    MONO_4.check_job(wrong, good, checks)
    assert checks.failed == 2  # wrong sc, and a row unlike the first job's
    assert "sc 252" in checks.notes[0]


def test_sc_check_rejects_a_disagreeing_oracle(package, tmp_path):
    fo, cli = package
    inputs = MONO_4.setup(fo, spans.plain_api(fo, cli), random.Random(1), tmp_path)
    got: dict = {}
    with workloads.capture(fo, got):
        MONO_4.job(spans.plain_api(fo, cli), inputs)
    checks = Checks()
    MONO_4.check_outputs(fo, inputs, got, checks)
    assert checks.failed == 0 and checks.attempted > MONO_4.sample_words

    # The same automaton with its final states flipped accepts the complement.
    built = got["built"]
    flipped = fo.Dfa(built.alphabet, built.n_states, built.initial,
                     frozenset(range(built.n_states)) - built.finals, built.trans)
    checks = Checks()
    MONO_4.check_outputs(fo, inputs, {"built": flipped, "minimal": got["minimal"]}, checks)
    assert checks.failed >= MONO_4.sample_words
    assert any("word_oracle disagree" in note for note in checks.notes)


def test_oracle_check_rejects_a_disagreement(package, tmp_path, monkeypatch):
    fo, cli = package
    api = spans.plain_api(fo, cli)
    inputs = SWEEP_12.setup(fo, api, random.Random(1), tmp_path)
    case = inputs["cases"][2]  # three letters
    checks = Checks()
    SWEEP_12.check_job(case, SWEEP_12.job(api, case), checks)
    assert checks.failed == 0

    oracle = cli.word_oracle
    monkeypatch.setattr(cli, "word_oracle", lambda *a, **k: not oracle(*a, **k))
    checks = Checks()
    SWEEP_12.check_job(case, SWEEP_12.job(api, case), checks)
    assert checks.failed == 1
    assert "exit 1" in checks.notes[0]


def test_inputs_repeat_for_a_seed(package, tmp_path):
    fo, cli = package
    made = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        inputs = SWEEP_12.setup(fo, spans.plain_api(fo, cli), random.Random(7), workdir)
        made.append(([c.argv[2] for c in inputs["cases"]], sorted(p.read_text() for p in workdir.iterdir())))
    assert made[0] == made[1]


def test_oracle_work_is_the_same_for_every_seed(tmp_path):
    counts = []
    for seed in (1, 2):
        tracer = spans.Tracer()
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        host = hostspeed.Unadjusted()
        fo, cli, inputs, _, _ = run.set_up(SWEEP_12, seed, workdir, tracer, host)
        with spans.installed(tracer, fo, cli, "pass.1") as api:
            run.run_pass(SWEEP_12, api, inputs, Checks(), {"got": {}}, host)
        figures = spans.layer_metrics(tracer, "pass.1")
        counts.append({name: figures[name] for name in spans.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["friendly.oracle_calls"] == inputs["size"]["words"]


@pytest.mark.parametrize("workload", [MONO_4, SWEEP_12], ids=lambda w: w.name)
def test_traced_self_times_sum_to_run_s(workload, tmp_path):
    tracer = spans.Tracer()
    host = hostspeed.Unadjusted()
    fo, cli, inputs, _, monster_times = run.set_up(workload, 3, tmp_path, tracer, host)
    checks = Checks()
    m = run.measure(workload, fo, cli, inputs, 0.5, tracer, host, checks)
    assert m["traced_times"], "the traced smoke run made no traced pass"
    for elapsed, self_sum, jobs in m["residuals"]:
        residual = run.RESIDUAL_SHARE * elapsed + run.RESIDUAL_PER_JOB_S * jobs
        assert abs(elapsed - self_sum) <= residual
    layers = run.per_layer(tracer, monster_times, m, checks)
    assert checks.failed == 0, checks.notes
    assert set(layers) == {m["name"] for m in compare.load_spec(ROOT)["per_layer"]}
    if workload.kind == "sc":
        assert layers["modifiers.states"][0] == 256
        assert layers["automata.classes"][0] == 253
        assert layers["transforms.compose_calls"][0] == 256 * 3
        assert monster_times and all(t > 0 for t in monster_times)
    else:
        assert layers["friendly.oracle_calls"][0] == inputs["size"]["words"]
        assert layers["cli.self_s"][0] > 0


def test_host_speed_correction_cancels_the_hosts_speed():
    # The probe itself, timed and corrected, reads its nominal time however fast the host runs.
    calls = 300
    with hostspeed.HostSpeed() as host:
        _, timing = host.time(lambda: [hostspeed.probe() for _ in range(calls)])
        corrected = host.correct(timing)
    assert timing.last > timing.first, "no probe sample during a call of 0.1 s or more"
    assert 0.7 < corrected / (calls * hostspeed.NOMINAL_S) < 1.4
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("workload", [MONO_4, SWEEP_12], ids=lambda w: w.name)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    checks = Checks()
    with hostspeed.HostSpeed() as host:
        fo, cli, inputs, setup_times, _ = run.set_up(workload, 3, tmp_path, None, host)
        m = run.measure(workload, fo, cli, inputs, 0.5, None, host, checks)
    assert checks.failed == 0, checks.notes
    assert len(m["job_times"]) == (len(inputs.get("cases", ())) or 1)
    metrics = run.end_to_end(workload, inputs, setup_times, m)
    assert set(metrics) == {m["name"] for m in compare.load_spec(ROOT)["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_tracing_restores_the_package(package):
    fo, cli = package
    before = (fo.experiments.build_standard, fo.modifiers.tuple_compose, fo.friendly.eval_expr, cli.word_oracle)
    with spans.installed(spans.Tracer(), fo, cli, "pass.0"):
        assert fo.modifiers.tuple_compose is not before[1]
    after = (fo.experiments.build_standard, fo.modifiers.tuple_compose, fo.friendly.eval_expr, cli.word_oracle)
    assert after == before


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mono-n6", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    spec = compare.load_spec(ROOT)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "work_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb"
    }
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0 + 0.1 * i for i in range(10)], [8.0 + 0.1 * i for i in range(10)], "improved"),
        ([10.0 + 0.1 * i for i in range(10)], [13.0 + 0.1 * i for i in range(10)], "regressed"),
        ([10.0 + 0.1 * i for i in range(10)], [10.05 + 0.1 * i for i in range(10)], "unchanged"),
        ([6.0, 14.0] * 5, [7.0, 13.0] * 5, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, "lower", 0.2)[0] == expected


def test_compare_renders_one_row_per_workload_and_metric():
    spec = compare.load_spec(ROOT)

    def record(workload, seed, value):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in spec["end_to_end"]}
        return {"workload": workload, "seed": seed, "trace": 0, "metrics": metrics}

    parent = [record(w, s, 1.0 + s / 100) for w in ("mono-n6", "kary-3x3x3") for s in range(10)]
    change = [record(w, s, 1.0 + s / 100) for w in ("mono-n6", "kary-3x3x3") for s in range(10)]
    rows = compare.compare(parent, change, spec)
    assert len(rows) == 2 * len(spec["end_to_end"])
    assert {r[-1] for r in rows} == {"unchanged"}
    assert json.dumps(rows)  # plain strings only
