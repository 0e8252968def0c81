"""The benchmark's own tests.

    python3 -m pytest -q bench/test_bench.py

They run every workload at the tiny scale, through run.py as the benchmark
is run, and check the harness itself: planted wrong answers must count as
failures, the traced self times must account for the traced wall time, and
a directory without the program's sources must fail without a result.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import torusdyn  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_tiny_untraced_run_reports_every_end_to_end_metric(name):
    result = last_json(run_bench("--workload", name, "--seed", "7", "--seconds", "1",
                                 "--trace", "0", "--scale", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_reports_every_layer_metric(name):
    result = last_json(run_bench("--workload", name, "--seed", "7", "--seconds", "1",
                                 "--trace", "1", "--scale", "tiny"))
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "egorov":
        assert values["discretize.egorov_defect.self_s"] > 0.5 * values["trace.wall_s"]
    if name == "ladder":
        # Figures are per pass, however many passes fit in the time.
        assert values["entropy.cell_weights.cells"] == 64**2 + 128**2
    if name == "mixed-calls":
        # The two known-defect probes are the only CLI calls that raise.
        assert values["cli.main.failed"] == 2
        assert values["cli.main.calls"] > 0


def test_traced_self_times_sum_to_the_traced_wall_time():
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "mixed-calls", "--seed", "3",
         "--seconds", "1", "--scale", "tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    # Every span nests inside a pass, so a pass's self times add up to its
    # wall time up to the wrappers' own bookkeeping between spans.
    gap = r["mean_pass_s"] - r["self_s_per_pass"]
    assert 0 <= gap <= 0.01 * r["mean_pass_s"] + 0.005, r


def run_passes(workload, passes: int = 1) -> worker.Runner:
    runner = worker.Runner(None)
    for _ in range(passes):
        workload.run_pass(runner)
        runner.verify_pass(workloads.Wrong)
    return runner


def test_ladder_planted_wrong_answers_are_failures(monkeypatch, tmp_path):
    real = torusdyn.compare_entropy_production
    assert run_passes(workloads.Ladder(1, "tiny", tmp_path)).failures == []

    def wrong_breaking(*args, **kwargs):
        r = real(*args, **kwargs)
        return dataclasses.replace(r, breaking=tuple(b + 1 for b in r.breaking))

    def wrong_entropy(*args, **kwargs):
        r = real(*args, **kwargs)
        s_cs = r.s_cs.copy()
        s_cs[-1, -1] += 1e-6
        return dataclasses.replace(r, s_cs=s_cs)

    for planted in (wrong_breaking, wrong_entropy):
        monkeypatch.setattr(torusdyn, "compare_entropy_production", planted)
        runner = run_passes(workloads.Ladder(1, "tiny", tmp_path))
        assert runner.attempted == 1 and len(runner.failures) == 1, planted.__name__


def test_egorov_planted_wrong_defects_are_failures(monkeypatch, tmp_path):
    real = torusdyn.egorov_defect

    def drifted(*args, **kwargs):
        return real(*args, **kwargs) * (1 + 1e-4)

    monkeypatch.setattr(torusdyn, "egorov_defect", drifted)
    workload = workloads.Egorov(1, "tiny", tmp_path)
    runner = run_passes(workload)
    assert len(runner.failures) == runner.attempted > 0
    assert all(f.startswith("egorov_sweep: wrong answer: defect") for f in runner.failures)


def test_mixed_calls_planted_wrong_period_is_a_failure(monkeypatch, tmp_path):
    workload = workloads.MixedCalls(5, "tiny", tmp_path)
    assert run_passes(workload).failures == []
    real = torusdyn.orbit_period
    monkeypatch.setattr(torusdyn, "orbit_period", lambda *a, **k: real(*a, **k) + 1)
    runner = run_passes(workload)
    periods = sum(kind == "orbit_period" for kind, _, _ in workload.requests)
    assert len(runner.failures) == periods > 0
    assert all(f.startswith("orbit_period: wrong answer") for f in runner.failures)


def test_without_the_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "ladder", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
