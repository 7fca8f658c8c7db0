"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    # --seconds 0 is the smallest run: one operation, two with --trace 1
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            proc = bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            cache[workload, trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
        return cache[workload, trace]

    return get


def test_benchmark_json_names_the_implemented_workloads():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_named_metric_with_its_unit(results, workload, trace):
    report, result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    env = report["environment"]
    assert {"python", "numpy", "nproc", "git_commit", "src_sha256", "seed"} <= set(env)
    assert report["op_s"]["samples"] >= 1 and report["setup_s"]["samples"] >= 1


def test_default_seed_outputs_are_checked_against_the_reference(results):
    for workload in WORKLOAD_NAMES:
        report, _ = results(workload, 0)
        assert report["outputs"] and all(o["checked_against_reference"] for o in report["outputs"])


def test_useful_run_ratio_is_one_fifth_on_protocol_sweep(results):
    _, result = results("protocol_sweep", 1)
    metrics = result["metrics"]
    assert metrics["experiments.useful_run_ratio"]["value"] == pytest.approx(0.2)
    assert metrics["experiments.simulate_calls_per_op"]["value"] == 5
    assert metrics["experiments.distinct_runs_per_op"]["value"] == 1


def test_injected_output_mismatch_shows_in_failed_frac(monkeypatch, capsys):
    reference = workloads.load_reference()
    for entry in reference["closed_loop_run"].values():
        entry["metrics"]["mean_speed"] *= 1.0 + 1e-6
    monkeypatch.setattr(workloads, "load_reference", lambda: reference)
    assert run.main(["--workload", "closed_loop_run", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    report, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert report["failed_frac"] == 1.0
    assert "mean_speed" in report["failures"][0]["problems"][0]


class KernelWorkload:
    """A stand-in operation that runs the reference kernel a fixed number of times."""

    reference: dict = {}

    def __init__(self, kernel_runs: int):
        self.kernel_runs = kernel_runs

    def inputs(self):
        while True:
            yield workloads.OpInput("kernel", (), 1)

    def run(self, args):
        for _ in range(self.kernel_runs):
            hostspeed.kernel()
        return self.kernel_runs

    def invariants(self, inp, out):
        return []

    def digest(self, inp, out):
        return ""


def normalized_op_s(kernel_runs: int) -> float:
    measured = run.Run()
    with hostspeed.HostSpeed() as speed:
        run.measure(measured, KernelWorkload(kernel_runs), 4.0, None)
        measured.normalize(speed.stop(), None)
    return statistics.median(measured.plain)


@pytest.fixture
def no_setups(monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 0)


@pytest.mark.usefixtures("no_setups")
def test_a_fixed_cost_in_the_operation_shows_in_full():
    # the kernel takes NOMINAL_S at nominal host speed, so 20 more runs of it
    # in every operation must add 20 * NOMINAL_S to the normalized op_s
    added = normalized_op_s(30) - normalized_op_s(10)
    assert added == pytest.approx(20 * hostspeed.NOMINAL_S, rel=0.25)


@pytest.mark.usefixtures("no_setups")
def test_a_slowdown_of_the_whole_interpreter_is_not_normalized_away():
    # a profile hook slows every Python call in the program's interpreter; the
    # reference kernel runs in its own interpreter, so rescaling keeps the cost
    plain = normalized_op_s(20)
    sys.setprofile(lambda frame, event, arg: None)
    try:
        hooked = normalized_op_s(20)
    finally:
        sys.setprofile(None)
    assert hooked > 1.5 * plain


def test_compare_accepts_reassociation_and_rejects_a_model_change():
    assert workloads.compare({"v": 0.3}, {"v": 0.1 + 0.2}) == []
    assert workloads.compare({"v": 0.3}, {"v": 0.3 * (1 + 1e-7)})
    assert workloads.compare({"rows": [{"fin": "erect"}]}, {"rows": [{"fin": "folded"}]})


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench(tmp_path, WORKLOAD_NAMES[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
