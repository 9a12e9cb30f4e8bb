"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests

They run every workload at the ``tiny`` size (a few seconds each).
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One tiny run per (workload, trace), shared by the tests below."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "OUT_DIR", tmp_path_factory.mktemp("traces"))
        yield {
            (name, trace): bench.run_benchmark(name, seed=3, seconds=0,
                                               trace=trace, size="tiny")
            for name in NAMES for trace in (0, 1)
        }


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, name, trace):
    result, detail = tiny_runs[name, trace]
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {key: metric["unit"] for key, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0
    for key in ("nproc", "python", "platform", "numpy", "backend", "seed",
                "loadavg_1m"):
        assert key in detail["host"]


@pytest.mark.parametrize("name", ["fig10_np57", "trade_run"])
def test_straight_runs_publish_nothing(tiny_runs, name):
    result, _detail = tiny_runs[name, 1]
    assert result["metrics"]["obs.publishes_per_job"]["value"] == 0


def test_check_farm_exercises_the_probe_bus_and_farm(tiny_runs):
    metrics = tiny_runs["check_farm", 1][0]["metrics"]
    assert metrics["obs.publishes_per_job"]["value"] > 0
    assert metrics["farm.worker_busy_share"]["value"] > 0
    assert metrics["hardware.cost_calls_per_job"]["value"] == 0


def test_planted_digest_mismatch_is_a_failure(monkeypatch, tmp_path):
    real = workloads.digest
    calls = itertools.count()
    monkeypatch.setattr(
        workloads, "digest",
        lambda value: real(value) if next(calls) == 0 else "planted")
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    result, detail = bench.run_benchmark("trade_run", seed=0, seconds=0,
                                         trace=0, size="tiny")
    assert not result["correct"]
    assert result["failed"] >= 1 and detail["failed_ratio"] > 0
    assert any("differs from the first repetition" in failure
               for failure in detail["failures"])


@pytest.mark.parametrize("cls", [workloads.Fig10, workloads.TradeRun])
def test_seed_reaches_the_program(cls):
    size = workloads.SIZES["tiny"]
    one = cls(1, size).run_op()["sim"]
    two = cls(2, size).run_op()["sim"]
    assert one["sim_response_p50_us"] != two["sim_response_p50_us"]
    assert cls(1, size).run_op()["sim"] == one


def test_check_farm_seed_reaches_the_report():
    size = workloads.SIZES["tiny"]
    assert workloads.CheckFarm(1, size).reference()["digest"] \
        != workloads.CheckFarm(2, size).reference()["digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trade_run",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_the_union_of_parallel_children():
    tracer = Tracer()
    # parent 0..100, two children overlapping 10..60 and 40..80, and 5 ns
    # of aggregated calls charged to the parent
    tracer.spans = [
        [1, 0, 0, "batch", "farm", 0, 100, 1, 5],
        [2, 0, 1, "item", "farm", 10, 60, 2, 0],
        [3, 0, 1, "item", "farm", 40, 80, 3, 0],
    ]
    assert tracer.self_ns_by_name() == {"batch": 100 - 70 - 5, "item": 90}
    from repro.obs.export import validate_chrome_trace
    assert validate_chrome_trace(tracer.chrome_trace()) == 3 + 3
