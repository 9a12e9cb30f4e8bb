"""Core-shaped check runs: one Xeon Phi core per run.

A core scenario (``generate_core_scenario``) shares its three NRT
threads among all of its tasks once it holds more than three, so the
theory differential's precondition
(``Scenario.task_owned_optional_cpus``) fails and the run is judged by
the oracles alone; with one to three tasks every task owns its NRT
thread and the differential runs.  A failing core gets what any check
failure gets: the shrinker, the artifact, ``--replay`` and
``--from-snapshot``.
"""

import io
import json
import re

import pytest

import repro.simkernel.kernel as kernel_mod
from repro.check import load_artifact, replay_artifact, run_scenario
from repro.check.scenario import generate_core_scenario
from repro.check.timetravel import (
    divergence_snapshot,
    failure_time,
    replay_from_snapshot,
)
from repro.cli import main
from repro.farm import farm_check
from repro.snapshot import load_snapshot, restore, write_snapshot

pytestmark = pytest.mark.tier1


@pytest.mark.parametrize("n_tasks", [4, 8, 36])
def test_shared_cpu_core_runs_oracle_only(n_tasks):
    scenario = generate_core_scenario(1, n_tasks=n_tasks)
    assert not scenario.task_owned_optional_cpus
    report = run_scenario(scenario)
    assert report.ok, report.summary()
    assert not report.differential_ran


@pytest.mark.parametrize("n_tasks", [1, 2, 3])
def test_core_with_a_thread_per_task_passes_the_differential(n_tasks):
    for seed in range(3):
        scenario = generate_core_scenario(seed, n_tasks=n_tasks)
        assert scenario.n_cpus == 4
        assert scenario.task_owned_optional_cpus
        report = run_scenario(scenario)
        assert report.differential_ran
        assert report.ok, report.summary()


def test_planted_bug_in_a_core_batch_shrinks_and_replays(monkeypatch,
                                                         tmp_path):
    # a higher-priority arrival never preempts the running thread
    monkeypatch.setattr(kernel_mod.IndexedLevelQueue, "highest_priority",
                        lambda self: None)
    document, result = farm_check(4, seed=0, tasks_per_core=8,
                                  max_failures=1, workers=1)
    assert result.ok
    assert document["total_failures"] >= 1
    artifact = document["failures"][0]
    assert "priority_conformance" in artifact["failure_kinds"]
    assert len(artifact["scenario"]["tasks"]) <= 3

    kinds = set(artifact["failure_kinds"])
    assert set(replay_artifact(artifact).failure_kinds()) & kinds
    snapshot, _info = divergence_snapshot(artifact)
    report, _payload = replay_from_snapshot(snapshot)
    assert set(report.failure_kinds()) & kinds

    path = tmp_path / "repro.json"
    path.write_text(json.dumps(artifact))
    snapshot_path = tmp_path / "repro-snapshot.json"
    write_snapshot(str(snapshot_path), snapshot)
    for argv in (["check", "--replay", str(path)],
                 ["check", "--replay", str(path),
                  "--from-snapshot", str(snapshot_path)]):
        out = io.StringIO()
        assert main(argv, out=out) == 0, out.getvalue()
        assert "DID NOT REPRODUCE" not in out.getvalue()


def test_planted_batch_snapshots_sit_before_each_first_failure(
        monkeypatch, tmp_path):
    """Every artifact ``repro check --artifacts`` writes for the planted
    batch names its first failure's time, so its snapshot lands just
    before that failure instead of at the run's midpoint, and still
    replays with the artifact's kinds."""
    monkeypatch.setattr(kernel_mod.IndexedLevelQueue, "highest_priority",
                        lambda self: None)
    out = io.StringIO()
    argv = ["check", "--runs", "4", "--seed", "0", "--tasks-per-core",
            "8", "--artifacts", str(tmp_path)]
    assert main(argv, out=out) == 1
    written = re.findall(
        r"wrote (\S+)-snapshot\.json \(barrier \d+/\d+ events, (\w+)\)",
        out.getvalue(),
    )
    assert [source for _stem, source in written] == ["failure_time"] * 4
    for stem, _source in written:
        artifact = load_artifact(f"{stem}.json")
        snapshot = load_snapshot(f"{stem}-snapshot.json")
        when = failure_time(artifact)
        run = restore(snapshot)
        assert run.events
        assert all(time < when for _topic, time, _data in run.events)
        report, _payload = replay_from_snapshot(snapshot)
        assert report.failure_kinds() == artifact["failure_kinds"]

        replay = io.StringIO()
        assert main(["check", "--replay", f"{stem}.json",
                     "--from-snapshot", f"{stem}-snapshot.json"],
                    out=replay) == 0, replay.getvalue()
        assert "DID NOT REPRODUCE" not in replay.getvalue()


def test_artifact_describes_its_shrunk_scenario(monkeypatch):
    """Regression: the artifact paired the shrunk scenario with the
    unshrunk run's report, so ``repro check`` printed a FAIL line (16
    violations on cpu0) that ``--replay`` did not give (1 violation on
    cpu2)."""
    monkeypatch.setattr(kernel_mod.IndexedLevelQueue, "highest_priority",
                        lambda self: None)
    document, result = farm_check(4, seed=0, tasks_per_core=8,
                                  max_failures=1, workers=1)
    assert result.ok
    artifact = document["failures"][0]
    assert artifact["shrink_runs"] > 0
    replayed = replay_artifact(artifact)
    assert replayed.summary() == artifact["summary"]
    assert replayed.failure_kinds() == artifact["failure_kinds"]
    assert replayed.to_dict() == artifact["report"]
    assert artifact["report"]["flight"]["events"]
