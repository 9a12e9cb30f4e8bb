"""Check-artifact time-travel: barrier mapping and attested replay."""

import contextlib

import pytest

from repro.check.runner import CheckReport, run_scenario
from repro.check.scenario import generate_scenario
from repro.check.shrink import make_artifact
from repro.check.timetravel import (
    artifact_check_spec,
    divergence_snapshot,
    failure_time,
    replay_from_snapshot,
)
from repro.snapshot import (
    CheckProgram,
    SnapshotError,
    build_program,
    restore,
    snapshot,
)
from tests.engine.reference import model_core

pytestmark = pytest.mark.tier1

# where the uninterrupted run that judges a replay executes: the
# execution core, or its model
FULL_RUN_CORES = {"fast": contextlib.nullcontext, "reference": model_core}


def _artifact(seed=2, divergences=None, violations=None, crash=None):
    scenario = generate_scenario(seed)
    report = CheckReport(scenario)
    if divergences:
        report.divergences.extend(divergences)
    if violations:
        report.violations.extend(violations)
    report.crash = crash
    return make_artifact(report)


def _probe_times(seed=2):
    """Probe times of the scenario's check run, in stream order."""
    run = CheckProgram({"scenario": generate_scenario(seed).to_dict()})
    run.build().spawn().drain()
    return [time for _topic, time, _data in run.events]


def _restored_split(document):
    """The restored run's check events at the barrier, then the rest
    once the run is finished."""
    run = restore(document)
    at_barrier = list(run.events)
    run.finish()
    return at_barrier, run.events[len(at_barrier):]


class TestSpecMapping:
    def test_conformance_artifact_rides_zero_costs(self):
        artifact = _artifact(divergences=[
            {"kind": "event_mismatch", "detail": "trace position 7"},
        ])
        spec = artifact_check_spec(artifact)
        assert spec["cost_model"] == "zero"
        assert spec["noise_seed"] == 0
        assert spec["kind"] == "check"

    def test_failure_time_is_the_first_timed_failure(self):
        artifact = _artifact(
            divergences=[
                {"kind": "time_skew", "detail": "d", "time": 5e8},
                {"kind": "event_mismatch", "detail": "trace position 7"},
            ],
            violations=[
                {"oracle": "fifo_order", "time": 3e8, "detail": "v"},
                {"oracle": "protocol_completeness", "time": None,
                 "detail": "never reached job_done"},
            ],
        )
        assert failure_time(artifact) == 3e8
        assert failure_time(_artifact()) is None
        assert failure_time(_artifact(crash="SimKernelError: boom")) \
            is None
        assert failure_time(_artifact(violations=[
            {"oracle": "protocol_completeness", "time": None,
             "detail": "never reached job_done"},
        ])) is None


class TestBarrierMapping:
    def test_failure_time_maps_to_a_pre_failure_barrier(self):
        times = _probe_times()
        when = times[len(times) // 2]
        artifact = _artifact(divergences=[
            {"kind": "time_skew", "detail": "d", "time": when},
        ])
        document, info = divergence_snapshot(artifact)
        assert info["barrier_source"] == "failure_time"
        assert info["failure_time"] == when
        assert 0 < info["barrier"] < info["total_events"]
        # the snapshot sits at the barrier: every probe before it is
        # earlier than the failure, and the next one is at the failure
        assert restore(document).kernel.engine.events_processed \
            == info["barrier"]
        before, after = _restored_split(document)
        assert before and all(time < when for _t, time, _d in before)
        assert after[0][1] == when

    def test_positionless_failure_falls_back_to_midpoint(self):
        for artifact in (
            _artifact(divergences=[
                {"kind": "event_mismatch", "detail": "trace position 7"},
            ]),
            _artifact(crash="SimKernelError: boom"),
        ):
            document, info = divergence_snapshot(artifact)
            assert info["barrier_source"] == "midpoint"
            assert info["failure_time"] is None
            assert info["barrier"] == info["total_events"] // 2

    def test_failure_past_the_last_probe_maps_to_the_last_probe(self):
        artifact = _artifact(violations=[
            {"oracle": "liveness", "time": 1e18, "detail": "stuck"},
        ])
        document, info = divergence_snapshot(artifact)
        assert info["barrier_source"] == "failure_time"
        assert info["barrier"] <= info["total_events"]
        before, after = _restored_split(document)
        assert len(before) == len(_probe_times()) and after == []


class TestReplay:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_replay_judges_like_a_full_run(self, engine):
        artifact = _artifact(seed=3, divergences=[
            {"kind": "event_mismatch", "detail": "trace position 7"},
        ])
        document, _info = divergence_snapshot(artifact)
        report, payload = replay_from_snapshot(document)
        with FULL_RUN_CORES[engine]():
            reference = run_scenario(
                generate_scenario(artifact["scenario"]["seed"]))
        assert report.failure_kinds() == reference.failure_kinds()
        assert report.divergences == reference.divergences
        assert report.violations == reference.violations
        assert payload["program"]["kind"] == "check"

    def test_replay_refuses_non_check_snapshots(self):
        run = build_program({"kind": "trade", "seconds": 4,
                             "seed": 3}).start()
        document = snapshot(run, at_events=200)
        with pytest.raises(SnapshotError, match="not a check"):
            replay_from_snapshot(document)
