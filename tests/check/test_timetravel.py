"""Check-artifact time-travel: barrier mapping and attested replay."""

import contextlib

import pytest

from repro.check.runner import CheckReport, run_scenario
from repro.check.scenario import generate_scenario
from repro.check.shrink import make_artifact
from repro.check.timetravel import (
    artifact_check_spec,
    divergence_probe_index,
    divergence_snapshot,
    replay_from_snapshot,
)
from repro.snapshot import (
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


def _artifact(seed=2, divergences=None):
    scenario = generate_scenario(seed)
    report = CheckReport(scenario)
    if divergences:
        report.divergences.extend(divergences)
    return make_artifact(scenario, report)


class TestSpecMapping:
    def test_conformance_artifact_rides_zero_costs(self):
        artifact = _artifact(divergences=[
            {"kind": "event_mismatch", "detail": "trace position 7"},
        ])
        spec = artifact_check_spec(artifact)
        assert spec["cost_model"] == "zero"
        assert spec["noise_seed"] == 0
        assert spec["kind"] == "check"

    def test_probe_index_extraction(self):
        artifact = _artifact(divergences=[
            {"kind": "event_mismatch",
             "detail": "first stream divergence at event 40"},
        ])
        assert divergence_probe_index(artifact) == 40
        assert divergence_probe_index(_artifact()) is None
        assert divergence_probe_index(_artifact(divergences=[
            {"kind": "event_mismatch", "detail": "trace position 7"},
        ])) is None


class TestBarrierMapping:
    def test_probe_index_maps_to_pre_divergence_barrier(self):
        artifact = _artifact(divergences=[
            {"kind": "event_mismatch",
             "detail": "first stream divergence at event 40"},
        ])
        document, info = divergence_snapshot(artifact)
        assert info["barrier_source"] == "divergence_probe_index"
        assert info["probe_index"] == 40
        assert 0 < info["barrier"] < info["total_events"]
        # the snapshot really sits at the computed barrier
        run = restore(document)
        assert run.kernel.engine.events_processed == info["barrier"]

    def test_positionless_failure_falls_back_to_midpoint(self):
        artifact = _artifact(divergences=[
            {"kind": "event_mismatch", "detail": "trace position 7"},
        ])
        document, info = divergence_snapshot(artifact)
        assert info["barrier_source"] == "midpoint"
        assert info["probe_index"] is None
        assert info["barrier"] == info["total_events"] // 2

    def test_out_of_range_probe_index_falls_back(self):
        artifact = _artifact(divergences=[
            {"kind": "event_mismatch",
             "detail": "first stream divergence at event 10000000"},
        ])
        _document, info = divergence_snapshot(artifact)
        assert info["barrier_source"] == "midpoint"
        assert info["probe_index"] is None


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
