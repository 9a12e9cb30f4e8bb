"""Flight-recorder snapshots ride into check reports on failure."""

import pytest

import repro.check.runner as runner
from repro.check.scenario import generate_scenario

pytestmark = pytest.mark.tier1


def test_clean_run_attaches_no_flight():
    report = runner.run_scenario(generate_scenario(0))
    assert report.ok
    assert report.flight is None
    assert report.to_dict()["flight"] is None


def test_failing_scenario_attaches_flight_snapshot(monkeypatch):
    monkeypatch.setattr(
        runner, "check_final_state",
        lambda kernel: [{"oracle": "planted", "detail": "boom"}],
    )
    report = runner.run_scenario(generate_scenario(0))
    assert not report.ok
    snapshot = report.flight
    assert snapshot["header"]["reason"] == "check_failure"
    assert snapshot["header"]["seed"] == report.scenario.seed
    assert snapshot["events"], "ring should hold the run's probe tail"
    assert report.to_dict()["flight"] is snapshot
