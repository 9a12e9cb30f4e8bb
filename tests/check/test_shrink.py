"""Shrinker: descent, invariant preservation, artifact round-trip."""

import pytest

from repro.check.runner import CheckReport
from repro.check.scenario import Scenario, ScenarioTask, generate_scenario
from repro.check.shrink import (
    _candidates,
    failure_predicate,
    load_artifact,
    make_artifact,
    replay_artifact,
    save_artifact,
    shrink_scenario,
)

pytestmark = pytest.mark.tier1


def _weight(scenario):
    return (
        len(scenario.tasks)
        + sum(t.n_parallel for t in scenario.tasks)
        + sum(t.n_jobs for t in scenario.tasks)
        + (1 if scenario.has_faults else 0)
        + sum(sum(t.optionals) for t in scenario.tasks) / 1e12
    )


class TestCandidates:
    def test_candidates_are_strictly_smaller(self):
        scenario = generate_scenario(4, fault_rate=1.0)
        weight = _weight(scenario)
        candidates = list(_candidates(scenario))
        assert candidates
        for candidate in candidates:
            assert _weight(candidate) < weight

    def test_candidates_preserve_generator_invariants(self):
        scenario = generate_scenario(4)
        for candidate in _candidates(scenario):
            for task in candidate.tasks:
                assert task.n_parallel >= 1
                assert task.n_jobs >= 1
                if len(candidate.tasks) > 1:
                    # multi-task: parts must still overrun their OD
                    for length in task.optionals:
                        assert length >= task.optional_deadline


class TestShrink:
    def test_shrinks_to_single_culprit_task(self):
        scenario = None
        for seed in range(20):
            scenario = generate_scenario(seed)
            if len(scenario.tasks) >= 2:
                break
        assert len(scenario.tasks) >= 2
        culprit = scenario.tasks[-1].name

        def still_fails(candidate):
            return any(task.name == culprit for task in candidate.tasks)

        small, runs = shrink_scenario(scenario, still_fails)
        assert [task.name for task in small.tasks] == [culprit]
        assert small.tasks[0].n_jobs == 1
        assert small.tasks[0].n_parallel == 1
        assert runs > 0

    def test_run_budget_respected(self):
        scenario = generate_scenario(4)
        _small, runs = shrink_scenario(scenario, lambda c: True,
                                       max_runs=5)
        assert runs <= 5

    def test_unshrinkable_failure_returns_original(self):
        scenario = generate_scenario(4)
        small, _runs = shrink_scenario(scenario, lambda c: False)
        assert small.to_dict() == scenario.to_dict()

    def test_predicate_requires_overlapping_failure_kind(self):
        report = CheckReport(generate_scenario(0))
        report.violations.append(
            {"oracle": "signal_mask", "time": 0, "detail": "x"}
        )

        def fake_run(candidate, kinds=iter(["signal_mask", "liveness"])):
            result = CheckReport(candidate)
            result.violations.append(
                {"oracle": next(kinds), "time": 0, "detail": "y"}
            )
            return result

        predicate = failure_predicate(report.failure_kinds(),
                                      run=fake_run)
        assert predicate(report.scenario) is True   # same kind
        assert predicate(report.scenario) is False  # unrelated kind


class TestArtifacts:
    def test_round_trip_and_replay(self, tmp_path):
        scenario = generate_scenario(2)
        report = CheckReport(scenario)
        report.crash = "synthetic"
        artifact = make_artifact(report, shrink_runs=7)
        path = tmp_path / "repro.json"
        save_artifact(path, artifact)
        loaded = load_artifact(path)
        assert loaded == artifact
        assert loaded["failure_kinds"] == ["crash"]
        assert loaded["shrink_runs"] == 7
        # replay runs the stored scenario through the real checker; the
        # unmutated middleware passes it
        fresh = replay_artifact(loaded)
        assert fresh.ok

    def test_unknown_artifact_schema_rejected(self, tmp_path):
        scenario = generate_scenario(2)
        artifact = make_artifact(CheckReport(scenario))
        artifact["schema"] = "bogus/9"
        path = tmp_path / "repro.json"
        save_artifact(path, artifact)
        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)
