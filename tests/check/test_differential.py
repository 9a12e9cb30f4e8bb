"""Lockstep differential: zero divergences on conforming runs, and the
canonicalizer/compare layer on synthetic streams."""

import pytest

from repro.check.differential import (
    TOLERANCE,
    compare_traces,
    normalize_middleware,
    normalize_simulator,
)
from repro.check.runner import run_scenario, run_simulator
from repro.check.scenario import Scenario, ScenarioTask, generate_scenario
from repro.snapshot.programs import CheckProgram

pytestmark = pytest.mark.tier1


def _single_task_scenario(optionals=(30e6,), optional_deadline=40e6,
                          mandatory=2e6, n_jobs=1):
    task = ScenarioTask(
        name="tau",
        mandatory=mandatory,
        optionals=list(optionals),
        windup=1e6,
        period=50e6,
        cpu=0,
        optional_cpus=[1] * len(optionals),
        n_jobs=n_jobs,
        optional_deadline=optional_deadline,
    )
    return Scenario(n_cpus=2, start_time=50e6, tasks=[task])


def _middleware_events(scenario):
    """The probe events of the scenario's check run."""
    run = CheckProgram({"scenario": scenario.to_dict()})
    run.build().spawn().drain()
    return run.events


class TestConformance:
    def test_generated_scenarios_have_zero_divergences(self):
        for seed in range(25):
            report = run_scenario(generate_scenario(seed))
            assert report.ok, f"seed {seed}: {report.summary()}"
            assert report.differential_ran

    def test_early_windup_deviation_is_tolerated(self):
        # part completes well before the OD: the middleware winds up
        # immediately (Figure 6), the simulator at the OD — documented
        # deviation, canonicalized rather than reported
        scenario = _single_task_scenario(optionals=(10e6,))
        report = run_scenario(scenario)
        assert report.ok, report.summary()
        mw_events = _middleware_events(scenario)
        trace = normalize_middleware(mw_events, scenario)
        windups = [e for e in trace if e.kind == "windup_begin"]
        assert windups and windups[0].actual is not None
        assert windups[0].actual < windups[0].time

    def test_overrunning_part_needs_no_tolerance(self):
        scenario = _single_task_scenario(optionals=(60e6,))
        mw_events = _middleware_events(scenario)
        trace = normalize_middleware(mw_events, scenario)
        windups = [e for e in trace if e.kind == "windup_begin"]
        assert windups and windups[0].actual is None

    def test_dead_part_when_mandatory_overruns_od(self):
        # mandatory runs past the OD (Figure 2, tau2): the simulator
        # discards, the middleware terminates instantly-woken parts;
        # both canonicalize to part_dead at the OD
        scenario = _single_task_scenario(
            mandatory=45e6, optionals=(60e6,), optional_deadline=20e6,
        )
        report = run_scenario(scenario)
        assert report.ok, report.summary()
        sim_events, _ = run_simulator(scenario)
        mw_events = _middleware_events(scenario)
        for trace in (normalize_simulator(sim_events, scenario),
                      normalize_middleware(mw_events, scenario)):
            dead = [e for e in trace if e.kind == "part_dead"]
            assert len(dead) == 1
            assert dead[0].time == pytest.approx(20e6)


class TestCompare:
    def _trace(self, scenario):
        sim_events, _ = run_simulator(scenario)
        return normalize_simulator(sim_events, scenario)

    def test_identical_traces_compare_clean(self):
        scenario = _single_task_scenario()
        trace = self._trace(scenario)
        assert compare_traces(trace, trace, scenario) == []

    def test_time_skew_detected(self):
        scenario = _single_task_scenario()
        reference = self._trace(scenario)
        skewed = self._trace(scenario)
        skewed[3].time += 10 * TOLERANCE
        divergences = compare_traces(reference, skewed, scenario)
        assert [(d["kind"], d["time"]) for d in divergences] == [
            ("time_skew", scenario.start_time + reference[3].time),
        ]

    def test_sub_tolerance_skew_ignored(self):
        scenario = _single_task_scenario()
        reference = self._trace(scenario)
        skewed = self._trace(scenario)
        for event in skewed:
            event.time += TOLERANCE / 4
        assert compare_traces(reference, skewed, scenario) == []

    def test_event_mismatch_stops_at_desync(self):
        scenario = _single_task_scenario()
        reference = self._trace(scenario)
        mangled = self._trace(scenario)
        mangled[2], mangled[3] = mangled[3], mangled[2]
        divergences = compare_traces(reference, mangled, scenario)
        assert divergences[0]["kind"] == "event_mismatch"
        assert len(divergences) == 1  # desynchronized: stop, don't spam
        # the kernel time of the earlier of the two differing events
        assert divergences[0]["time"] \
            == scenario.start_time + reference[2].time

    def test_length_mismatch_detected(self):
        scenario = _single_task_scenario()
        reference = self._trace(scenario)
        truncated = self._trace(scenario)[:-1]
        divergences = compare_traces(reference, truncated, scenario)
        assert [(d["kind"], d["time"]) for d in divergences] == [
            ("length_mismatch", scenario.start_time + reference[-1].time),
        ]

    def test_divergences_are_json_serializable(self):
        import json

        scenario = _single_task_scenario()
        reference = self._trace(scenario)
        skewed = self._trace(scenario)
        skewed[1].time += 1.0
        divergences = compare_traces(reference, skewed, scenario)
        assert divergences
        json.dumps(divergences)
