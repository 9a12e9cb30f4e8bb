"""Scenario generation: determinism, structure invariants, round-trip."""

import pytest

from repro.check.scenario import (
    FAULT_SITE_MENU,
    PERIOD_MENU,
    Scenario,
    ScenarioTask,
    generate_scenario,
)
from repro.sched.rmwp import RMWP

pytestmark = pytest.mark.tier1


def _spec(name="tau", cpu=0, optional_cpus=(1,), **overrides):
    data = {
        "name": name,
        "mandatory": 2e6,
        "optionals": [5e6] * len(optional_cpus),
        "windup": 1e6,
        "period": 50e6,
        "cpu": cpu,
        "optional_cpus": list(optional_cpus),
        "n_jobs": 2,
        "optional_deadline": 40e6,
    }
    data.update(overrides)
    return ScenarioTask.from_dict(data)


class TestGeneration:
    def test_same_seed_same_scenario(self):
        assert (generate_scenario(7).to_dict()
                == generate_scenario(7).to_dict())

    def test_different_seeds_differ(self):
        dicts = {str(generate_scenario(seed).to_dict())
                 for seed in range(10)}
        assert len(dicts) > 1

    def test_structure_invariants(self):
        for seed in range(30):
            scenario = generate_scenario(seed)
            assert 2 <= scenario.n_cpus <= 4
            assert scenario.tasks
            periods = {task.period for task in scenario.tasks}
            assert periods <= set(float(p) for p in PERIOD_MENU)
            assert scenario.start_time == max(periods)
            rt_cpus = {task.cpu for task in scenario.tasks}
            part_cpus = {cpu for task in scenario.tasks
                         for cpu in task.optional_cpus}
            # optional parts never share a CPU with RT-band work
            assert not rt_cpus & part_cpus
            # every optional CPU is owned by exactly one task
            owners = {}
            for task in scenario.tasks:
                for cpu in task.optional_cpus:
                    assert owners.setdefault(cpu, task.name) == task.name

    def test_overrun_clamp_in_multi_task_scenarios(self):
        checked = 0
        for seed in range(40):
            scenario = generate_scenario(seed)
            if len(scenario.tasks) < 2:
                continue
            checked += 1
            for task in scenario.tasks:
                for length in task.optionals:
                    assert length >= task.optional_deadline
        assert checked > 0

    def test_partitions_are_rmwp_schedulable(self):
        for seed in range(20):
            scenario = generate_scenario(seed)
            by_cpu = {}
            for task in scenario.tasks:
                by_cpu.setdefault(task.cpu, []).append(task.to_model())
            for group in by_cpu.values():
                assert RMWP.is_schedulable(group)

    def test_fault_rate_zero_never_faults(self):
        assert not any(generate_scenario(seed).has_faults
                       for seed in range(20))

    def test_fault_plans_use_safe_sites(self):
        seen = set()
        for seed in range(60):
            scenario = generate_scenario(seed, fault_rate=1.0)
            if not scenario.has_faults:
                continue
            plan = scenario.build_fault_plan()
            for spec in plan.specs:
                seen.add(spec.site)
        assert seen and seen <= set(FAULT_SITE_MENU)


class TestRoundTrip:
    def test_scenario_round_trip(self):
        for seed in (0, 3, 11):
            scenario = generate_scenario(seed, fault_rate=0.5)
            again = Scenario.from_dict(scenario.to_dict())
            assert again.to_dict() == scenario.to_dict()

    def test_unknown_schema_rejected(self):
        data = generate_scenario(0).to_dict()
        data["schema"] = "repro-check/999"
        with pytest.raises(ValueError, match="schema"):
            Scenario.from_dict(data)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Scenario(n_cpus=2, start_time=50e6,
                     tasks=[_spec("a"), _spec("a")])

    def test_cpu_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Scenario(n_cpus=2, start_time=50e6,
                     tasks=[_spec(optional_cpus=[5])])

    def test_task_shape_validation(self):
        with pytest.raises(ValueError, match="optional CPUs"):
            _spec(optional_cpus=[1, 2], optionals=[5e6])
        with pytest.raises(ValueError, match="job"):
            _spec(n_jobs=0)


def _owns_optional_cpus(scenario):
    """The ownership rule of ``test_structure_invariants``, inline."""
    rt_cpus = {task.cpu for task in scenario.tasks}
    owners = {}
    for task in scenario.tasks:
        for cpu in task.optional_cpus:
            if cpu in rt_cpus:
                return False
            if owners.setdefault(cpu, task.name) != task.name:
                return False
    return True


class TestDifferentialPrecondition:
    def test_agrees_with_the_inline_rule_on_generated_scenarios(self):
        faulted = 0
        for seed in range(60):
            scenario = generate_scenario(seed, fault_rate=0.5)
            faulted += scenario.has_faults
            assert (scenario.task_owned_optional_cpus
                    == _owns_optional_cpus(scenario))
            assert scenario.task_owned_optional_cpus
        assert faulted > 0

    def test_hand_written_violations(self):
        shared = Scenario(n_cpus=3, start_time=50e6, tasks=[
            _spec("a", optional_cpus=[1]), _spec("b", optional_cpus=[1]),
        ])
        on_rt_band = Scenario(n_cpus=3, start_time=50e6, tasks=[
            _spec("a", cpu=0, optional_cpus=[1]),
            _spec("b", cpu=1, optional_cpus=[2]),
        ])
        siblings = Scenario(n_cpus=3, start_time=50e6, tasks=[
            _spec("a", optional_cpus=[1, 1]), _spec("b", optional_cpus=[2]),
        ])
        for scenario, owned in ((shared, False), (on_rt_band, False),
                                (siblings, True)):
            assert scenario.task_owned_optional_cpus is owned
            assert _owns_optional_cpus(scenario) is owned
