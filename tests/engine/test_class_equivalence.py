"""Equivalence of the two simulators through the shared scheduling core.

The theory-level :class:`ScheduleSimulator` dispatches from heaps keyed
by the RMWP band class
(:class:`~repro.engine.classes.RMWPBandClass`); the RT-Seed middleware
plans SCHED_FIFO levels from the same class's task order (Figure 5) and
the simulated kernel runs them.  With overheads zeroed they must
therefore produce *identical* mandatory/wind-up schedules, which is
exactly what the paper's Theorems 1 and 2 guarantee analytically:
parallel optional parts never perturb the real-time schedule, and the
wind-up part's start is fixed by the optional deadline.

Every workload here has *overrunning* optional parts on optional CPUs
that each belong to one task, the regime where the strict RMWP
semantics (wind-up at the OD) and the middleware's Figure 6 protocol
coincide.
"""

import pytest

from repro.core import RTSeed, WorkloadTask
from repro.model import (
    ParallelExtendedImpreciseTask,
    TaskSet,
)
from repro.sched.simulator import ScheduleSimulator
from repro.simkernel import Topology
from repro.simkernel.cpu import uniform_share
from repro.simkernel.time_units import MSEC, SEC

pytestmark = pytest.mark.tier1


def _machine(n_cores=8):
    """Single-thread cores: no SMT rate sharing, so zero-cost kernel
    execution is unit-speed like the theory simulator."""
    return Topology(n_cores, 1, share_fn=uniform_share,
                    background_weight=0.0)


def _job_marks(probe):
    """The four real-time schedule boundaries of one middleware job,
    relative to its release."""
    return (
        probe.mandatory_start - probe.release,
        probe.mandatory_end - probe.release,
        probe.windup_start - probe.release,
        probe.windup_end - probe.release,
    )


def _sim_marks(job):
    return (
        job.mandatory_started - job.release,
        job.mandatory_completed - job.release,
        job.windup_started - job.release,
        job.windup_completed - job.release,
    )


def _assert_equivalent(mw_task_result, sim_result, task_name):
    sim_jobs = sim_result.jobs_of(task_name)
    assert len(mw_task_result.probes) == len(sim_jobs)
    for probe, job in zip(mw_task_result.probes, sim_jobs):
        assert _job_marks(probe) == pytest.approx(_sim_marks(job)), \
            f"{task_name} job {probe.job_index}"
        assert probe.optional_time_executed == pytest.approx(
            job.optional_time_executed
        )


def test_single_task_schedules_match():
    """The paper's evaluation workload: one task whose optional parts
    always overrun the OD."""
    n_parallel = 3
    middleware = RTSeed(topology=_machine(), cost_model="zero")
    task = WorkloadTask("tau1", 250 * MSEC, 1 * SEC, 250 * MSEC, 1 * SEC,
                        n_parallel=n_parallel)
    middleware.add_task(task, n_jobs=3, optional_cpus=[1, 2, 3],
                        optional_deadline=750 * MSEC)
    mw_result = middleware.run().tasks["tau1"]

    model = ParallelExtendedImpreciseTask(
        "tau1", 250 * MSEC, [1 * SEC] * n_parallel, 250 * MSEC, 1 * SEC
    )
    sim = ScheduleSimulator(
        TaskSet([model], n_processors=4),
        policy="rmwp",
        optional_assignment={"tau1": [1, 2, 3]},
    ).run(until=3 * SEC, max_jobs_per_task=3)

    _assert_equivalent(mw_result, sim, "tau1")


def test_two_tasks_one_cpu_preemption_schedules_match():
    """Two tasks sharing CPU 0: the lower-priority task's parts are
    preempted mid-flight, so equivalence requires identical preemption
    decisions from both drivers, not just identical planning."""
    specs = [
        # name, mandatory, optional, windup, period
        ("hi", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC),
        ("lo", 150 * MSEC, 2 * SEC, 150 * MSEC, 2 * SEC),
    ]
    middleware = RTSeed(topology=_machine(), cost_model="zero")
    for index, (name, m, o, w, period) in enumerate(specs):
        task = WorkloadTask(name, m, o, w, period, n_parallel=1)
        # align first releases so job i maps to the simulator's job i
        middleware.add_task(task, n_jobs=3, cpu=0,
                            optional_cpus=[2 + index],
                            start_time=2 * SEC)
    mw_result = middleware.run()

    models = [
        ParallelExtendedImpreciseTask(name, m, [o], w, period)
        for name, m, o, w, period in specs
    ]
    sim = ScheduleSimulator(
        TaskSet(models, n_processors=4),
        policy="rmwp",
        assignment={"hi": 0, "lo": 0},
        optional_assignment={"hi": [2], "lo": [3]},
    ).run(until=6 * SEC, max_jobs_per_task=3)

    for name, *_ in specs:
        _assert_equivalent(mw_result.tasks[name], sim, name)


def test_parallel_optional_parts_do_not_perturb_rt_schedule():
    """Theorem 1, checked on the shared core: the mandatory/wind-up
    schedule with parallel optional parts equals the schedule with all
    optional parts removed."""
    def build(optional):
        return TaskSet(
            [
                ParallelExtendedImpreciseTask(
                    "a", 1.0, [optional] * 2, 1.0, 8.0
                ),
                ParallelExtendedImpreciseTask(
                    "b", 2.0, [optional] * 2, 1.0, 16.0
                ),
            ],
            n_processors=3,
        )

    def run(taskset):
        return ScheduleSimulator(
            taskset,
            policy="rmwp",
            assignment={"a": 0, "b": 0},
            optional_assignment={"a": [1, 2], "b": [1, 2]},
        ).run(until=32.0)

    with_optional = run(build(optional=50.0))     # massively overruns
    without_optional = run(build(optional=0.0))
    from repro.sched.simulator import SimulationResult

    assert SimulationResult.schedules_equal(
        with_optional.mandatory_windup_schedule(),
        without_optional.mandatory_windup_schedule(),
    )
    # and the optional runs did happen in the first variant
    assert with_optional.total_optional_time > 0

