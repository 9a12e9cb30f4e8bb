"""Determinism regression tests.

Two runs of either simulator with the same seed/configuration must
produce *byte-identical* traces — including the FIFO processing order of
simultaneous events (synchronous releases, optional-deadline timers all
firing at the same instant).  Reproducibility is what makes the paper's
figures regenerable; any nondeterminism (iteration over an unordered
container, id()-dependent tie-breaks, heap instability) shows up here as
a diff between the two serialized traces.
"""

from repro.core import RTSeed, WorkloadTask
from repro.model import TaskSet
from repro.model.generator import TaskSetGenerator
from repro.sched.simulator import ScheduleSimulator
from repro.simkernel import Topology
from repro.simkernel.cpu import uniform_share
from repro.simkernel.time_units import MSEC, SEC

import pytest

pytestmark = pytest.mark.tier1


# ---------------------------------------------------------------------------
# theory-level simulator
# ---------------------------------------------------------------------------


def _seeded_taskset(seed, utilization=1.2):
    """A fresh (but seed-identical) parallel task set; harmonic periods
    guarantee many synchronous releases, i.e. simultaneous-event ties."""
    generator = TaskSetGenerator(seed=seed, harmonic_periods=[10, 20, 40])
    return generator.parallel_task_set(6, utilization, n_processors=2,
                                       parallel_range=(1, 3))


def _sim_trace(result):
    """Serialize every job's lifecycle and executed segments exactly."""
    lines = []
    for job in result.jobs:
        lines.append(
            f"{job.task.name}#{job.index} r={job.release!r} "
            f"mc={job.mandatory_completed!r} ws={job.windup_started!r} "
            f"wc={job.windup_completed!r} done={job.completed!r} "
            f"opt={job.optional_time_executed!r} "
            f"fates={[rec.fate for rec in job.optional_parts]}"
        )
        for start, end, part, cpu in sorted(job.segments):
            lines.append(f"  {start!r} {end!r} {part.value} cpu{cpu}")
    lines.append(f"migrations={result.migrations}")
    lines.append(f"events={result.events_processed}")
    return "\n".join(lines)


def _run_theory(seed, global_sched=False):
    # global mode computes ODs against single-queue worst-case
    # interference from the *whole* set, so it needs more headroom
    taskset = _seeded_taskset(seed, utilization=0.5 if global_sched
                              else 1.2)
    assignment = {
        task.name: index % 2 for index, task in enumerate(taskset)
    }
    sim = ScheduleSimulator(
        taskset,
        policy="rmwp",
        assignment=assignment,
        global_sched=global_sched,
    )
    return _sim_trace(sim.run(until=80.0))


def test_theory_simulator_partitioned_runs_are_byte_identical():
    first = _run_theory(seed=11)
    second = _run_theory(seed=11)
    assert first.encode() == second.encode()


def test_theory_simulator_global_runs_are_byte_identical():
    first = _run_theory(seed=13, global_sched=True)
    second = _run_theory(seed=13, global_sched=True)
    assert first.encode() == second.encode()


def test_theory_simulator_seed_actually_matters():
    """Guard against the trivial pass where the trace ignores the
    workload entirely."""
    assert _run_theory(seed=11) != _run_theory(seed=12)


def test_simultaneous_releases_tie_break_in_task_order():
    """Three identical-period tasks all release at t=0, t=P, ...; the
    FIFO event order (and the name tie-break in the ready queue) must
    pin the dispatch order deterministically."""
    from repro.model import ExtendedImpreciseTask

    def run():
        tasks = [
            ExtendedImpreciseTask(name, 1.0, 2.0, 1.0, 12.0)
            for name in ("a", "b", "c")
        ]
        sim = ScheduleSimulator(TaskSet(tasks), policy="rmwp")
        return _sim_trace(sim.run(until=36.0))

    first, second = run(), run()
    assert first.encode() == second.encode()
    # equal periods: rank (hence dispatch at t=0) falls back to the name
    order = [line.split("#")[0] for line in first.splitlines()
             if line.startswith(("a#", "b#", "c#"))]
    assert order[:3] == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# kernel-level simulator (middleware on the simulated kernel)
# ---------------------------------------------------------------------------


def _run_middleware(seed):
    """Run the middleware with the calibrated (noisy, seeded) cost model
    and capture the kernel's full event trace."""
    topology = Topology(4, 2, share_fn=uniform_share,
                        background_weight=0.0)
    middleware = RTSeed(topology=topology, seed=seed)
    trace = []
    middleware.probes.subscribe(
        lambda topic, time, data: trace.append(
            f"{time!r} {topic} {data['thread']}"
        ),
        topics=("kernel.*",),
    )
    # two same-period tasks: their releases and OD timers always fire in
    # pairs at the same instant -> simultaneous-event FIFO order matters
    for task_name in ("tau1", "tau2"):
        task = WorkloadTask(task_name, 50 * MSEC, 1 * SEC, 50 * MSEC,
                            500 * MSEC, n_parallel=2)
        middleware.add_task(task, n_jobs=3,
                            cpu=0 if task_name == "tau1" else 2,
                            optional_cpus=[4, 6],
                            optional_deadline=400 * MSEC)
    result = middleware.run()
    probes = "\n".join(
        f"{name} {probe.job_index} {probe.release!r} "
        f"{probe.mandatory_end!r} {probe.windup_start!r} "
        f"{probe.windup_end!r} {probe.optional_fate}"
        for name, task_result in sorted(result.tasks.items())
        for probe in task_result.probes
    )
    return "\n".join(trace) + "\n" + probes


def test_kernel_simulator_runs_are_byte_identical():
    first = _run_middleware(seed=5)
    second = _run_middleware(seed=5)
    assert first.encode() == second.encode()


def test_kernel_simulator_seed_actually_matters():
    assert _run_middleware(seed=5) != _run_middleware(seed=6)
