"""Tests for the RealTimeProcess protocol (Figure 6)."""

import pytest

from repro.bench.overheads import (
    OPTIONAL_DEADLINE,
    OPTIONAL_LENGTH,
    make_eval_task,
)
from repro.core.middleware import RTSeed
from repro.core.policies import POLICIES
from repro.core.process import JobProbe, RealTimeProcess
from repro.core.resilience import OverrunWatchdog
from repro.core.task import Task, WorkloadTask
from repro.core.termination import (
    PeriodicCheckTermination,
    TryCatchTermination,
)
from repro.hardware.loads import BackgroundLoad
from repro.simkernel import Kernel, Topology
from repro.simkernel.cpu import uniform_share
from repro.simkernel.syscalls import ClockNanosleep, Compute
from repro.simkernel.time_units import MSEC, SEC

pytestmark = pytest.mark.tier1


def make_kernel(n_cores=4, threads_per_core=2):
    return Kernel(Topology(n_cores, threads_per_core,
                           share_fn=uniform_share, background_weight=0.0))


def run_process(kernel, task, optional_cpus, od, n_jobs=3, priority=90,
                **kwargs):
    process = RealTimeProcess(
        kernel, task, priority=priority, cpu=0,
        optional_cpus=optional_cpus, optional_deadline=od, n_jobs=n_jobs,
        **kwargs,
    ).spawn()
    kernel.run_to_completion()
    return process


def test_fig6_protocol_overrunning_parts():
    """The Figure 6 scenario: parts overrun, are terminated at the OD,
    and the wind-up runs after all parts ended."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC,
                        n_parallel=3)
    process = run_process(kernel, task, [0, 2, 4], od=900 * MSEC)
    assert len(process.probes) == 3
    for probe in process.probes:
        assert probe.mandatory_start == pytest.approx(probe.release)
        assert probe.mandatory_end == pytest.approx(
            probe.release + 100 * MSEC
        )
        assert probe.optional_fate == ["terminated"] * 3
        # every optional part ends at the OD (zero-cost kernel)
        for end in probe.optional_end:
            assert end == pytest.approx(probe.od_abs)
        assert probe.windup_start == pytest.approx(probe.od_abs)
        assert probe.windup_end == pytest.approx(
            probe.od_abs + 100 * MSEC
        )
        assert probe.deadline_met


def test_completing_parts_wake_mandatory_early():
    """Figure 6 detail: when every part completes before the OD, the
    wind-up runs immediately (the middleware does not wait for the OD —
    unlike the theoretical RMWP sleep-in-SQ semantics)."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 50 * MSEC, 100 * MSEC, 1 * SEC,
                        n_parallel=2)
    process = run_process(kernel, task, [0, 2], od=900 * MSEC, n_jobs=2)
    for probe in process.probes:
        assert probe.optional_fate == ["completed", "completed"]
        assert probe.windup_start < probe.od_abs
        assert probe.windup_start == pytest.approx(
            probe.mandatory_end + 50 * MSEC
        )


def test_parts_discarded_when_mandatory_overruns_od():
    """Section IV-C: if there is no time for the optional parts they are
    discarded — the wake-up signal is never sent."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 300 * MSEC, 1 * SEC, 100 * MSEC, 1 * SEC,
                        n_parallel=2)
    # OD at 250ms < mandatory end at 300ms
    process = run_process(kernel, task, [0, 2], od=250 * MSEC, n_jobs=2)
    for probe in process.probes:
        assert probe.optional_fate == ["discarded", "discarded"]
        assert probe.optional_start == [None, None]
        # wind-up runs right after the mandatory part
        assert probe.windup_start == pytest.approx(probe.mandatory_end)


def test_qos_scales_with_parallel_parts():
    """The point of the parallel-extended model: more parts, more QoS."""
    def total_qos(n_parallel, cpus):
        kernel = make_kernel()
        task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC,
                            1 * SEC, n_parallel=n_parallel)
        process = run_process(kernel, task, cpus, od=900 * MSEC, n_jobs=2)
        return process.total_optional_time

    serial = total_qos(1, [0])
    parallel = total_qos(4, [0, 2, 4, 6])
    assert parallel == pytest.approx(4 * serial, rel=0.01)


def test_parts_on_same_cpu_starve_fifo():
    """Two NRTQ parts pinned to one CPU: SCHED_FIFO never time-slices,
    so the second part starves until the OD terminates the first."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC,
                        n_parallel=2)
    process = run_process(kernel, task, [0, 0], od=900 * MSEC, n_jobs=1)
    probe = process.probes[0]
    fates = sorted(probe.optional_fate)
    assert fates == ["terminated", "terminated"]
    executed = [
        end - start
        for start, end in zip(probe.optional_start, probe.optional_end)
    ]
    # one part got (almost) the whole window, the other (almost) nothing
    assert max(executed) == pytest.approx(800 * MSEC, rel=0.01)
    assert min(executed) == pytest.approx(0.0, abs=1 * MSEC)


def test_results_published_by_terminated_parts_reach_windup():
    """Imprecise-computation contract: the wind-up part collects the
    partial results the terminated parts published."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC,
                        n_parallel=2, chunk=100 * MSEC)
    process = run_process(kernel, task, [0, 2], od=600 * MSEC, n_jobs=1)
    probe = process.probes[0]
    # Window is 100..600 ms = 500 ms per part, chunked at 100 ms.  The
    # chunk completing exactly at the OD is killed by the timer before it
    # can publish: work-in-flight is lost on termination (imprecise
    # semantics), so the wind-up sees the previous chunk's 400 ms.
    assert probe.results[0] == pytest.approx(400 * MSEC)
    assert probe.results[1] == pytest.approx(400 * MSEC)
    assert probe.optional_time_executed == pytest.approx(2 * 500 * MSEC)


def test_probe_deltas_zero_under_zero_cost_kernel():
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC,
                        n_parallel=2)
    process = run_process(kernel, task, [0, 2], od=900 * MSEC, n_jobs=2)
    for which in "mbse":
        for value in process.deltas_us(which):
            assert value == pytest.approx(0.0, abs=1e-6)


def test_periodic_execution_interval():
    kernel = make_kernel()
    task = WorkloadTask("tau1", 50 * MSEC, 100 * MSEC, 50 * MSEC, 1 * SEC,
                        n_parallel=1)
    process = run_process(kernel, task, [0], od=900 * MSEC, n_jobs=4)
    releases = [p.release for p in process.probes]
    assert releases == [1 * SEC, 2 * SEC, 3 * SEC, 4 * SEC]
    starts = [p.mandatory_start for p in process.probes]
    assert starts == pytest.approx(releases)


def test_validation_errors():
    kernel = make_kernel()
    task = WorkloadTask("tau1", 50 * MSEC, 1 * SEC, 50 * MSEC, 1 * SEC,
                        n_parallel=2)
    with pytest.raises(ValueError):
        RealTimeProcess(kernel, task, priority=90, cpu=0,
                        optional_cpus=[0], optional_deadline=900 * MSEC,
                        n_jobs=1)
    with pytest.raises(ValueError):
        RealTimeProcess(kernel, task, priority=90, cpu=0,
                        optional_cpus=[0, 2], optional_deadline=2 * SEC,
                        n_jobs=1)
    with pytest.raises(ValueError):
        RealTimeProcess(kernel, task, priority=90, cpu=0,
                        optional_cpus=[0, 2], optional_deadline=900 * MSEC,
                        n_jobs=0)


def test_double_spawn_rejected():
    kernel = make_kernel()
    task = WorkloadTask("tau1", 50 * MSEC, 100 * MSEC, 50 * MSEC, 1 * SEC)
    process = RealTimeProcess(kernel, task, priority=90, cpu=0,
                              optional_cpus=[0],
                              optional_deadline=900 * MSEC, n_jobs=1)
    process.spawn()
    with pytest.raises(RuntimeError):
        process.spawn()
    kernel.run_to_completion()


def test_custom_task_subclass_hooks():
    """A user Task subclass drives all three parts through the context."""
    events = []

    class Custom(Task):
        def exec_mandatory(self, ctx):
            events.append(("mandatory", ctx.job_index))
            yield ctx.compute(10 * MSEC)

        def exec_optional(self, ctx, part_index):
            events.append(("optional", ctx.job_index, part_index))
            yield ctx.compute(5 * MSEC)
            ctx.publish(part_index, "done")

        def exec_windup(self, ctx):
            events.append(("windup", ctx.job_index, ctx.collect()))
            yield ctx.compute(10 * MSEC)

    kernel = make_kernel()
    task = Custom("custom", period=1 * SEC, n_parallel=2)
    process = RealTimeProcess(kernel, task, priority=80, cpu=0,
                              optional_cpus=[0, 2],
                              optional_deadline=900 * MSEC,
                              n_jobs=1).spawn()
    kernel.run_to_completion()
    assert ("mandatory", 0) in events
    assert ("optional", 0, 0) in events
    assert ("optional", 0, 1) in events
    windup_events = [e for e in events if e[0] == "windup"]
    assert windup_events[0][2] == {0: "done", 1: "done"}


def test_job_probe_properties_none_before_measurement():
    probe = JobProbe(0, 0.0, [750.0], 1000.0, 2)
    assert probe.delta_m is None
    assert probe.delta_b is None
    assert probe.delta_s is None
    assert probe.delta_e is None
    assert probe.delta_us("m") is None
    assert not probe.deadline_met


# -- optional-part granularity: one Compute under any-time termination --


def test_periodic_check_keeps_default_check_points():
    """Periodic check has no timer, so a default-chunk part must still
    yield check points: it stops within one chunk after the OD."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC,
                        n_parallel=2)
    default_chunk = 2 * SEC / 100
    # the 510 ms window is not a whole number of 20 ms chunks
    process = run_process(kernel, task, [0, 2], od=610 * MSEC, n_jobs=2,
                          strategy=PeriodicCheckTermination())
    for probe in process.probes:
        assert probe.optional_fate == ["terminated", "terminated"]
        for end in probe.optional_end:
            assert probe.od_abs < end <= probe.od_abs + default_chunk
        assert probe.deadline_met


def test_terminated_part_publishes_exactly_the_executed_window():
    """One Compute per part: a part cut at the OD publishes the work the
    kernel executed, not the last completed chunk (680 ms of 700)."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC,
                        n_parallel=2)
    process = run_process(kernel, task, [0, 2], od=800 * MSEC, n_jobs=2)
    for probe in process.probes:
        for part in range(2):
            window = probe.optional_end[part] - probe.optional_start[part]
            assert window == 700 * MSEC
            assert probe.results[part] == window


def test_unwind_progress_follows_a_core_speed_change():
    """The part (CPU 2, core 1) runs 200 ms at full speed, then 500 ms at
    half speed until its OD: 200 + 0.5 * 500 = 450 ms of work."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC)
    kernel.engine.schedule_at(1300 * MSEC,
                              lambda: kernel.set_core_speed(1, 0.5))
    process = run_process(kernel, task, [2], od=800 * MSEC, n_jobs=1)
    probe = process.probes[0]
    assert probe.optional_fate == ["terminated"]
    assert probe.results[0] == 450 * MSEC


def test_part_unwound_while_preempted_publishes_work_before_preemption():
    """A higher-priority thread takes the part's CPU 210 ms into it and
    holds it past the OD: the unwind lands while the part is READY."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC)

    def hog(thread):
        yield ClockNanosleep(1310 * MSEC)
        yield Compute(1 * SEC)

    kernel.create_thread("hog", hog, cpu=2, priority=95)
    process = run_process(kernel, task, [2], od=800 * MSEC, n_jobs=1)
    probe = process.probes[0]
    assert probe.optional_fate == ["terminated"]
    assert probe.optional_end[0] == 2310 * MSEC  # unwound once re-run
    assert probe.results[0] == 210 * MSEC


def test_forced_unwind_publishes_the_work_consumed():
    """Try-catch leaves SIGALRM masked after job 0, so only the overrun
    watchdog stops job 1's part, 30 ms past its OD."""
    kernel = make_kernel()
    task = WorkloadTask("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC)
    watchdog = OverrunWatchdog(grace=30 * MSEC)
    process = run_process(kernel, task, [2], od=800 * MSEC, n_jobs=2,
                          strategy=TryCatchTermination(),
                          watchdog=watchdog)
    first, second = process.probes
    assert [job for job, _part, _at in watchdog.fired] == [1]
    assert first.results[0] == 700 * MSEC
    assert second.results[0] == 730 * MSEC


def _eval_timeline(n_parallel, policy, load, chunk=None):
    """Run the Section V-A task for 2 jobs; return every JobProbe
    timestamp and fate, the final clock and the events processed."""
    task = make_eval_task(n_parallel)
    if chunk is not None:
        task = WorkloadTask(task.name, task.mandatory, task.optional,
                            task.windup, task.period,
                            n_parallel=n_parallel, chunk=chunk)
    middleware = RTSeed(load=load, seed=0)
    middleware.add_task(task, n_jobs=2, cpu=0, policy=policy,
                        optional_deadline=OPTIONAL_DEADLINE)
    result = middleware.run()
    timeline = [
        (probe.release, probe.mandatory_start, probe.mandatory_end,
         probe.signal_end, probe.mandatory_blocked,
         probe.optional_start, probe.optional_end, probe.optional_fate,
         probe.windup_start, probe.windup_end)
        for probe in result.tasks[task.name].probes
    ]
    engine = result.kernel.engine
    return timeline, engine.now, engine.events_processed


@pytest.mark.parametrize("load", list(BackgroundLoad),
                         ids=lambda load: load.name)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_one_compute_per_part_keeps_the_timeline(policy, load):
    """Default chunking (one Compute under sigsetjmp) and today's 100
    explicit chunks give the same timeline, to the bit."""
    one, now_one, _ = _eval_timeline(8, policy, load)
    chunked, now_chunked, _ = _eval_timeline(
        8, policy, load, chunk=OPTIONAL_LENGTH / 100)
    assert one == chunked
    assert now_one == now_chunked


def test_one_compute_per_part_cuts_events_at_np57():
    load = BackgroundLoad.CPU_MEMORY
    one, now_one, events_one = _eval_timeline(57, "one_by_one", load)
    chunked, now_chunked, events_chunked = _eval_timeline(
        57, "one_by_one", load, chunk=OPTIONAL_LENGTH / 100)
    assert one == chunked
    assert now_one == now_chunked
    assert events_chunked >= 2.5 * events_one
