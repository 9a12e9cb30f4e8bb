"""Tests for the practical-model middleware process (future work)."""

from collections import Counter

import pytest

from repro.core.middleware import RTSeed
from repro.core.practical import PracticalTask, PracticalWorkloadTask
from repro.core.process import RealTimeProcess
from repro.core.resilience import OverrunWatchdog
from repro.core.task import TaskContext, WorkloadTask
from repro.core.termination import TryCatchTermination
from repro.model.practical import practical_optional_deadlines
from repro.obs.metrics import SchedulerMetrics
from repro.simkernel import Kernel, Topology
from repro.simkernel.cpu import uniform_share
from repro.simkernel.syscalls import ClockNanosleep, Compute
from repro.simkernel.time_units import MSEC, SEC

pytestmark = pytest.mark.tier1


def make_kernel():
    return Kernel(Topology(4, 2, share_fn=uniform_share,
                           background_weight=0.0))


def run_process(task, ods, optional_cpus, n_jobs=2, kernel=None, **kwargs):
    kernel = kernel or make_kernel()
    process = RealTimeProcess(
        kernel, task, priority=90, cpu=0, optional_cpus=optional_cpus,
        optional_deadline=ods, n_jobs=n_jobs, **kwargs
    ).spawn()
    kernel.run_to_completion()
    return process


def test_three_phase_chain_with_overrunning_stages():
    """m1 -> o1 (terminated at OD1) -> m2 -> o2 (terminated at OD2) -> m3.

    Balanced optional deadlines give every stage a guaranteed window, so
    both stages execute and are terminated at their ODs.
    """
    task = PracticalWorkloadTask(
        "p", [100 * MSEC, 100 * MSEC, 100 * MSEC],
        optional_length=2 * SEC, period=1 * SEC, n_parallel=2,
    )
    ods = practical_optional_deadlines(task.to_model(), balance=True)
    # L = [800, 900], prefixes [100, 200] -> w = 350 -> ODs [450, 900]
    assert ods == pytest.approx([450 * MSEC, 900 * MSEC])
    process = run_process(task, ods, optional_cpus=[0, 2])
    assert not process.deadline_misses
    for probe in process.probes:
        assert len(probe.phase_start) == 3
        # each mandatory part starts exactly at the preceding stage's OD
        assert probe.phase_start[1] == pytest.approx(
            probe.stage_ods[0]
        )
        assert probe.phase_start[2] == pytest.approx(
            probe.stage_ods[1]
        )
        for fates in probe.stage_fates:
            assert fates == ["terminated", "terminated"]
        assert probe.windup_end <= probe.deadline_abs


def test_latest_feasible_ods_front_load_slack():
    """Default ODs give stage 1 the whole slack; stage 2's guaranteed
    window is zero (it only runs if stage 1 completes early)."""
    task = PracticalWorkloadTask(
        "p", [100 * MSEC, 100 * MSEC, 100 * MSEC],
        optional_length=2 * SEC, period=1 * SEC, n_parallel=1,
    )
    ods = practical_optional_deadlines(task.to_model())
    assert ods == pytest.approx([800 * MSEC, 900 * MSEC])
    process = run_process(task, ods, optional_cpus=[2])
    probe = process.probes[0]
    assert probe.stage_fates[0] == ["terminated"]
    assert probe.stage_fates[1] == ["discarded"]  # zero window
    assert not process.deadline_misses


def test_completing_stage_advances_early():
    task = PracticalWorkloadTask(
        "p", [100 * MSEC, 100 * MSEC, 100 * MSEC],
        optional_length=50 * MSEC, period=1 * SEC, n_parallel=1,
    )
    ods = practical_optional_deadlines(task.to_model())
    process = run_process(task, ods, optional_cpus=[2])
    probe = process.probes[0]
    # stage 0 completes at m1 + 50ms; m2 starts right away
    assert probe.phase_start[1] == pytest.approx(
        probe.release + 150 * MSEC
    )
    assert probe.stage_fates[0] == ["completed"]


def test_stage_discarded_when_mandatory_reaches_od():
    # OD^1 at 150ms but m1 alone takes 200ms
    task = PracticalWorkloadTask(
        "p", [200 * MSEC, 100 * MSEC], optional_length=1 * SEC,
        period=1 * SEC, n_parallel=1,
    )
    process = run_process(task, [150 * MSEC], optional_cpus=[2])
    probe = process.probes[0]
    assert probe.stage_fates[0] == ["discarded"]
    # m2 runs immediately after m1
    assert probe.phase_start[1] == pytest.approx(
        probe.phase_end[0]
    )


def test_published_stage_results_collected():
    task = PracticalWorkloadTask(
        "p", [50 * MSEC, 50 * MSEC, 50 * MSEC],
        optional_length=2 * SEC, period=1 * SEC, n_parallel=1,
        chunk=100 * MSEC,
    )
    ods = [500 * MSEC, 800 * MSEC]
    process = run_process(task, ods, optional_cpus=[2], n_jobs=1)
    probe = process.probes[0]
    # stage 0 window: 50..500 = 450ms -> 4 published chunks (400ms)
    assert probe.results[(0, 0)] == pytest.approx(400 * MSEC)
    # stage 1 window: 550..800 = 250ms -> 2 chunks
    assert probe.results[(1, 0)] == pytest.approx(200 * MSEC)


def test_validation_errors():
    kernel = make_kernel()
    task = PracticalWorkloadTask("p", [50 * MSEC, 50 * MSEC],
                                 1 * SEC, 1 * SEC, n_parallel=2)
    with pytest.raises(ValueError):
        RealTimeProcess(kernel, task, 90, 0, [0, 2],
                        [100 * MSEC, 200 * MSEC], 1)
    with pytest.raises(ValueError):
        RealTimeProcess(kernel, task, 90, 0, [0], [100 * MSEC], 1)
    with pytest.raises(TypeError):
        RealTimeProcess(kernel, object(), 90, 0, [0], [100 * MSEC], 1)

    three = PracticalWorkloadTask("q", [1.0, 1.0, 1.0], 1.0, 100.0)
    with pytest.raises(ValueError):
        RealTimeProcess(kernel, three, 90, 0, [0],
                        [50.0, 40.0], 1)  # not increasing


def test_practical_task_validation():
    with pytest.raises(ValueError):
        PracticalTask("p", 1 * SEC, n_phases=1)
    with pytest.raises(ValueError):
        PracticalTask("p", 1 * SEC, n_phases=2, n_parallel=0)


def test_periodic_execution_over_jobs():
    task = PracticalWorkloadTask(
        "p", [50 * MSEC, 50 * MSEC], optional_length=2 * SEC,
        period=500 * MSEC, n_parallel=1,
    )
    process = run_process(task, [400 * MSEC], optional_cpus=[2], n_jobs=4)
    releases = [p.release for p in process.probes]
    assert releases == pytest.approx(
        [500 * MSEC, 1000 * MSEC, 1500 * MSEC, 2000 * MSEC]
    )
    assert not process.deadline_misses


# -- optional-part granularity: one Compute under any-time termination --


def _two_phase(n_parallel=1, chunk=None):
    # release 1 s, stage-0 parts from 1.1 s, OD^1 at 1.8 s
    return PracticalWorkloadTask(
        "p", [100 * MSEC, 100 * MSEC], optional_length=2 * SEC,
        period=1 * SEC, n_parallel=n_parallel, chunk=chunk,
    )


def _stage_requests(task, **flag):
    ctx = TaskContext(task, 0, 0.0, 800 * MSEC, 1 * SEC, **flag)
    return [r.work for r in task.exec_optional_stage(ctx, 1, 0)], ctx


def test_default_chunk_follows_the_strategy():
    one, ctx = _stage_requests(_two_phase(), any_time_termination=True)
    assert one == [2 * SEC]
    assert ctx.collect() == {(1, 0): 2 * SEC}
    chunks, _ = _stage_requests(_two_phase())  # a bare context
    assert chunks == [40 * MSEC] * 50


@pytest.mark.parametrize("any_time_termination", [True, False])
def test_explicit_chunk_is_kept_under_every_strategy(any_time_termination):
    task = _two_phase(chunk=300 * MSEC)
    requests, _ = _stage_requests(
        task, any_time_termination=any_time_termination)
    assert requests == [300 * MSEC] * 6 + [200 * MSEC]


@pytest.mark.parametrize("chunk", [0, -5 * MSEC, float("nan")])
def test_bad_chunk_rejected_at_construction(chunk):
    with pytest.raises(ValueError, match="chunk must be positive"):
        _two_phase(chunk=chunk)


def test_terminated_stage_publishes_exactly_the_executed_window():
    process = run_process(_two_phase(n_parallel=2), [800 * MSEC],
                          optional_cpus=[0, 2], n_jobs=2)
    for probe in process.probes:
        window = probe.stage_ods[0] - probe.phase_end[0]
        assert window == 700 * MSEC
        assert probe.stage_fates[0] == ["terminated", "terminated"]
        assert probe.results == {(0, 0): window, (0, 1): window}


def test_unwind_progress_follows_a_core_speed_change():
    kernel = make_kernel()
    kernel.engine.schedule_at(1300 * MSEC,
                              lambda: kernel.set_core_speed(1, 0.5))
    process = run_process(_two_phase(), [800 * MSEC], optional_cpus=[2],
                          n_jobs=1, kernel=kernel)
    assert process.probes[0].results == {(0, 0): 450 * MSEC}


def test_stage_unwound_while_preempted_publishes_work_before_preemption():
    kernel = make_kernel()

    def hog(thread):
        yield ClockNanosleep(1310 * MSEC)
        yield Compute(1 * SEC)

    kernel.create_thread("hog", hog, cpu=2, priority=95)
    process = run_process(_two_phase(), [800 * MSEC], optional_cpus=[2],
                          n_jobs=1, kernel=kernel)
    probe = process.probes[0]
    assert probe.stage_fates[0] == ["terminated"]
    assert probe.results == {(0, 0): 210 * MSEC}


def test_forced_unwind_publishes_the_work_consumed():
    kernel = make_kernel()
    process = RealTimeProcess(
        kernel, _two_phase(), priority=90, cpu=0, optional_cpus=[2],
        optional_deadline=[800 * MSEC], n_jobs=1,
    ).spawn()
    kernel.engine.schedule_at(
        1500 * MSEC,
        lambda: kernel.force_unwind(process.optional_threads[0]),
    )
    kernel.run_to_completion()
    probe = process.probes[0]
    assert probe.stage_fates[0] == ["terminated"]
    assert probe.results == {(0, 0): 400 * MSEC}


# -- the chain on RealTimeProcess: middleware, probe bus, watchdog ------


def _chain(n_parallel=2):
    return PracticalWorkloadTask(
        "p", [100 * MSEC, 100 * MSEC, 100 * MSEC],
        optional_length=2 * SEC, period=1 * SEC, n_parallel=n_parallel,
    )


def _middleware():
    return RTSeed(topology=Topology(4, 2, share_fn=uniform_share,
                                    background_weight=0.0),
                  cost_model="zero")


def _timeline(probes):
    return [
        (probe.release, probe.phase_start, probe.phase_end,
         probe.stage_start, probe.stage_end, probe.stage_fates,
         probe.results)
        for probe in probes
    ]


@pytest.mark.parametrize("explicit", [True, False],
                         ids=["given_ods", "planned_ods"])
def test_rtseed_runs_the_three_phase_chain(explicit):
    """Regression: ``RTSeed`` planned ``OD = D`` for a practical task and
    ran the base ``Task``'s no-op parts, so every thread burnt 0 ms of
    CPU and the run reported all deadlines met."""
    ods = practical_optional_deadlines(_chain().to_model())
    assert ods == [800 * MSEC, 900 * MSEC]
    middleware = _middleware()
    middleware.add_task(_chain(), n_jobs=2, optional_cpus=[0, 2],
                        optional_deadline=ods if explicit else None)
    result = middleware.run()
    task_result = result.tasks["p"]
    process = task_result.process
    assert process.stage_ods == ods
    assert process.mandatory_thread.cpu_time == 2 * 300 * MSEC
    # stage 0 runs 100..800 ms; stage 1's window is empty
    assert [thread.cpu_time for thread in process.optional_threads] == \
        [2 * 700 * MSEC] * 2
    assert task_result.fates == {"completed": 0, "terminated": 4,
                                 "discarded": 4}
    assert result.all_deadlines_met
    bare = run_process(_chain(), ods, optional_cpus=[0, 2])
    assert _timeline(task_result.probes) == _timeline(bare.probes)


def test_rtseed_plans_stage_deadlines_under_interference():
    """Without given ODs the RM walk plans each stage from the models
    above the task on its CPU."""
    high = WorkloadTask("h", 10 * MSEC, 5 * MSEC, 10 * MSEC, 100 * MSEC)
    middleware = _middleware()
    middleware.add_task(high, n_jobs=10, optional_cpus=[4])
    middleware.add_task(_chain(), n_jobs=1, optional_cpus=[0, 2])
    result = middleware.run()
    process = result.tasks["p"].process
    # tails of 200 and 100 ms under C = 20 ms every 100 ms: R = 260, 140
    assert process.stage_ods == [740 * MSEC, 860 * MSEC]
    assert process.stage_ods == practical_optional_deadlines(
        _chain().to_model(), [high.to_model()])
    assert process.mandatory_thread.cpu_time == 300 * MSEC
    assert result.all_deadlines_met


def test_observed_chain_publishes_every_stage():
    """Regression: the forked multi-phase process published no
    ``rtseed.*`` or ``termination.*`` event."""
    middleware = _middleware()
    events = []
    middleware.probes.subscribe(
        lambda topic, time, data: events.append(topic),
        topics=("rtseed.*", "termination.*"),
    )
    metrics = SchedulerMetrics.attach(middleware.kernel)
    # balanced ODs: both stages get a 350 ms window
    middleware.add_task(_chain(), n_jobs=2, optional_cpus=[0, 2],
                        optional_deadline=[450 * MSEC, 900 * MSEC])
    middleware.run()
    per_job = {
        "rtseed.release": 1,
        "rtseed.mandatory_begin": 2,
        "rtseed.mandatory_end": 2,
        "rtseed.signals_done": 2,
        "rtseed.optional_begin": 4,
        "rtseed.optional_end": 4,
        "termination.terminated": 4,
        "rtseed.windup_begin": 1,
        "rtseed.windup_end": 1,
        "rtseed.job_done": 1,
    }
    assert Counter(events) == {topic: 2 * count
                               for topic, count in per_job.items()}
    counters = metrics.snapshot()["counters"]
    assert counters["rtseed.jobs[p]"] == 2
    assert counters["rtseed.optional_terminated[p]"] == 8


def test_observed_chain_publishes_a_discarded_stage():
    middleware = _middleware()
    events = []
    middleware.probes.subscribe(
        lambda topic, time, data: events.append((topic, data)),
        topics=("rtseed.discard",),
    )
    metrics = SchedulerMetrics.attach(middleware.kernel)
    middleware.add_task(_chain(), n_jobs=2, optional_cpus=[0, 2])
    middleware.run()
    assert [(data["job"], data["n_parts"]) for _, data in events] == \
        [(0, 2), (1, 2)]
    assert metrics.snapshot()["counters"]["rtseed.optional_discarded[p]"] \
        == 4


def test_watchdog_checks_the_stage_it_was_armed_for():
    """Try-catch leaves SIGALRM masked once stage 0 is terminated, so
    only the overrun watchdog stops stage 1's part, 30 ms past OD^2.
    The check armed for stage 0 comes due while stage 1 runs and must
    read stage 0's end; the one armed for stage 1 must not."""
    watchdog = OverrunWatchdog(grace=30 * MSEC)
    task = PracticalWorkloadTask(
        "p", [100 * MSEC, 10 * MSEC, 100 * MSEC],
        optional_length=2 * SEC, period=1 * SEC,
    )
    process = run_process(task, [500 * MSEC, 800 * MSEC],
                          optional_cpus=[2], n_jobs=1,
                          strategy=TryCatchTermination(),
                          watchdog=watchdog)
    probe = process.probes[0]
    assert watchdog.fired == [(0, 0, 1830 * MSEC)]
    assert probe.stage_end == [[1500 * MSEC], [1830 * MSEC]]
    assert probe.stage_fates == [["terminated"], ["terminated"]]
    assert probe.results == {(0, 0): 400 * MSEC, (1, 0): 320 * MSEC}
    assert probe.deadline_met
