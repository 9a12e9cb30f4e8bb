"""Tests for the practical-model middleware process (future work)."""

import pytest

from repro.core.practical import (
    PracticalRealTimeProcess,
    PracticalTask,
    PracticalWorkloadTask,
)
from repro.core.task import TaskContext
from repro.model.practical import practical_optional_deadlines
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
    process = PracticalRealTimeProcess(
        kernel, task, priority=90, cpu=0, optional_cpus=optional_cpus,
        stage_optional_deadlines=ods, n_jobs=n_jobs, **kwargs
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
        optional_length=2 * SEC, period=1 * SEC, parts_per_stage=2,
    )
    ods = practical_optional_deadlines(task.to_model(), balance=True)
    # L = [800, 900], prefixes [100, 200] -> w = 350 -> ODs [450, 900]
    assert ods == pytest.approx([450 * MSEC, 900 * MSEC])
    process = run_process(task, ods, optional_cpus=[0, 2])
    assert not process.deadline_misses
    for probe in process.probes:
        assert len(probe.mandatory_start) == 3
        # each mandatory part starts exactly at the preceding stage's OD
        assert probe.mandatory_start[1] == pytest.approx(
            probe.stage_ods[0]
        )
        assert probe.mandatory_start[2] == pytest.approx(
            probe.stage_ods[1]
        )
        for fates in probe.stage_fates:
            assert fates == ["terminated", "terminated"]
        assert probe.completed <= probe.deadline_abs


def test_latest_feasible_ods_front_load_slack():
    """Default ODs give stage 1 the whole slack; stage 2's guaranteed
    window is zero (it only runs if stage 1 completes early)."""
    task = PracticalWorkloadTask(
        "p", [100 * MSEC, 100 * MSEC, 100 * MSEC],
        optional_length=2 * SEC, period=1 * SEC, parts_per_stage=1,
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
        optional_length=50 * MSEC, period=1 * SEC, parts_per_stage=1,
    )
    ods = practical_optional_deadlines(task.to_model())
    process = run_process(task, ods, optional_cpus=[2])
    probe = process.probes[0]
    # stage 0 completes at m1 + 50ms; m2 starts right away
    assert probe.mandatory_start[1] == pytest.approx(
        probe.release + 150 * MSEC
    )
    assert probe.stage_fates[0] == ["completed"]


def test_stage_discarded_when_mandatory_reaches_od():
    # OD^1 at 150ms but m1 alone takes 200ms
    task = PracticalWorkloadTask(
        "p", [200 * MSEC, 100 * MSEC], optional_length=1 * SEC,
        period=1 * SEC, parts_per_stage=1,
    )
    process = run_process(task, [150 * MSEC], optional_cpus=[2])
    probe = process.probes[0]
    assert probe.stage_fates[0] == ["discarded"]
    # m2 runs immediately after m1
    assert probe.mandatory_start[1] == pytest.approx(
        probe.mandatory_end[0]
    )


def test_published_stage_results_collected():
    task = PracticalWorkloadTask(
        "p", [50 * MSEC, 50 * MSEC, 50 * MSEC],
        optional_length=2 * SEC, period=1 * SEC, parts_per_stage=1,
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
                                 1 * SEC, 1 * SEC, parts_per_stage=2)
    with pytest.raises(ValueError):
        PracticalRealTimeProcess(kernel, task, 90, 0, [0, 2],
                                 [100 * MSEC, 200 * MSEC], 1)
    with pytest.raises(ValueError):
        PracticalRealTimeProcess(kernel, task, 90, 0, [0],
                                 [100 * MSEC], 1)
    with pytest.raises(TypeError):
        PracticalRealTimeProcess(kernel, object(), 90, 0, [0],
                                 [100 * MSEC], 1)

    three = PracticalWorkloadTask("q", [1.0, 1.0, 1.0], 1.0, 100.0)
    with pytest.raises(ValueError):
        PracticalRealTimeProcess(kernel, three, 90, 0, [0],
                                 [50.0, 40.0], 1)  # not increasing


def test_practical_task_validation():
    with pytest.raises(ValueError):
        PracticalTask("p", 1 * SEC, n_phases=1)
    with pytest.raises(ValueError):
        PracticalTask("p", 1 * SEC, n_phases=2, parts_per_stage=0)


def test_periodic_execution_over_jobs():
    task = PracticalWorkloadTask(
        "p", [50 * MSEC, 50 * MSEC], optional_length=2 * SEC,
        period=500 * MSEC, parts_per_stage=1,
    )
    process = run_process(task, [400 * MSEC], optional_cpus=[2], n_jobs=4)
    releases = [p.release for p in process.probes]
    assert releases == pytest.approx(
        [500 * MSEC, 1000 * MSEC, 1500 * MSEC, 2000 * MSEC]
    )
    assert not process.deadline_misses


# -- optional-part granularity: one Compute under any-time termination --


def _two_phase(parts_per_stage=1, chunk=None):
    # release 1 s, stage-0 parts from 1.1 s, OD^1 at 1.8 s
    return PracticalWorkloadTask(
        "p", [100 * MSEC, 100 * MSEC], optional_length=2 * SEC,
        period=1 * SEC, parts_per_stage=parts_per_stage, chunk=chunk,
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
    process = run_process(_two_phase(parts_per_stage=2), [800 * MSEC],
                          optional_cpus=[0, 2], n_jobs=2)
    for probe in process.probes:
        window = probe.stage_ods[0] - probe.mandatory_end[0]
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
    process = PracticalRealTimeProcess(
        kernel, _two_phase(), priority=90, cpu=0, optional_cpus=[2],
        stage_optional_deadlines=[800 * MSEC], n_jobs=1,
    ).spawn()
    kernel.engine.schedule_at(
        1500 * MSEC,
        lambda: kernel.force_unwind(process.optional_threads[0]),
    )
    kernel.run_to_completion()
    probe = process.probes[0]
    assert probe.stage_fates[0] == ["terminated"]
    assert probe.results == {(0, 0): 400 * MSEC}
