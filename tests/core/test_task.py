"""Tests for the Task API and TaskContext mailbox."""

import pytest

from repro.core.task import Task, TaskContext, WorkloadTask
from repro.model.task_model import ParallelExtendedImpreciseTask
from repro.simkernel.errors import SignalUnwind
from repro.simkernel.signals import SIGALRM
from repro.simkernel.syscalls import Compute
from repro.simkernel.time_units import MSEC, SEC

pytestmark = pytest.mark.tier1


def test_task_validation():
    with pytest.raises(ValueError):
        Task("bad", period=0)
    with pytest.raises(ValueError):
        Task("bad", period=100, n_parallel=0)


def test_default_parts_are_empty_generators():
    task = Task("noop", period=100)
    ctx = TaskContext(task, 0, 0.0, 50.0, 100.0)
    assert list(task.exec_mandatory(ctx)) == []
    assert list(task.exec_optional(ctx, 0)) == []
    assert list(task.exec_windup(ctx)) == []


def test_context_mailbox_publish_collect():
    task = Task("t", period=100)
    ctx = TaskContext(task, 0, 0.0, 50.0, 100.0)
    ctx.publish(0, "partial")
    ctx.publish(1, 42)
    ctx.publish(0, "refined")  # later publish overwrites
    assert ctx.collect() == {0: "refined", 1: 42}


def test_context_collect_returns_copy():
    task = Task("t", period=100)
    ctx = TaskContext(task, 0, 0.0, 50.0, 100.0)
    ctx.publish(0, 1)
    snapshot = ctx.collect()
    snapshot[0] = 999
    assert ctx.collect() == {0: 1}


def test_workload_task_validation():
    with pytest.raises(ValueError):
        WorkloadTask("bad", 0, 1, 1, 10)
    with pytest.raises(ValueError):
        WorkloadTask("bad", 1, -1, 1, 10)
    with pytest.raises(ValueError):
        WorkloadTask("bad", 1, 1, 0, 10)


@pytest.mark.parametrize("chunk", [0, -5 * MSEC, float("nan")])
def test_workload_task_rejects_bad_chunk(chunk):
    with pytest.raises(ValueError, match="chunk must be positive"):
        WorkloadTask("bad", 10.0, 100.0, 10.0, 1000.0, chunk=chunk)


def test_workload_task_mandatory_emits_single_compute():
    task = WorkloadTask("w", 250 * MSEC, 1 * SEC, 250 * MSEC, 1 * SEC)
    ctx = TaskContext(task, 0, 0.0, 750 * MSEC, 1 * SEC)
    requests = list(task.exec_mandatory(ctx))
    assert len(requests) == 1
    assert isinstance(requests[0], Compute)
    assert requests[0].work == pytest.approx(250 * MSEC)


def test_workload_task_optional_chunks_sum_to_length():
    task = WorkloadTask("w", 10.0, 100.0, 10.0, 1000.0, chunk=30.0)
    ctx = TaskContext(task, 0, 0.0, 900.0, 1000.0)
    requests = list(task.exec_optional(ctx, 0))
    assert sum(r.work for r in requests) == pytest.approx(100.0)
    # chunking: 30+30+30+10
    assert [r.work for r in requests] == [30.0, 30.0, 30.0, 10.0]


def test_workload_task_optional_publishes_progress():
    task = WorkloadTask("w", 10.0, 90.0, 10.0, 1000.0, chunk=30.0)
    ctx = TaskContext(task, 0, 0.0, 900.0, 1000.0)
    gen = task.exec_optional(ctx, 2)
    next(gen)        # runs to the first chunk's yield
    gen.send(None)   # chunk 1 accounted, publishes 30
    gen.send(None)   # chunk 2 accounted, publishes 60
    assert ctx.collect()[2] == pytest.approx(60.0)


def test_workload_task_to_model():
    task = WorkloadTask("w", 250 * MSEC, 1 * SEC, 250 * MSEC, 1 * SEC,
                        n_parallel=8)
    model = task.to_model()
    assert isinstance(model, ParallelExtendedImpreciseTask)
    assert model.mandatory == pytest.approx(250 * MSEC)
    assert model.windup == pytest.approx(250 * MSEC)
    assert model.n_parallel == 8
    assert model.utilization == pytest.approx(0.5)


def _optional_requests(task, any_time_termination, part_index=0):
    ctx = TaskContext(task, 0, 0.0, 750 * MSEC, 1 * SEC,
                      any_time_termination=any_time_termination)
    requests = list(task.exec_optional(ctx, part_index))
    return requests, ctx


def test_default_chunk_is_one_compute_under_any_time_termination():
    task = WorkloadTask("w", 250 * MSEC, 1 * SEC, 250 * MSEC, 1 * SEC)
    requests, ctx = _optional_requests(task, any_time_termination=True)
    assert [(r.work, r.tag) for r in requests] == [(1 * SEC, "optional[0]")]
    assert ctx.collect() == {0: 1 * SEC}


def test_default_chunk_keeps_check_points_on_a_bare_context():
    task = WorkloadTask("w", 250 * MSEC, 1 * SEC, 250 * MSEC, 1 * SEC)
    ctx = TaskContext(task, 0, 0.0, 750 * MSEC, 1 * SEC)
    requests = list(task.exec_optional(ctx, 0))
    assert [r.work for r in requests] == [10 * MSEC] * 100
    assert ctx.collect()[0] == pytest.approx(1 * SEC)


@pytest.mark.parametrize("any_time_termination", [True, False])
def test_explicit_chunk_is_kept_under_every_strategy(any_time_termination):
    task = WorkloadTask("w", 10.0, 100.0, 10.0, 1000.0, chunk=30.0)
    requests, _ = _optional_requests(task, any_time_termination)
    assert [r.work for r in requests] == [30.0, 30.0, 30.0, 10.0]


def test_zero_length_optional_part_issues_nothing():
    task = WorkloadTask("w", 10.0, 0.0, 10.0, 1000.0)
    for any_time_termination in (True, False):
        requests, ctx = _optional_requests(task, any_time_termination)
        assert requests == []
        assert ctx.collect() == {}


def test_unwound_single_compute_publishes_executed_work():
    """The part reads its progress off the unwind: the work the kernel
    abandoned is subtracted from the part's length."""
    task = WorkloadTask("w", 10.0, 1000.0, 10.0, 2000.0)
    ctx = TaskContext(task, 0, 0.0, 900.0, 2000.0,
                      any_time_termination=True)
    gen = task.exec_optional(ctx, 3)
    assert next(gen).work == 1000.0
    unwind = SignalUnwind(SIGALRM)
    unwind.abandoned = 275.0
    with pytest.raises(SignalUnwind):
        gen.throw(unwind)
    assert ctx.collect() == {3: 725.0}
