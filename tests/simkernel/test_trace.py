"""Tests for the kernel tracer."""

import pytest

from repro.simkernel import (
    ClockNanosleep,
    Compute,
    Kernel,
    Topology,
)
from repro.simkernel.cpu import uniform_share
from repro.simkernel.time_units import MSEC
from repro.simkernel.trace import Tracer

pytestmark = pytest.mark.tier1


def traced_run():
    kernel = Kernel(Topology(2, 1, share_fn=uniform_share))
    tracer = Tracer.attach(kernel)

    def low(thread):
        yield Compute(30 * MSEC)

    def high(thread):
        yield ClockNanosleep(10 * MSEC)
        yield Compute(10 * MSEC)

    kernel.create_thread("low", low, cpu=0, priority=10)
    kernel.create_thread("high", high, cpu=0, priority=90)
    kernel.run_to_completion()
    return tracer


def test_tracer_collects_lifecycle_events():
    tracer = traced_run()
    counts = tracer.counts()
    assert counts["spawn"] == 2
    assert counts["thread_exit"] == 2
    assert counts["dispatch"] >= 3  # low, high, low again
    assert counts["preempt"] == 1


def test_filter_by_event_and_thread():
    tracer = traced_run()
    preempts = tracer.filter(event="preempt")
    assert len(preempts) == 1
    assert preempts[0].thread_name == "low"
    assert tracer.filter(thread_name="high", event="dispatch")


def test_filter_by_time_window():
    tracer = traced_run()
    early = tracer.filter(end=5 * MSEC)
    assert all(r.time <= 5 * MSEC for r in early)
    late = tracer.filter(start=10 * MSEC)
    assert all(r.time >= 10 * MSEC for r in late)


def test_dispatch_latency_pairs():
    tracer = traced_run()
    pairs = tracer.dispatch_latency("high")
    assert pairs
    for ready, dispatch in pairs:
        assert dispatch >= ready


def test_busy_intervals_reconstruct_schedule():
    tracer = traced_run()
    intervals = tracer.busy_intervals(0)
    # low [0,10], high [10,20], low [20,40]
    names = [name for _s, _e, name in intervals]
    assert names == ["low", "high", "low"]
    assert intervals[0][0] == pytest.approx(0.0)
    assert intervals[1][0] == pytest.approx(10 * MSEC)
    assert intervals[2][1] == pytest.approx(40 * MSEC)


def test_gantt_renders_occupancy():
    tracer = traced_run()
    chart = tracer.gantt(cpu=0, start=0.0, end=40 * MSEC, width=40)
    lines = chart.splitlines()
    assert "CPU 0" in lines[0]
    body = lines[1]
    assert len(body) == 40
    # low (A) occupies the first quarter, high (B) the second
    assert body[0] == "A"
    assert body[12] == "B"
    assert body[-1] == "A"
    assert "A=low" in lines[2] and "B=high" in lines[2]


def test_gantt_no_activity():
    kernel = Kernel(Topology(2, 1, share_fn=uniform_share))
    tracer = Tracer.attach(kernel)
    assert "(no activity)" in tracer.gantt(cpu=1)


def test_gantt_invalid_range():
    tracer = traced_run()
    with pytest.raises(ValueError):
        tracer.gantt(cpu=0, start=10.0, end=10.0)


def test_max_records_drops_oldest():
    kernel = Kernel(Topology(1, 1, share_fn=uniform_share))
    tracer = Tracer.attach(kernel, max_records=5)

    def body(thread):
        for step in range(4):
            yield Compute(1 * MSEC)
            yield ClockNanosleep((step + 2) * 2 * MSEC)

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert len(tracer.records) == 5
    assert tracer.dropped > 0


def test_drop_oldest_keeps_newest_and_counts_evictions():
    """The bounded buffer keeps the most recent records; the dropped
    counter accounts exactly for the evicted ones."""
    tracer = Tracer(max_records=3)
    for step in range(10):
        tracer._record(float(step), "tick", "t", 1, 0)
    assert [r.time for r in tracer.records] == [7.0, 8.0, 9.0]
    assert tracer.dropped == 7
    assert len(tracer) == 3


def test_unbounded_tracer_never_drops():
    tracer = Tracer()
    for step in range(100):
        tracer._record(float(step), "tick", "t", 1, 0)
    assert len(tracer.records) == 100
    assert tracer.dropped == 0


def test_attach_uses_bus_not_on_event():
    """attach() activates the probe bus and detach() leaves it idle."""
    kernel = Kernel(Topology(1, 1, share_fn=uniform_share))
    tracer = Tracer.attach(kernel)
    assert kernel.probes.active

    def body(thread):
        yield Compute(1 * MSEC)

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert tracer.counts()["dispatch"] >= 1
    tracer.detach()
    assert not kernel.probes.active


def test_two_tracers_coexist_with_metrics():
    """Multiple observers on one kernel — none clobbers another."""
    from repro.obs.metrics import SchedulerMetrics

    kernel = Kernel(Topology(1, 1, share_fn=uniform_share))
    first = Tracer.attach(kernel)
    second = Tracer.attach(kernel)
    metrics = SchedulerMetrics.attach(kernel)

    def body(thread):
        yield Compute(1 * MSEC)

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert len(first.records) == len(second.records) > 0
    assert metrics.snapshot()["counters"]["kernel.dispatches"] == 1


def test_bus_records_carry_event_extras():
    """Bus-fed records keep event-specific payload in ``extra``."""
    kernel = Kernel(Topology(2, 1, share_fn=uniform_share))
    tracer = Tracer.attach(kernel)

    def body(thread):
        from repro.simkernel.syscalls import SchedSetAffinity
        yield Compute(1 * MSEC)
        yield SchedSetAffinity(1)
        yield Compute(1 * MSEC)

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    migrations = tracer.filter(event="migrate")
    assert migrations
    assert migrations[0].extra == {"from_cpu": 0, "to_cpu": 1}
