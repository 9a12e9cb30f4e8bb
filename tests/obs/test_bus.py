"""Tests for the probe bus: fan-out, filtering, idle cost, probe sites."""

import pytest

from repro.core.middleware import RTSeed
from repro.core.task import WorkloadTask
from repro.obs.bus import PROBE_SITES, ProbeBus, _make_matcher
from repro.simkernel.time_units import MSEC, SEC

pytestmark = pytest.mark.tier1


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


def test_inactive_without_subscribers():
    bus = ProbeBus()
    assert not bus.active
    assert len(bus) == 0
    bus.publish("kernel.dispatch", thread="t")  # silently dropped
    assert bus.published == 0


def test_subscribe_activates_and_unsubscribe_deactivates():
    bus = ProbeBus()
    fn = bus.subscribe(lambda topic, time, data: None)
    assert bus.active
    bus.unsubscribe(fn)
    assert not bus.active


def test_duplicate_subscribe_rejected():
    bus = ProbeBus()
    fn = bus.subscribe(lambda topic, time, data: None)
    with pytest.raises(ValueError):
        bus.subscribe(fn)


def test_unsubscribe_unknown_is_noop():
    bus = ProbeBus()
    bus.subscribe(lambda topic, time, data: None)
    bus.unsubscribe(lambda topic, time, data: None)
    assert bus.active  # the original subscriber is untouched


def test_publish_stamps_clock_now():
    clock = FakeClock(now=42.0)
    bus = ProbeBus(clock=clock)
    seen = []
    bus.subscribe(lambda topic, time, data: seen.append((topic, time, data)))
    bus.publish("kernel.dispatch", thread="t", cpu=0)
    clock.now = 99.0
    bus.publish("kernel.block", thread="t", cpu=0)
    assert seen == [
        ("kernel.dispatch", 42.0, {"thread": "t", "cpu": 0}),
        ("kernel.block", 99.0, {"thread": "t", "cpu": 0}),
    ]
    assert bus.published == 2


def test_prefix_filter_selects_layer():
    bus = ProbeBus(clock=FakeClock())
    kernel_only = []
    everything = []
    bus.subscribe(lambda t, _time, _d: kernel_only.append(t),
                  topics=("kernel.*",))
    bus.subscribe(lambda t, _time, _d: everything.append(t))
    bus.publish("kernel.dispatch")
    bus.publish("rtseed.job_done")
    bus.publish("rq.enqueue")
    assert kernel_only == ["kernel.dispatch"]
    assert everything == ["kernel.dispatch", "rtseed.job_done",
                          "rq.enqueue"]


def test_exact_and_mixed_filters():
    bus = ProbeBus(clock=FakeClock())
    seen = []
    bus.subscribe(lambda t, _time, _d: seen.append(t),
                  topics=("rtseed.job_done", "kernel.*"))
    bus.publish("rtseed.job_done")
    bus.publish("rtseed.release")
    bus.publish("kernel.preempt")
    assert seen == ["rtseed.job_done", "kernel.preempt"]


def test_matcher_star_matches_everything():
    assert _make_matcher(("*",)) is None
    assert _make_matcher(None) is None
    exact = _make_matcher(("a.b",))
    assert exact("a.b") and not exact("a.c")


def test_fanout_in_subscription_order():
    bus = ProbeBus(clock=FakeClock())
    order = []
    bus.subscribe(lambda *_: order.append("first"))
    bus.subscribe(lambda *_: order.append("second"))
    bus.publish("kernel.ready")
    assert order == ["first", "second"]


def test_every_published_topic_is_a_documented_probe_site():
    """Run a real middleware workload with a catch-all subscriber; every
    topic seen on the wire must be declared in PROBE_SITES (and the
    payloads must be JSON primitives)."""
    middleware = RTSeed(cost_model="zero")
    task = WorkloadTask("tau1", 20 * MSEC, 40 * MSEC, 10 * MSEC,
                        200 * MSEC, n_parallel=2)
    middleware.add_task(task, n_jobs=2, optional_deadline=150 * MSEC)
    seen = {}
    middleware.probes.subscribe(
        lambda topic, _time, data: seen.setdefault(topic, dict(data))
    )
    middleware.run()
    assert seen, "no probe events published"
    undocumented = set(seen) - set(PROBE_SITES)
    assert not undocumented, f"topics missing from PROBE_SITES: {undocumented}"
    for topic, payload in seen.items():
        for key, value in payload.items():
            assert isinstance(value, (str, int, float, bool, type(None))), \
                f"{topic}.{key} is not a JSON primitive: {value!r}"


def test_core_protocol_topics_fire():
    """The paper's measurement points all appear on a normal run."""
    middleware = RTSeed(cost_model="zero")
    task = WorkloadTask("tau1", 20 * MSEC, 40 * MSEC, 10 * MSEC,
                        200 * MSEC, n_parallel=2)
    middleware.add_task(task, n_jobs=2, optional_deadline=150 * MSEC)
    topics = set()
    middleware.probes.subscribe(lambda t, _time, _d: topics.add(t))
    middleware.run()
    for expected in (
        "kernel.spawn", "kernel.dispatch", "kernel.timer_arm",
        "kernel.timer_disarm", "rq.enqueue", "rq.pop",
        "rtseed.release", "rtseed.mandatory_begin",
        "rtseed.mandatory_end", "rtseed.signals_done",
        "rtseed.optional_begin", "rtseed.optional_end",
        "rtseed.windup_begin", "rtseed.windup_end", "rtseed.job_done",
        "termination.completed",
    ):
        assert expected in topics, f"{expected} never published"


def test_overrun_topics_fire():
    """Optional parts overrunning their deadline exercise the signal
    and termination probe sites."""
    middleware = RTSeed(cost_model="zero")
    task = WorkloadTask("tau1", 20 * MSEC, 400 * MSEC, 10 * MSEC,
                        1 * SEC, n_parallel=2)
    middleware.add_task(task, n_jobs=1, optional_deadline=150 * MSEC)
    topics = set()
    middleware.probes.subscribe(lambda t, _time, _d: topics.add(t))
    middleware.run()
    for expected in (
        "kernel.timer_expire", "kernel.signal_post",
        "kernel.signal_deliver", "termination.terminated",
    ):
        assert expected in topics, f"{expected} never published"


def test_idle_bus_builds_no_payloads(monkeypatch):
    """With no subscribers, a middleware run publishes nothing at all
    (the probe sites guard on ``active`` before building payloads).
    ``publish`` counts only events it fans out, so the calls are
    counted here, where the payload has already been built."""
    calls = []
    publish = ProbeBus.publish

    def counting_publish(bus, topic, **data):
        calls.append(topic)
        publish(bus, topic, **data)

    monkeypatch.setattr(ProbeBus, "publish", counting_publish)
    middleware = RTSeed(cost_model="zero")
    task = WorkloadTask("tau1", 20 * MSEC, 40 * MSEC, 10 * MSEC,
                        200 * MSEC, n_parallel=2)
    middleware.add_task(task, n_jobs=1, optional_deadline=150 * MSEC)
    middleware.run()
    assert middleware.kernel.engine.events_processed > 0
    assert calls == []
    assert middleware.probes.published == 0


def test_one_bus_shared_across_layers():
    """Kernel, engine, and run queues publish to the same bus object."""
    middleware = RTSeed(cost_model="zero")
    kernel = middleware.kernel
    assert kernel.engine.probes is kernel.probes
    for runqueue in kernel.runqueues:
        assert runqueue.probes is kernel.probes


def test_unsubscribed_mid_run_stops_delivery():
    bus = ProbeBus(clock=FakeClock())
    seen = []
    fn = bus.subscribe(lambda t, _time, _d: seen.append(t))
    bus.publish("kernel.ready")
    bus.unsubscribe(fn)
    bus.publish("kernel.dispatch")
    assert seen == ["kernel.ready"]
