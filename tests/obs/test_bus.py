"""Tests for the probe bus: fan-out, filtering, routes, idle cost,
probe sites."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class Sink:
    """A subscriber reached through a bound method, which is a new
    object on every attribute access."""

    def __init__(self):
        self.seen = []

    def on_event(self, topic, _time, _data):
        self.seen.append(topic)


def test_duplicate_bound_method_subscribe_rejected():
    bus = ProbeBus()
    sink = Sink()
    bus.subscribe(sink.on_event)
    with pytest.raises(ValueError):
        bus.subscribe(sink.on_event)
    assert len(bus) == 1
    other = Sink()
    bus.subscribe(other.on_event)  # the same function on another object
    assert len(bus) == 2


def test_bound_method_unsubscribes_by_equality():
    bus = ProbeBus()
    sink = Sink()
    bus.subscribe(sink.on_event)
    bus.publish("kernel.ready")
    bus.unsubscribe(sink.on_event)
    assert len(bus) == 0 and not bus.active
    bus.publish("kernel.ready")
    assert sink.seen == ["kernel.ready"]


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


# -- per-topic routes -------------------------------------------------------


def test_subscriber_attached_between_publishes_gets_only_the_second():
    """The first publish builds the topic's route; subscribing must
    drop it."""
    bus = ProbeBus(clock=FakeClock())
    first, late = [], []
    bus.subscribe(lambda t, _time, d: first.append(d["n"]))
    bus.publish("kernel.ready", n=1)
    bus.subscribe(lambda t, _time, d: late.append(d["n"]),
                  topics=("kernel.*",))
    bus.publish("kernel.ready", n=2)
    assert first == [1, 2]
    assert late == [2]


def test_detached_subscriber_gets_nothing_after():
    """Unsubscribing must drop a route that names the subscriber."""
    bus = ProbeBus(clock=FakeClock())
    kept, gone = [], []
    bus.subscribe(lambda t, _time, d: kept.append(d["n"]))
    fn = bus.subscribe(lambda t, _time, d: gone.append(d["n"]),
                       topics=("kernel.ready",))
    bus.publish("kernel.ready", n=1)
    bus.unsubscribe(fn)
    bus.publish("kernel.ready", n=2)
    assert kept == [1, 2]
    assert gone == [1]


def test_route_keeps_subscription_order_across_filters():
    bus = ProbeBus(clock=FakeClock())
    order = []
    names = {}
    for name, topics in (("all", None), ("layer", ("kernel.*",)),
                         ("exact", ("kernel.ready",)),
                         ("other", ("rtseed.*",)), ("star", ("*",))):
        names[name] = bus.subscribe(
            lambda t, _time, _d, name=name: order.append(name),
            topics=topics)
    bus.publish("kernel.ready")
    assert order == ["all", "layer", "exact", "star"]
    # a re-subscribed observer joins the end of every route
    bus.unsubscribe(names["layer"])
    bus.subscribe(names["layer"], topics=("kernel.*",))
    order.clear()
    bus.publish("kernel.ready")
    assert order == ["all", "exact", "star", "layer"]


def test_passive_subscriber_gets_only_what_active_ones_cause():
    """Probe sites publish only while the bus is active, so a passive
    subscriber sees exactly the events published while an active one
    is attached, whatever routes were built before."""
    bus = ProbeBus(clock=FakeClock())
    passive, active = [], []

    def probe_site(n):
        if bus.active:
            bus.publish("kernel.ready", n=n)

    bus.subscribe(lambda t, _time, d: passive.append(d["n"]),
                  passive=True)
    probe_site(1)
    fn = bus.subscribe(lambda t, _time, d: active.append(d["n"]))
    probe_site(2)
    probe_site(3)
    bus.unsubscribe(fn)
    assert not bus.active
    probe_site(4)
    assert passive == active == [2, 3]


# few subscribers and topics, and mostly publishes, so a stale route
# (a topic published before a subscribe or unsubscribe and again
# after it) is common
SUBSCRIBERS = 3
TOPICS = ("kernel.ready", "rtseed.job_done", "rq.pop")
FILTERS = (None, ("kernel.*",), ("rtseed.job_done", "rq.*"),
           ("kernel.ready",), ("*",))

# (kind, subscriber, filter, passive, topic): 0 = subscribe,
# 1 = unsubscribe, 2+ = publish
bus_ops = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, SUBSCRIBERS - 1),
              st.integers(0, len(FILTERS) - 1), st.booleans(),
              st.integers(0, len(TOPICS) - 1)),
    min_size=10, max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=bus_ops)
def test_routes_deliver_what_a_per_event_filter_delivers(ops):
    """Whatever subscribe / unsubscribe / publish interleaving, the
    routed bus delivers what running every subscriber's filter on every
    event, in subscription order, delivers."""
    bus = ProbeBus(clock=FakeClock())
    delivered = []
    callbacks = [
        (lambda t, _time, d, index=index: delivered.append((index, d["n"])))
        for index in range(SUBSCRIBERS)
    ]
    model = []  # (index, matcher, passive), in subscription order
    expected = []
    for n, (kind, index, which, passive, topic_index) in enumerate(ops):
        subscribed = any(entry[0] == index for entry in model)
        if kind == 0:
            if subscribed:
                with pytest.raises(ValueError):
                    bus.subscribe(callbacks[index])
                continue
            bus.subscribe(callbacks[index], topics=FILTERS[which],
                          passive=passive)
            model.append((index, _make_matcher(FILTERS[which]), passive))
        elif kind == 1:
            bus.unsubscribe(callbacks[index])
            model = [entry for entry in model if entry[0] != index]
        else:
            topic = TOPICS[topic_index]
            bus.publish(topic, n=n)
            expected.extend(
                (entry[0], n) for entry in model
                if entry[1] is None or entry[1](topic))
        assert len(bus) == len(model)
        assert bus.active == any(not entry[2] for entry in model)
    assert delivered == expected
