"""Tests for the flight recorder: passive cost, ring, dumps, wiring."""

import json

import pytest

from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
from repro.core.middleware import RTSeed
from repro.faults.invariants import check_kernel_invariants
from repro.obs.bus import PROBE_SITES, ProbeBus
from repro.obs.flightrec import (
    AUTO_DUMP_TOPICS,
    DEFAULT_CAPACITY,
    FLIGHTREC_SCHEMA,
    FlightRecorder,
    kernel_state_summary,
)
from repro.simkernel.errors import InvariantViolationError
from repro.simkernel.thread import SchedPolicy
from repro.simkernel.time_units import MSEC, SEC
from repro.snapshot.programs import FaultsProgram

pytestmark = pytest.mark.tier1


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


def make_recorder(capacity=4, **kwargs):
    """Recorder on a bare bus (no kernel)."""
    bus = ProbeBus(clock=FakeClock())
    recorder = FlightRecorder(capacity=capacity, **kwargs)
    bus.subscribe(recorder._on_event, passive=True)
    bus.flight = recorder
    recorder._bus = bus
    return bus, recorder


def test_passive_subscription_keeps_bus_inactive():
    bus, recorder = make_recorder()
    assert not bus.active  # probe sites will skip payload construction
    # direct publishes still fan out (guarding is the call site's job)
    bus.publish("kernel.dispatch", thread="t")
    assert recorder.recorded == 1
    assert not bus.active


def test_recorder_rides_along_once_bus_activates():
    bus, recorder = make_recorder()
    seen = []
    fn = bus.subscribe(lambda topic, time, data: seen.append(topic))
    assert bus.active
    bus.publish("kernel.dispatch", thread="t")
    assert recorder.recorded == 1
    bus.unsubscribe(fn)
    assert not bus.active  # only the passive recorder remains


def test_ring_caps_and_counts_dropped():
    bus, recorder = make_recorder(capacity=3)
    bus.subscribe(lambda topic, time, data: None)
    for index in range(5):
        bus.publish("kernel.dispatch", index=index)
    assert len(recorder) == 3
    assert recorder.recorded == 5
    assert recorder.dropped == 2
    assert [e["data"]["index"] for e in recorder.events()] == [2, 3, 4]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_snapshot_header_fields():
    bus, recorder = make_recorder(capacity=2, seed=7)
    bus.subscribe(lambda topic, time, data: None)
    bus.publish("kernel.dispatch", thread="t")
    snapshot = recorder.snapshot("unit_test")
    header = snapshot["header"]
    assert header["schema"] == FLIGHTREC_SCHEMA
    assert header["reason"] == "unit_test"
    assert header["seed"] == 7
    assert header["capacity"] == 2
    assert header["recorded"] == 1
    assert header["dropped"] == 0
    assert snapshot["kernel"] is None  # no kernel wired
    assert snapshot["events"][0]["topic"] == "kernel.dispatch"


def test_dump_writes_jsonl(tmp_path):
    bus, recorder = make_recorder(capacity=4, seed=1)
    bus.subscribe(lambda topic, time, data: None)
    bus.publish("kernel.dispatch", thread="a")
    bus.publish("kernel.block", thread="a")
    path = tmp_path / "dump.jsonl"
    recorder.dump(str(path), "unit_test")
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == FLIGHTREC_SCHEMA
    assert json.loads(lines[1]) is None  # kernel summary slot
    events = [json.loads(line) for line in lines[2:]]
    assert [e["topic"] for e in events] == ["kernel.dispatch",
                                            "kernel.block"]
    assert recorder.dumps == [str(path)]


def test_dump_publishes_marker_but_not_into_itself(tmp_path):
    bus, recorder = make_recorder(capacity=8)
    topics = []
    bus.subscribe(lambda topic, time, data: topics.append(topic))
    bus.publish("kernel.dispatch")
    path = tmp_path / "dump.jsonl"
    recorder.dump(str(path), "unit_test")
    assert topics == ["kernel.dispatch", "flightrec.dump"]
    events = [json.loads(line)
              for line in path.read_text().splitlines()[2:]]
    assert all(e["topic"] != "flightrec.dump" for e in events)
    # the live marker IS recorded for the *next* dump
    assert recorder.events()[-1]["topic"] == "flightrec.dump"


def test_auto_dump_on_degrade_topics(tmp_path):
    bus, recorder = make_recorder(capacity=8, seed=3,
                                  dump_dir=str(tmp_path))
    bus.subscribe(lambda topic, time, data: None)
    bus.publish("kernel.dispatch")
    for topic in sorted(AUTO_DUMP_TOPICS):
        bus.publish(topic)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "flightrec-degrade_enter-seed3.jsonl",
        "flightrec-degrade_watchdog_fire-seed3.jsonl",
    ]


def test_repeat_dumps_get_sequence_suffix(tmp_path):
    bus, recorder = make_recorder(capacity=8, seed=0,
                                  dump_dir=str(tmp_path))
    bus.subscribe(lambda topic, time, data: None)
    recorder.dump_to_dir("edge")
    recorder.dump_to_dir("edge")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["flightrec-edge-seed0-2.jsonl",
                     "flightrec-edge-seed0.jsonl"]


def test_distinct_recorders_same_reason_seed_do_not_collide(tmp_path):
    # regression: the dump sequence used to live on the instance, so a
    # second recorder (same reason, same seed, same directory — e.g.
    # two campaign scenarios sharing a --flight-dir) recomputed
    # sequence 1 and overwrote the first recorder's file
    bus1, rec1 = make_recorder(capacity=8, seed=9,
                               dump_dir=str(tmp_path))
    bus2, rec2 = make_recorder(capacity=8, seed=9,
                               dump_dir=str(tmp_path))
    bus1.publish("kernel.dispatch", which="first")
    bus2.publish("kernel.dispatch", which="second")
    path1 = rec1.dump_to_dir("edge")
    path2 = rec2.dump_to_dir("edge")
    assert path1 != path2
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["flightrec-edge-seed9-2.jsonl",
                     "flightrec-edge-seed9.jsonl"]
    # both rings survived — neither dump clobbered the other
    first = json.loads(open(path1).read().splitlines()[2])
    second = json.loads(open(path2).read().splitlines()[2])
    assert first["data"] == {"which": "first"}
    assert second["data"] == {"which": "second"}
    # a fresh directory still starts at sequence 1: the counter is
    # per-directory, so seeded re-runs keep identical file sets
    fresh = tmp_path / "fresh"
    bus3, rec3 = make_recorder(capacity=8, seed=9,
                               dump_dir=str(fresh))
    bus3.publish("kernel.dispatch")
    path3 = rec3.dump_to_dir("edge")
    assert path3.endswith("flightrec-edge-seed9.jsonl")


def test_record_failure_dump_matches_returned_snapshot(tmp_path):
    bus, recorder = make_recorder(capacity=8, seed=0,
                                  dump_dir=str(tmp_path))
    bus.subscribe(lambda topic, time, data: None)
    bus.publish("kernel.dispatch")
    snapshot = recorder.record_failure("edge")
    lines = (tmp_path / "flightrec-edge-seed0.jsonl") \
        .read_text().splitlines()
    assert json.loads(lines[0]) == json.loads(
        json.dumps(snapshot["header"]))
    dumped_events = [json.loads(line) for line in lines[2:]]
    assert dumped_events == snapshot["events"]


def test_flightrec_dump_is_a_declared_probe_site():
    assert "flightrec.dump" in PROBE_SITES


def test_attach_wires_kernel_and_detach_unwires():
    middleware = RTSeed()
    kernel = middleware.kernel
    recorder = FlightRecorder.attach(kernel, seed=5)
    assert kernel.probes.flight is recorder
    assert not kernel.probes.active  # passive: bus stays idle
    assert recorder.capacity == DEFAULT_CAPACITY
    recorder.detach()
    assert kernel.probes.flight is None
    # ``_on_event`` is a new bound-method object on every access, and
    # detaching still finds the one the bus holds
    assert len(kernel.probes) == 0
    kernel.probes.subscribe(lambda topic, time, data: None)
    kernel.probes.publish("kernel.dispatch", thread="t")
    assert recorder.recorded == 0


def test_kernel_state_summary_on_live_run():
    middleware = RTSeed(seed=0)
    middleware.add_task(
        make_eval_task(2),
        n_jobs=1,
        cpu=0,
        policy="one_by_one",
        optional_deadline=OPTIONAL_DEADLINE,
    )
    recorder = FlightRecorder.attach(middleware.kernel, seed=0)
    summaries = []
    middleware.probes.subscribe(
        lambda topic, time, data: summaries.append(
            kernel_state_summary(middleware.kernel)
        ),
        topics=["rtseed.release"],
    )
    middleware.run()
    assert summaries, "expected at least one job release"
    mid_run = summaries[0]
    assert mid_run["cpus"][0]["cpu"] == 0
    assert any(cpu["running"] is not None for cpu in mid_run["cpus"])
    assert mid_run["threads_alive"] >= 1
    assert mid_run["degraded"] is None
    assert mid_run["engine"]["pending"] >= 0
    # the passively-attached recorder saw the activated bus's events
    assert recorder.recorded > 0
    final = kernel_state_summary(middleware.kernel)
    assert final["pending_timers"] == []
    assert final["threads_alive"] == 0


def test_seeded_runs_snapshot_identically():
    def one_run():
        middleware = RTSeed(seed=0)
        middleware.add_task(
            make_eval_task(3),
            n_jobs=2,
            cpu=0,
            policy="one_by_one",
            optional_deadline=OPTIONAL_DEADLINE,
        )
        recorder = FlightRecorder.attach(middleware.kernel, seed=0)
        middleware.probes.subscribe(lambda topic, time, data: None)
        middleware.run()
        return recorder.snapshot("end_of_run")

    assert one_run() == one_run()


def test_passive_recorder_alone_leaves_a_whole_run_unobserved():
    """The always-on recorder costs nothing: with nothing else
    subscribed, no probe site builds a payload during a full run."""
    middleware = RTSeed(seed=0)
    recorder = FlightRecorder.attach(middleware.kernel, seed=0)
    middleware.add_task(
        make_eval_task(8),
        n_jobs=2,
        cpu=0,
        policy="one_by_one",
        optional_deadline=OPTIONAL_DEADLINE,
    )
    middleware.run()
    assert middleware.kernel.engine.events_processed > 0
    assert not middleware.probes.active
    assert middleware.probes.published == 0
    assert recorder.recorded == 0


def plant_violation(kernel):
    """Half a second in, put the first running thread back into its
    ready queue and check the invariants: they fail with RUNNING yet
    still in a ready queue."""

    def corrupt():
        for cpu, thread in enumerate(kernel.current):
            if thread is None:
                continue
            if thread.policy is SchedPolicy.FIFO:
                kernel.runqueues[cpu].enqueue(thread, thread.priority)
            else:
                kernel.other_queues[cpu].append(thread)
            check_kernel_invariants(kernel)
            return
        # every CPU idle at this instant: retry deterministically
        kernel.engine.schedule_after(1 * MSEC, corrupt)

    kernel.engine.schedule_after(0.5 * SEC, corrupt)


def planted_run(flight_dir):
    """A 2 s ``baseline`` campaign scenario with the violation planted
    between build and spawn; returns the raised error."""
    run = FaultsProgram({"scenario": "baseline", "seconds": 2,
                         "seed": 0}, flight_dir=str(flight_dir)).build()
    plant_violation(run.kernel)
    run.spawn()
    with pytest.raises(InvariantViolationError) as excinfo:
        run.drain()
    return excinfo.value


def test_planted_violation_raises_with_flight_and_dumps(tmp_path):
    error = planted_run(tmp_path)
    assert error.flight is not None
    assert error.flight["header"]["reason"] == "invariant_violation"
    assert error.flight["events"], "the ring lost the run's last events"
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["flightrec-invariant_violation-seed0.jsonl"]
    lines = (tmp_path / names[0]).read_text().splitlines()
    assert json.loads(lines[0]) == json.loads(
        json.dumps(error.flight["header"]))
    assert [json.loads(line) for line in lines[2:]] == \
        json.loads(json.dumps(error.flight["events"]))


def test_planted_violation_dumps_are_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    planted_run(first)
    planted_run(second)
    names = sorted(path.name for path in first.iterdir())
    assert names
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_ring_tail_equals_the_probe_stream_tail():
    middleware = RTSeed(seed=0)
    middleware.add_task(
        make_eval_task(57),
        n_jobs=6,
        cpu=0,
        policy="one_by_one",
        optional_deadline=OPTIONAL_DEADLINE,
    )
    stream = []
    middleware.probes.subscribe(
        lambda topic, time, data: stream.append(
            (topic, time, tuple(sorted(data.items())))
        ),
    )
    recorder = FlightRecorder.attach(middleware.kernel, seed=0)
    middleware.run()
    tail = recorder.tail()
    assert len(tail) == recorder.capacity
    assert recorder.dropped > 0  # the ring wrapped: this is a true tail
    assert tail == stream[-len(tail):]
