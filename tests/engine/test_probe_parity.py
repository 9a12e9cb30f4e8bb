"""The engine publishes the same engine.* probe stream as its model.

The engine's drain path hoists the ``probes.active`` test out of the
loop; these tests pin that when a bus IS active, the hoisted path
still emits ``engine.event_pop`` and ``engine.compact`` exactly like
the model engine (``tests/engine/reference.py``) — topic for topic,
payload for payload, also with the whole middleware on top.  The
lockstep comparison of the ``rtseed.*``/``kernel.*`` streams is
``tests/check/test_engine_diff.py``.
"""

import pytest

from repro.engine.events import Engine
from repro.obs.bus import ProbeBus
from tests.engine.reference import ReferenceEngine, model_core

pytestmark = pytest.mark.tier1


class EngineClock:
    """Adapter so the bus stamps events with the engine's clock."""

    def __init__(self, engine):
        self._engine = engine

    @property
    def now(self):
        return self._engine.now


def observed(engine_cls, drive):
    """Run ``drive(engine)`` with a subscriber attached; return the
    canonical probe stream."""
    engine = engine_cls()
    bus = ProbeBus(clock=EngineClock(engine))
    engine.probes = bus
    stream = []
    bus.subscribe(
        lambda topic, time, data: stream.append(
            (topic, time, tuple(sorted(data.items())))
        ),
        topics=["engine.*"],
    )
    drive(engine)
    return stream


def drive_pops(engine):
    """Interleaved schedules and cancels, drained with run()."""
    events = []
    for index in range(50):
        events.append(engine.schedule_at(
            float(index), lambda: None, priority=index % 3,
        ))
    for event in events[::2]:
        engine.cancel(event)
    engine.run()


def drive_step_pops(engine):
    """Same workload drained with step() (the unhoisted path)."""
    for index in range(20):
        engine.schedule_at(float(index), lambda: None,
                           priority=index % 2)
    while engine.step():
        pass


def drive_compaction(engine):
    """Enough cancels to trip the lazy-cancellation compactor."""
    events = [engine.schedule_at(float(index), lambda: None)
              for index in range(200)]
    for event in events[:150]:
        engine.cancel(event)
    engine.run()


@pytest.mark.parametrize(
    "drive", [drive_pops, drive_step_pops, drive_compaction],
    ids=["run", "step", "compact"],
)
def test_probe_streams_byte_identical(drive):
    model = observed(ReferenceEngine, drive)
    assert model, "expected a non-empty probe stream"
    assert observed(Engine, drive) == model


def test_compaction_publishes_on_both_backends():
    model = observed(ReferenceEngine, drive_compaction)
    compacts = [entry for entry in model
                if entry[0] == "engine.compact"]
    assert compacts, "workload must trip the compactor"
    assert observed(Engine, drive_compaction) == model


def test_full_middleware_engine_stream_matches():
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
    from repro.core.middleware import RTSeed

    def run():
        middleware = RTSeed(seed=0)
        middleware.add_task(
            make_eval_task(4),
            n_jobs=2,
            cpu=0,
            policy="one_by_one",
            optional_deadline=OPTIONAL_DEADLINE,
        )
        stream = []
        middleware.probes.subscribe(
            lambda topic, time, data: stream.append(
                (topic, time, tuple(sorted(data.items())))
            ),
            topics=["engine.*"],
        )
        middleware.run()
        return middleware, stream

    with model_core():
        model, model_stream = run()
    assert type(model.kernel.engine) is ReferenceEngine
    assert any(topic == "engine.event_pop"
               for topic, _time, _data in model_stream)
    middleware, stream = run()
    assert type(middleware.kernel.engine) is Engine
    assert stream == model_stream
