"""The engine executes the same events as its model, and publishes the
same engine.* probe stream.

Executing an event publishes nothing (the bus sees the engine only at
heap compaction, ``engine.compact``), so the per-event order is
recorded on the test side: :func:`recording` makes every scheduled
callback first log ``(now, priority, seq)``.  The engine and the model
engine (``tests/engine/reference.py``) must execute the same sequence
and publish the same ``engine.*`` probes — on the run, step and
compaction drives, and with the whole middleware on top.  The lockstep
comparison of the ``rtseed.*``/``kernel.*`` streams is
``tests/check/test_engine_diff.py``.
"""

import pytest

import repro.simkernel.kernel as kernel_module
from repro.engine.events import Engine
from repro.obs.bus import ProbeBus
from tests.engine.reference import ReferenceEngine, model_core

pytestmark = pytest.mark.tier1


def recording(engine_cls):
    """``engine_cls`` logging every executed event as ``(now, priority,
    seq)`` into the instance's ``executed`` list."""

    class Recording(engine_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.executed = []

        def schedule_at(self, time, callback, priority=0):
            def logged():
                self.executed.append((self.now, priority, seq))
                callback()

            handle = super().schedule_at(time, logged, priority=priority)
            seq = self._seq
            return handle

    return Recording


class EngineClock:
    """Adapter so the bus stamps events with the engine's clock."""

    def __init__(self, engine):
        self._engine = engine

    @property
    def now(self):
        return self._engine.now


def observed(engine_cls, drive):
    """Run ``drive(engine)`` with a subscriber attached; return the
    executed events and the canonical ``engine.*`` probe stream."""
    engine = recording(engine_cls)()
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
    return engine.executed, stream


def schedule_and_cancel(engine):
    """Interleaved schedules and cancels, ties at each instant."""
    events = []
    for index in range(50):
        events.append(engine.schedule_at(
            float(index // 4), lambda: None, priority=index % 3,
        ))
    for event in events[::3]:
        engine.cancel(event)


def drive_pops(engine):
    """The workload drained with run()."""
    schedule_and_cancel(engine)
    engine.run()


def drive_step_pops(engine):
    """The same workload drained with step()."""
    schedule_and_cancel(engine)
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
    executed, _stream = model
    assert executed, "expected executed events"
    assert observed(Engine, drive) == model


def test_compaction_publishes_on_both_backends():
    model = observed(ReferenceEngine, drive_compaction)
    executed, stream = model
    assert len(executed) == 50
    assert [topic for topic, _time, _data in stream] == ["engine.compact"]
    assert observed(Engine, drive_compaction) == model


def test_events_carry_no_probe():
    """Executing events publishes nothing; only compaction does."""
    _executed, stream = observed(Engine, drive_pops)
    assert stream == []


def test_full_middleware_engine_stream_matches():
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
    from repro.core.middleware import RTSeed

    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel_module, "Engine",
                          recording(kernel_module.Engine))
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
        return middleware, middleware.kernel.engine.executed, stream

    with model_core():
        model, model_executed, model_stream = run()
    assert isinstance(model.kernel.engine, ReferenceEngine)
    assert len(model_executed) == model.kernel.engine.events_processed
    middleware, executed, stream = run()
    assert isinstance(middleware.kernel.engine, Engine)
    assert executed == model_executed
    assert stream == model_stream
