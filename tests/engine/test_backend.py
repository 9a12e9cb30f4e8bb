"""The execution core's public surface, and the description of it
that the benchmark reads.

The engine and level-queue tests pin the surface every consumer (the
kernel, the theory simulator, the snapshot layer) relies on.  Each runs
on the execution core (``fast``, the name the benchmark records) and on
its model in ``tests/engine/reference.py`` (``reference``): the two
must share the surface for the equivalence properties in
``test_backend_properties.py`` and the whole-stack lockstep test to
compare them.
"""

import pytest

from repro.engine.backend import get_backend
from repro.engine.events import Engine
from repro.engine.readyqueue import (
    HeapReadyQueue,
    IndexedLevelQueue,
    ReadyQueueError,
)
from repro.hardware.overheads import XeonPhiCostModel
from repro.model import PeriodicTask, TaskSet
from repro.sched.simulator import ScheduleSimulator
from repro.simkernel.cpu import Topology, uniform_share
from repro.simkernel.kernel import Kernel
from tests.engine.reference import ReferenceEngine, ReferenceLevelQueue

pytestmark = pytest.mark.tier1

ENGINES = {"fast": Engine, "reference": ReferenceEngine}
LEVEL_QUEUES = {"fast": IndexedLevelQueue, "reference": ReferenceLevelQueue}


def test_backend_describes_the_single_core():
    """``perfbench`` records ``.name`` and passes ``.noise_mode`` to
    the cost model; there is nothing to choose."""
    core = get_backend(None)
    assert core.name == "fast"
    topology = Topology(2, 1, share_fn=uniform_share)
    XeonPhiCostModel(topology, noise=core.noise_mode)


def test_backend_factories_build_the_right_classes():
    """Consumers construct the core's classes directly: the kernel its
    engine and FIFO run queues, the theory simulator its keyed heaps."""
    kernel = Kernel(Topology(2, 1, share_fn=uniform_share))
    assert type(kernel.engine) is Engine
    assert [type(queue) for queue in kernel.runqueues] \
        == [IndexedLevelQueue, IndexedLevelQueue]
    taskset = TaskSet([PeriodicTask("a", 1.0, 4.0)], n_processors=2)
    for policy in ("rm", "dm", "edf"):
        simulator = ScheduleSimulator(taskset, policy=policy)
        simulator.run(until=4.0)
        assert [type(queue) for queue in simulator._ready.cpu_queues] \
            == [HeapReadyQueue, HeapReadyQueue]


def test_noise_modes():
    """Cost-model noise is drawn in batches; the one-draw-per-event
    mode lives on only as the model's ``scalar_noisy``."""
    assert get_backend(None).noise_mode == "batched"
    topology = Topology(2, 1, share_fn=uniform_share)
    assert XeonPhiCostModel(topology)._noise_stream is not None
    with pytest.raises(ValueError, match="unknown noise mode"):
        XeonPhiCostModel(topology, noise="scalar")


@pytest.mark.parametrize("name", ["reference", "fast"])
def test_engine_api_parity(name):
    engine = ENGINES[name](start_time=1.0)
    assert engine.now == 1.0
    assert engine.events_processed == 0
    assert engine.pending_count == 0
    assert engine.peek_time() is None
    assert engine.step() is False

    fired = []
    handle = engine.schedule_at(2.0, lambda: fired.append("a"))
    engine.schedule_after(0.5, lambda: fired.append("b"))
    assert engine.pending_count == 2
    assert engine.heap_size == 2
    assert engine.peek_time() == 1.5
    with pytest.raises(ValueError):
        engine.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        engine.schedule_after(-0.1, lambda: None)

    engine.cancel(handle)
    engine.cancel(handle)  # double-cancel is a no-op
    assert engine.pending_count == 1
    assert engine.run() == 1
    assert fired == ["b"]
    assert engine.now == 1.5
    assert engine.events_processed == 1


@pytest.mark.parametrize("name", ["reference", "fast"])
def test_engine_run_until_and_max_events(name):
    engine = ENGINES[name]()
    fired = []
    for time in (1.0, 2.0, 3.0, 4.0):
        engine.schedule_at(time, lambda t=time: fired.append(t))
    assert engine.run(max_events=1) == 1
    assert engine.run(until=3.0) == 2
    assert engine.now == 3.0
    assert engine.run(until=10.0) == 1
    assert engine.now == 10.0  # clock advances to the horizon
    assert fired == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("name", ["reference", "fast"])
def test_fifo_queue_api_parity(name):
    queue = LEVEL_QUEUES[name](1, 10, cpu_id=3)
    assert queue.cpu_id == 3
    assert not queue
    assert queue.highest_priority() is None
    with pytest.raises(ReadyQueueError):
        queue.pop()

    queue.enqueue("a", 5)
    queue.enqueue("b", 5)
    queue.enqueue("c", 7)
    queue.enqueue("head", 5, at_head=True)
    assert len(queue) == 4
    assert queue.highest_priority() == 7
    assert queue.items_at(5) == ["head", "a", "b"]
    assert list(queue) == ["c", "head", "a", "b"]

    queue.dequeue("a", 5)
    with pytest.raises(ReadyQueueError):
        queue.dequeue("a", 5)
    assert queue.pop() == ("c", 7)
    assert queue.pop() == ("head", 5)
    assert queue.pop() == ("b", 5)
    assert not queue
