"""The ready-queue section of a state capture.

:func:`repro.snapshot.state.capture_queues` renders every CPU's ready
queue as ``{level: [thread names, head first]}``.  The reference below
is the plain walk over every level of every queue; the capture must
produce its dict whatever the queues hold.
"""

import pytest

from repro.simkernel import Kernel, Topology
from repro.simkernel.cpu import uniform_share
from repro.snapshot.state import capture_queues, capture_state

pytestmark = pytest.mark.tier1


def full_walk(kernel):
    """Every level of every CPU's queue, in ascending level order."""
    cpus = []
    for cpu, queue in enumerate(kernel.runqueues):
        levels = {}
        for prio in range(queue.min_prio, queue.max_prio + 1):
            names = [thread.name for thread in queue.items_at(prio)]
            if names:
                levels[str(prio)] = names
        cpus.append({
            "cpu": cpu,
            "ready": {"kind": "levels", "levels": levels},
            "other": [thread.name for thread in kernel.other_queues[cpu]],
        })
    return cpus


def _idle():
    return
    yield


def test_ready_threads_at_several_levels_of_one_cpu_are_captured():
    kernel = Kernel(Topology(2, 2, share_fn=uniform_share,
                             background_weight=0.0))
    # CPU 2 holds ready threads at three levels, two of them in FIFO
    # order at one level; every other CPU's queue is empty
    for name, priority in [("low", 10), ("mid-a", 40), ("high", 70),
                           ("mid-b", 40), ("mid-c", 40)]:
        kernel.create_thread(name, _idle(), cpu=2, priority=priority)
    queues = capture_queues(kernel)
    assert queues == full_walk(kernel)
    levels = queues[2]["ready"]["levels"]
    assert len(levels) >= 2
    assert list(levels) == sorted(levels, key=int)
    assert all(not entry["ready"]["levels"]
               for cpu, entry in enumerate(queues) if cpu != 2)
    assert capture_state(kernel)["queues"] == full_walk(kernel)
