"""Unit and property tests for the SCHED_FIFO run-queue structures.

The run queue is :class:`~repro.engine.readyqueue.IndexedLevelQueue`
over the SCHED_FIFO range; the circular list and bitmap cases test the
Figure 5 model in ``tests/engine/reference.py``.
"""

import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine
from repro.engine.readyqueue import IndexedLevelQueue, ReadyQueueError
from repro.hardware.xeonphi import xeon_phi_topology
from repro.simkernel.kernel import Kernel
from repro.simkernel.runqueue import MAX_RT_PRIO, MIN_RT_PRIO
from tests.engine.reference import CircularDList, PriorityBitmap

pytestmark = pytest.mark.tier1


def fifo_runqueue(cpu_id):
    """One CPU's SCHED_FIFO run queue (levels 1..99)."""
    return IndexedLevelQueue(MIN_RT_PRIO, MAX_RT_PRIO, cpu_id=cpu_id)


class Item:
    """Hashless-by-identity payload (mirrors how threads are stored)."""

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return f"Item({self.label})"


# ---------------------------------------------------------------------------
# CircularDList
# ---------------------------------------------------------------------------


def test_dlist_empty():
    dlist = CircularDList()
    assert len(dlist) == 0
    assert not dlist
    assert dlist.peek_head() is None
    assert list(dlist) == []


def test_dlist_fifo_order():
    dlist = CircularDList()
    items = [Item(i) for i in range(5)]
    for item in items:
        dlist.push_tail(item)
    assert list(dlist) == items
    popped = [dlist.pop_head() for _ in range(5)]
    assert popped == items


def test_dlist_push_head():
    dlist = CircularDList()
    a, b, c = Item("a"), Item("b"), Item("c")
    dlist.push_tail(a)
    dlist.push_tail(b)
    dlist.push_head(c)
    assert list(dlist) == [c, a, b]


def test_dlist_remove_middle():
    dlist = CircularDList()
    items = [Item(i) for i in range(4)]
    for item in items:
        dlist.push_tail(item)
    dlist.remove(items[2])
    assert list(dlist) == [items[0], items[1], items[3]]
    assert items[2] not in dlist


def test_dlist_remove_head_moves_head():
    dlist = CircularDList()
    a, b = Item("a"), Item("b")
    dlist.push_tail(a)
    dlist.push_tail(b)
    dlist.remove(a)
    assert dlist.peek_head() is b


def test_dlist_remove_only_element():
    dlist = CircularDList()
    a = Item("a")
    dlist.push_tail(a)
    dlist.remove(a)
    assert len(dlist) == 0
    assert dlist.peek_head() is None


def test_dlist_double_insert_rejected():
    dlist = CircularDList()
    a = Item("a")
    dlist.push_tail(a)
    with pytest.raises(ReadyQueueError):
        dlist.push_tail(a)


def test_dlist_remove_absent_rejected():
    dlist = CircularDList()
    with pytest.raises(ReadyQueueError):
        dlist.remove(Item("ghost"))


def test_dlist_pop_empty_rejected():
    with pytest.raises(ReadyQueueError):
        CircularDList().pop_head()


def test_dlist_circularity():
    """The list really is circular: tail.next is head, head.prev is tail."""
    dlist = CircularDList()
    items = [Item(i) for i in range(3)]
    for item in items:
        dlist.push_tail(item)
    head = dlist._head
    assert head.prev.next is head
    assert head.next.next.next is head


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["push_tail", "push_head", "pop"]),
                max_size=60))
def test_dlist_matches_deque_model(operations):
    """Property: CircularDList behaves like collections.deque."""
    from collections import deque

    dlist = CircularDList()
    model = deque()
    counter = 0
    for op in operations:
        if op == "push_tail":
            item = Item(counter)
            counter += 1
            dlist.push_tail(item)
            model.append(item)
        elif op == "push_head":
            item = Item(counter)
            counter += 1
            dlist.push_head(item)
            model.appendleft(item)
        elif op == "pop" and model:
            assert dlist.pop_head() is model.popleft()
        assert list(dlist) == list(model)
        assert len(dlist) == len(model)


# ---------------------------------------------------------------------------
# PriorityBitmap
# ---------------------------------------------------------------------------


def test_bitmap_empty_highest_none():
    assert PriorityBitmap().highest() is None


def test_bitmap_set_clear():
    bitmap = PriorityBitmap()
    bitmap.set(50)
    bitmap.set(98)
    assert bitmap.highest() == 98
    bitmap.clear(98)
    assert bitmap.highest() == 50
    bitmap.clear(50)
    assert bitmap.highest() is None


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=99)))
def test_bitmap_highest_matches_max(priorities):
    bitmap = PriorityBitmap()
    for priority in priorities:
        bitmap.set(priority)
    if priorities:
        assert bitmap.highest() == max(priorities)
    else:
        assert bitmap.highest() is None


# ---------------------------------------------------------------------------
# the SCHED_FIFO run queue
# ---------------------------------------------------------------------------


def test_runqueue_priority_order():
    runqueue = fifo_runqueue(0)
    low, mid, high = Item("low"), Item("mid"), Item("high")
    runqueue.enqueue(low, 10)
    runqueue.enqueue(high, 90)
    runqueue.enqueue(mid, 50)
    assert runqueue.pop() == (high, 90)
    assert runqueue.pop() == (mid, 50)
    assert runqueue.pop() == (low, 10)


def test_runqueue_fifo_within_level():
    runqueue = fifo_runqueue(0)
    first, second = Item("first"), Item("second")
    runqueue.enqueue(first, 50)
    runqueue.enqueue(second, 50)
    assert runqueue.pop()[0] is first
    assert runqueue.pop()[0] is second


def test_runqueue_preempted_thread_goes_to_head():
    runqueue = fifo_runqueue(0)
    waiting, preempted = Item("waiting"), Item("preempted")
    runqueue.enqueue(waiting, 50)
    runqueue.enqueue(preempted, 50, at_head=True)
    assert runqueue.pop()[0] is preempted


def test_runqueue_priority_bounds():
    runqueue = fifo_runqueue(0)
    with pytest.raises(ReadyQueueError):
        runqueue.enqueue(Item("x"), 0)
    with pytest.raises(ReadyQueueError):
        runqueue.enqueue(Item("x"), 100)
    assert MIN_RT_PRIO == 1
    assert MAX_RT_PRIO == 99


def test_runqueue_dequeue_specific():
    runqueue = fifo_runqueue(0)
    a, b = Item("a"), Item("b")
    runqueue.enqueue(a, 60)
    runqueue.enqueue(b, 60)
    runqueue.dequeue(a, 60)
    assert len(runqueue) == 1
    assert runqueue.pop()[0] is b


def test_runqueue_empty_pop_rejected():
    with pytest.raises(ReadyQueueError):
        fifo_runqueue(0).pop()


def test_runqueue_threads_at_level():
    runqueue = fifo_runqueue(0)
    a, b = Item("a"), Item("b")
    runqueue.enqueue(a, 7)
    runqueue.enqueue(b, 7)
    assert runqueue.items_at(7) == [a, b]
    assert runqueue.items_at(8) == []


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=99), st.booleans()),
        max_size=50,
    )
)
def test_runqueue_pop_is_highest_then_fifo(entries):
    """Property: pop() always returns the oldest item of the highest level."""
    runqueue = fifo_runqueue(0)
    model = {}
    counter = 0
    for priority, do_pop in entries:
        if do_pop and model:
            expected_prio = max(model)
            expected_item = model[expected_prio][0]
            item, prio = runqueue.pop()
            assert prio == expected_prio
            assert item is expected_item
            model[expected_prio].pop(0)
            if not model[expected_prio]:
                del model[expected_prio]
        else:
            item = Item(counter)
            counter += 1
            runqueue.enqueue(item, priority)
            model.setdefault(priority, []).append(item)
        expected_highest = max(model) if model else None
        assert runqueue.highest_priority() == expected_highest
        assert len(runqueue) == sum(len(v) for v in model.values())


def test_runqueue_dequeue_at_never_used_level_rejected():
    runqueue = fifo_runqueue(0)
    runqueue.enqueue(Item("a"), 40)
    with pytest.raises(ReadyQueueError):
        runqueue.dequeue(Item("b"), 41)
    assert len(runqueue) == 1


def test_runqueue_items_at_never_used_level_is_empty():
    runqueue = fifo_runqueue(0)
    assert runqueue.items_at(MIN_RT_PRIO) == []
    assert runqueue.items_at(MAX_RT_PRIO) == []
    runqueue.enqueue(Item("a"), 50)
    assert runqueue.items_at(49) == []


def test_kernel_run_queues_allocate_levels_lazily():
    """The 228 run queues of the Xeon Phi topology stay under 1 MB:
    a level's FIFO exists only once something was enqueued there
    (99 eager levels per CPU cost 4-18 MB, depending on the list)."""
    topology = xeon_phi_topology()
    engine_files = os.path.join(os.path.dirname(repro.engine.__file__),
                                "*")
    tracemalloc.start()
    try:
        kernel = Kernel(topology)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    traces = snapshot.filter_traces(
        [tracemalloc.Filter(True, engine_files)]
    ).traces
    allocated = sum(trace.size for trace in traces)
    assert len(kernel.runqueues) == 228
    assert allocated < 1_000_000, f"{allocated} bytes"
