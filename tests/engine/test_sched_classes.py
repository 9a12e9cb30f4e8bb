"""Unit tests for the scheduling classes.

These exercise the :class:`~repro.engine.classes.SchedClass` orders in
isolation, with minimal fake part items (band/rank/job), and the theory
simulator's dispatch on heaps keyed by a class's ``priority_key``.
"""

import pytest

from repro.engine.classes import (
    HPQ_PRIORITY,
    NRT_BAND,
    PRIORITY_GAP,
    RT_BAND,
    DMClass,
    RMClass,
    RMWPBandClass,
    SchedClass,
    get_sched_class,
    nrtq_priority,
    rtq_priority,
)
from repro.engine.readyqueue import HeapReadyQueue
from repro.model import PeriodicTask, TaskSet
from repro.model.job import PartType
from repro.sched.simulator import ScheduleSimulator, _ReadySet

pytestmark = pytest.mark.tier1


class _Task:
    def __init__(self, name, period, deadline=None):
        self.name = name
        self.period = period
        self.deadline = deadline if deadline is not None else period


class _Job:
    def __init__(self, task, release, deadline):
        self.task = task
        self.release = release
        self.deadline = deadline


def part(name="t", period=10.0, deadline=None, release=0.0, band=RT_BAND,
         rank=0, part_index=None):
    """A minimal part item (the theory simulator's entity shape)."""
    task = _Task(name, period, deadline)
    job = _Job(task, release, release + task.deadline)

    class Item:
        pass

    item = Item()
    item.job = job
    item.band = band
    item.rank = rank
    item.part_index = part_index
    item.part = PartType.WHOLE
    item.cpu = 0
    return item


def _one_cpu_simulator(policy, running):
    """A theory simulator on one CPU, ``running`` on it, nothing ready."""
    simulator = ScheduleSimulator(TaskSet([PeriodicTask("t", 1.0, 10.0)]),
                                  policy=policy)
    simulator._ready = _ReadySet(simulator.sched_class, 1)
    simulator._running = [running]
    return simulator


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_resolves_all_policies():
    for name in ("rm", "dm", "edf", "rmwp"):
        assert isinstance(get_sched_class(name), SchedClass)


def test_registry_passes_instances_through():
    custom = RMClass()
    assert get_sched_class(custom) is custom
    rmwp = get_sched_class("rmwp")
    assert get_sched_class(rmwp) is rmwp


def test_registry_rejects_unknown():
    with pytest.raises(ValueError, match="lottery"):
        get_sched_class("lottery")


def test_each_policy_is_a_singleton():
    assert get_sched_class("rm") is get_sched_class("rm")


# ---------------------------------------------------------------------------
# offline ordering (planner-facing)
# ---------------------------------------------------------------------------


def test_rm_and_dm_order_differ_for_constrained_deadlines():
    tasks = [
        _Task("slow_urgent", period=100.0, deadline=10.0),
        _Task("fast_lax", period=20.0, deadline=20.0),
    ]
    rm_order = [t.name for t in RMClass().priority_order(tasks)]
    dm_order = [t.name for t in DMClass().priority_order(tasks)]
    assert rm_order == ["fast_lax", "slow_urgent"]
    assert dm_order == ["slow_urgent", "fast_lax"]


def test_rank_is_stable_and_name_breaks_ties():
    tasks = [_Task("b", 10.0), _Task("a", 10.0), _Task("c", 5.0)]
    rank = get_sched_class("rm").rank(tasks)
    assert rank == {"c": 0, "a": 1, "b": 2}


# ---------------------------------------------------------------------------
# runtime ordering (dispatch-facing)
# ---------------------------------------------------------------------------


def test_band_dominates_rank():
    """Figure 4: every RT-band part outranks every NRT-band part, even a
    rank-0 optional of the most urgent task."""
    sched = get_sched_class("rmwp")
    low_rt = part(name="low", rank=50, band=RT_BAND)
    top_nrt = part(name="top", rank=0, band=NRT_BAND)
    assert sched.priority_key(low_rt) < sched.priority_key(top_nrt)


def test_edf_orders_by_job_deadline_not_rank():
    sched = get_sched_class("edf")
    late_rank0 = part(name="a", rank=0, release=0.0, deadline=100.0)
    early_rank9 = part(name="b", rank=9, release=0.0, deadline=10.0)
    assert sched.priority_key(early_rank9) < sched.priority_key(late_rank0)


def test_tie_break_is_release_then_name_then_part_index():
    sched = get_sched_class("rm")
    older = part(name="z", rank=3, release=0.0)
    newer = part(name="a", rank=3, release=5.0)
    assert sched.priority_key(older) < sched.priority_key(newer)
    first = part(name="a", rank=3, release=0.0, part_index=0)
    second = part(name="a", rank=3, release=0.0, part_index=1)
    assert sched.priority_key(first) < sched.priority_key(second)


def test_heap_classes_dispatch_in_key_order():
    sched = get_sched_class("rm")
    queue = HeapReadyQueue(sched.priority_key)
    items = [part(name=f"t{i}", rank=rank)
             for i, rank in enumerate([3, 0, 2, 1])]
    for item in items:
        queue.push(item)
    picked = [queue.pop() for _ in range(4)]
    assert [i.rank for i in picked] == [0, 1, 2, 3]
    assert not queue


def test_check_preempt_is_strict():
    """The theory simulator preempts only for a strictly more urgent
    key.  An equal-key arrival must NOT preempt (keys are unique per
    coexisting item, so equality only arises against the running item's
    own key — and a strict comparison is what makes heap dispatch
    equivalent to the historical min() scan)."""
    current = part(name="cur", rank=1, release=0.0)
    simulator = _one_cpu_simulator("rm", current)
    simulator._allocate_partitioned()  # empty queue
    assert simulator._running == [current]
    simulator._ready.add(part(name="worse", rank=2, release=0.0))
    simulator._allocate_partitioned()
    assert simulator._running == [current]
    simulator._ready.add(part(name="cur", rank=1, release=0.0))
    simulator._allocate_partitioned()
    assert simulator._running == [current]
    better = part(name="better", rank=0, release=0.0)
    simulator._ready.add(better)
    simulator._allocate_partitioned()
    assert simulator._running == [better]
    assert current in simulator._ready

    idle = _one_cpu_simulator("rm", None)  # idle CPU takes anything
    worst = part(name="worst", rank=9, release=0.0)
    idle._ready.add(worst)
    idle._allocate_partitioned()
    assert idle._running == [worst]


def test_dequeue_removes_from_middle():
    sched = get_sched_class("rm")
    queue = HeapReadyQueue(sched.priority_key)
    items = [part(name=f"t{i}", rank=i) for i in range(3)]
    for item in items:
        queue.push(item)
    queue.remove(items[1])
    assert queue.pop() is items[0]
    assert queue.pop() is items[2]


def test_pop_upto_returns_ordered_prefix():
    sched = get_sched_class("rm")
    queue = HeapReadyQueue(sched.priority_key)
    items = [part(name=f"t{i}", rank=rank)
             for i, rank in enumerate([4, 1, 3, 0, 2])]
    for item in items:
        queue.push(item)
    top = queue.pop_upto(2)
    assert [i.rank for i in top] == [0, 1]
    assert len(queue) == 3


# ---------------------------------------------------------------------------
# RMWP band mapping (Figure 5)
# ---------------------------------------------------------------------------


def test_rmwp_band_mapping():
    assert isinstance(get_sched_class("rmwp"), RMWPBandClass)
    assert HPQ_PRIORITY == 99
    assert rtq_priority(0) == 98
    assert rtq_priority(48) == 50
    for rank in range(49):
        mandatory = rtq_priority(rank)
        assert nrtq_priority(mandatory) == mandatory - PRIORITY_GAP


def test_rmwp_runtime_key_is_rm_within_band():
    """The *semi*-fixed behaviour is the driver moving items between
    bands; within a band the key is plain RM."""
    rm, rmwp = get_sched_class("rm"), get_sched_class("rmwp")
    item = part(rank=7)
    assert rm.priority_key(item) == rmwp.priority_key(item)
