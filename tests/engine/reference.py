"""The executable model of the execution core.

These are the object-per-record implementations the production classes
replaced — the checked engine and the Figure 5 level queue, moved here
unchanged except for their names:

* :class:`ReferenceEngine` / :class:`Event` model
  :class:`repro.engine.events.Engine` (one ``Event`` object per
  schedule, heap entries ``(time, priority, seq, event)``, a defensive
  clock check on ``step``);
* :class:`ReferenceLevelQueue` / :class:`CircularDList` /
  :class:`PriorityBitmap` model
  :class:`repro.engine.readyqueue.IndexedLevelQueue` (an intrusive
  double circular list per level behind a bitmap object, with
  duplicate-enqueue detection);
* :func:`scalar_noisy` models
  :meth:`repro.hardware.overheads.XeonPhiCostModel._noisy` (one scalar
  generator call per priced event instead of the batched stream).

The equivalence tests drive a production class and its model with the
same operations and require identical observations; the whole-stack
tests run a program as shipped and again inside :func:`model_core`,
which swaps all three in by monkeypatching (the program has no switch
for it).
"""

import contextlib
import heapq

import pytest

from repro.engine.events import _COMPACT_MIN_CANCELLED
from repro.engine.readyqueue import ReadyQueueError


class Event:
    """A scheduled callback.

    Events are created through :meth:`ReferenceEngine.schedule_at` /
    :meth:`ReferenceEngine.schedule_after` and can be cancelled with
    :meth:`ReferenceEngine.cancel`.  Cancellation is lazy: the heap
    entry stays in place and is skipped when popped (or swept by
    compaction).
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled",
                 "_in_heap")

    def __init__(self, time, priority, seq, callback):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._in_heap = True

    def __lt__(self, other):
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} prio={self.priority} seq={self.seq} {state}>"


class ReferenceEngine:
    """Simulated clock and event loop.

    :param start_time: initial value of the simulated clock, nanoseconds.
    """

    def __init__(self, start_time=0.0):
        self.now = float(start_time)
        #: (time, priority, seq, event) tuples: heap sifts compare at C
        #: speed, and the unique seq means the Event itself is never
        #: compared.
        self._heap = []
        self._seq = 0
        self._events_processed = 0
        self._pending = 0
        self._cancelled = 0
        # telemetry (see :meth:`counters`): per-priority schedule and
        # cancel tallies, the high-water heap length, and compaction
        # totals.  Per-priority *processed* counts are derived at
        # report time, so the hot path pays two dict increments and one
        # length compare — nothing per-pop.
        self._scheduled_by_priority = {}
        self._cancelled_by_priority = {}
        self._peak_heap = 0
        self._compactions = 0
        self._swept_total = 0
        #: optional :class:`repro.obs.bus.ProbeBus` (duck-typed — the
        #: engine stays import-free); only compaction publishes.
        self.probes = None

    @property
    def events_processed(self):
        """Number of events executed so far (for diagnostics and tests)."""
        return self._events_processed

    @property
    def pending_count(self):
        """Number of non-cancelled events still queued.  O(1)."""
        return self._pending

    @property
    def heap_size(self):
        """Physical heap length including not-yet-swept cancelled entries
        (diagnostics; bounded at < 2x :attr:`pending_count` + the
        compaction floor by the lazy-cancellation compactor)."""
        return len(self._heap)

    def counters(self):
        """JSON-ready telemetry counters (see ``docs/OBSERVABILITY.md``).

        Per-priority ``processed`` and ``pending`` tallies are derived
        here with one O(heap) scan — ``processed = scheduled -
        cancelled - pending`` per level — so the event hot path never
        pays for per-type accounting beyond the schedule/cancel dict
        increments.  ``events_scheduled`` is the monotone sequence
        counter; ``peak_heap_size`` is exact (the heap only grows at
        ``schedule_at``).
        """
        pending_by_priority = {}
        for entry in self._heap:
            event = entry[3]
            if not event.cancelled:
                priority = event.priority
                pending_by_priority[priority] = \
                    pending_by_priority.get(priority, 0) + 1
        by_priority = {}
        for priority, scheduled in sorted(
                self._scheduled_by_priority.items()):
            cancelled = self._cancelled_by_priority.get(priority, 0)
            pending = pending_by_priority.get(priority, 0)
            by_priority[str(priority)] = {
                "scheduled": scheduled,
                "cancelled": cancelled,
                "pending": pending,
                "processed": scheduled - cancelled - pending,
            }
        return {
            "events_processed": self._events_processed,
            "events_scheduled": self._seq,
            "events_cancelled": sum(
                self._cancelled_by_priority.values()
            ),
            "pending": self._pending,
            "heap_size": len(self._heap),
            "peak_heap_size": self._peak_heap,
            "compactions": self._compactions,
            "compacted_swept": self._swept_total,
            "by_priority": by_priority,
        }

    def schedule_at(self, time, callback, priority=0):
        """Schedule ``callback()`` at absolute simulated ``time``.

        ``time`` must not be in the past.  ``priority`` breaks ties among
        events at the same instant (lower runs first); the kernel uses it
        to e.g. process timer expiries before thread wake-ups scheduled at
        the same timestamp.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before now ({self.now})"
            )
        self._seq += 1
        event = Event(float(time), priority, self._seq, callback)
        heapq.heappush(self._heap,
                       (event.time, priority, self._seq, event))
        self._pending += 1
        by_priority = self._scheduled_by_priority
        try:
            by_priority[priority] += 1
        except KeyError:
            by_priority[priority] = 1
        heap_len = len(self._heap)
        if heap_len > self._peak_heap:
            self._peak_heap = heap_len
        return event

    def schedule_after(self, delay, callback, priority=0):
        """Schedule ``callback()`` after a relative ``delay`` >= 0."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback, priority=priority)

    def cancel(self, event):
        """Cancel a pending event.  Cancelling twice is a no-op."""
        if event.cancelled:
            return
        event.cancelled = True
        if not event._in_heap:
            # already executed (or swept): nothing queued to account for
            return
        self._pending -= 1
        self._cancelled += 1
        by_priority = self._cancelled_by_priority
        try:
            by_priority[event.priority] += 1
        except KeyError:
            by_priority[event.priority] = 1
        self._maybe_compact()

    def _maybe_compact(self):
        """Rebuild the heap once cancelled entries exceed half of it."""
        if self._cancelled < _COMPACT_MIN_CANCELLED:
            return
        if self._cancelled * 2 <= len(self._heap):
            return
        swept = self._cancelled
        survivors = []
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3]._in_heap = False
            else:
                survivors.append(entry)
        self._heap = survivors
        heapq.heapify(self._heap)
        self._cancelled = 0
        self._compactions += 1
        self._swept_total += swept
        probes = self.probes
        if probes is not None and probes.active:
            probes.publish("engine.compact", swept=swept,
                           survivors=len(survivors))

    def _pop_cancelled_top(self):
        """Drop cancelled entries sitting at the top of the heap."""
        while self._heap and self._heap[0][3].cancelled:
            _, _, _, event = heapq.heappop(self._heap)
            event._in_heap = False
            self._cancelled -= 1

    def peek_time(self):
        """Return the time of the next pending event, or ``None``."""
        self._pop_cancelled_top()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self):
        """Execute the next pending event.  Return ``False`` if none left."""
        while self._heap:
            _, _, _, event = heapq.heappop(self._heap)
            event._in_heap = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            if event.time < self.now:
                raise RuntimeError(
                    f"event time {event.time} behind clock {self.now}"
                )
            self._pending -= 1
            self.now = event.time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run(self, until=None, max_events=None):
        """Drain the event queue.

        :param until: stop once the clock would pass this time (the clock
            is advanced to ``until`` if the queue outlives it).
        :param max_events: safety valve against runaway simulations.
        :returns: number of events executed by this call.
        """
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                return executed
            next_time = self.peek_time()
            if next_time is None:
                if until is not None and until > self.now:
                    self.now = float(until)
                return executed
            if until is not None and next_time > until:
                self.now = float(until)
                return executed
            self.step()
            executed += 1


# ---------------------------------------------------------------------------
# indexed integer-priority levels (Figure 5 / SCHED_FIFO)
# ---------------------------------------------------------------------------


class _Node:
    """Intrusive list node; one per enqueued thread."""

    __slots__ = ("value", "prev", "next", "owner")

    def __init__(self, value):
        self.value = value
        self.prev = None
        self.next = None
        self.owner = None


class CircularDList:
    """Double circular linked list with O(1) push/pop at both ends.

    Mirrors the kernel's per-priority FIFO list: new runnable threads go
    to the tail; a preempted thread returns to the head (SCHED_FIFO
    semantics — it resumes before equal-priority peers).
    """

    def __init__(self):
        self._head = None
        self._len = 0
        self._nodes = {}

    def __len__(self):
        return self._len

    def __bool__(self):
        return self._len > 0

    def __iter__(self):
        node = self._head
        for _ in range(self._len):
            yield node.value
            node = node.next

    def __contains__(self, value):
        return id(value) in self._nodes

    def _insert_before(self, node, anchor):
        node.prev = anchor.prev
        node.next = anchor
        anchor.prev.next = node
        anchor.prev = node

    def push_tail(self, value):
        """Append ``value`` at the tail (normal enqueue)."""
        if id(value) in self._nodes:
            raise ReadyQueueError(f"{value!r} already enqueued")
        node = _Node(value)
        node.owner = self
        self._nodes[id(value)] = node
        if self._head is None:
            node.prev = node.next = node
            self._head = node
        else:
            self._insert_before(node, self._head)
        self._len += 1

    def push_head(self, value):
        """Insert ``value`` at the head (a preempted thread returning)."""
        self.push_tail(value)
        self._head = self._head.prev

    def peek_head(self):
        """Return the head value without removing it (``None`` if empty)."""
        return self._head.value if self._head else None

    def pop_head(self):
        """Remove and return the head value."""
        if self._head is None:
            raise ReadyQueueError("pop from empty list")
        value = self._head.value
        self.remove(value)
        return value

    def remove(self, value):
        """Remove ``value`` from anywhere in the list in O(1)."""
        node = self._nodes.pop(id(value), None)
        if node is None:
            raise ReadyQueueError(f"{value!r} not in list")
        if self._len == 1:
            self._head = None
        else:
            node.prev.next = node.next
            node.next.prev = node.prev
            if self._head is node:
                self._head = node.next
        node.prev = node.next = None
        node.owner = None
        self._len -= 1


class PriorityBitmap:
    """Bitmap over priority levels with O(1) find-highest.

    Python integers are arbitrary-precision, so a single int serves as the
    bitmap; ``int.bit_length`` gives the highest set bit directly.
    """

    def __init__(self):
        self._bits = 0

    def set(self, prio):
        self._bits |= 1 << prio

    def clear(self, prio):
        self._bits &= ~(1 << prio)

    def is_set(self, prio):
        return bool(self._bits >> prio & 1)

    def highest(self):
        """Highest set priority, or ``None`` when the bitmap is empty."""
        if self._bits == 0:
            return None
        return self._bits.bit_length() - 1

    def __bool__(self):
        return self._bits != 0


class ReferenceLevelQueue:
    """Ready queue over integer priority levels, larger = more urgent.

    One FIFO :class:`CircularDList` per level plus a
    :class:`PriorityBitmap` for O(1) lookup of the highest non-empty
    level — the structure of the paper's Figure 5 and of Linux's rt
    scheduling class.

    :param min_prio: lowest valid level (inclusive).
    :param max_prio: highest valid level (inclusive).
    :param cpu_id: owning CPU, for diagnostics.
    """

    def __init__(self, min_prio, max_prio, cpu_id=0):
        self.cpu_id = cpu_id
        self.min_prio = min_prio
        self.max_prio = max_prio
        self._levels = [CircularDList() for _ in range(max_prio + 1)]
        self._bitmap = PriorityBitmap()
        self._count = 0
        # depth high-water marks: whole queue and per level (telemetry,
        # see :meth:`counters`); updated on enqueue only.
        self._peak_depth = 0
        self._level_peaks = [0] * (max_prio + 1)
        #: optional probe bus (duck-typed; see
        #: :class:`repro.engine.readyqueue.HeapReadyQueue`).
        self.probes = None

    def __len__(self):
        return self._count

    def __bool__(self):
        return self._count > 0

    def __iter__(self):
        """Items highest level first, FIFO within a level."""
        for prio in range(self.max_prio, self.min_prio - 1, -1):
            if self._bitmap.is_set(prio):
                yield from self._levels[prio]

    def _check_prio(self, prio):
        if not self.min_prio <= prio <= self.max_prio:
            raise ReadyQueueError(
                f"priority {prio} outside level range "
                f"[{self.min_prio}, {self.max_prio}]"
            )

    def enqueue(self, item, prio, at_head=False):
        """Make ``item`` ready at ``prio``.

        ``at_head=True`` reproduces SCHED_FIFO's rule that a *preempted*
        thread goes back to the head of its level; a newly woken thread
        goes to the tail.
        """
        self._check_prio(prio)
        level = self._levels[prio]
        if at_head:
            level.push_head(item)
        else:
            level.push_tail(item)
        self._bitmap.set(prio)
        self._count += 1
        if self._count > self._peak_depth:
            self._peak_depth = self._count
        level_len = len(level)
        if level_len > self._level_peaks[prio]:
            self._level_peaks[prio] = level_len
        probes = self.probes
        if probes is not None and probes.active:
            probes.publish("rq.enqueue", cpu=self.cpu_id, prio=prio,
                           depth=self._count)

    def dequeue(self, item, prio):
        """Remove a specific item (e.g. a thread killed while ready)."""
        self._check_prio(prio)
        level = self._levels[prio]
        level.remove(item)
        if not level:
            self._bitmap.clear(prio)
        self._count -= 1
        probes = self.probes
        if probes is not None and probes.active:
            probes.publish("rq.dequeue", cpu=self.cpu_id, prio=prio,
                           depth=self._count)

    def peek(self):
        """``(item, prio)`` of the most urgent ready item, or ``None``."""
        prio = self._bitmap.highest()
        if prio is None:
            return None
        return self._levels[prio].peek_head(), prio

    def pop(self):
        """Remove and return ``(item, prio)`` of the most urgent item."""
        prio = self._bitmap.highest()
        if prio is None:
            raise ReadyQueueError(
                f"run queue of CPU {self.cpu_id} empty"
            )
        level = self._levels[prio]
        item = level.pop_head()
        if not level:
            self._bitmap.clear(prio)
        self._count -= 1
        probes = self.probes
        if probes is not None and probes.active:
            probes.publish("rq.pop", cpu=self.cpu_id, prio=prio,
                           depth=self._count)
        return item, prio

    def highest_priority(self):
        """Priority of the most urgent ready item, or ``None``."""
        return self._bitmap.highest()

    def items_at(self, prio):
        """Snapshot (list) of items queued at ``prio``, head first."""
        self._check_prio(prio)
        return list(self._levels[prio])

    def counters(self):
        """JSON-ready depth telemetry: current depth, the queue-wide
        high-water mark, and the per-level high-water marks (levels
        that never held an item are omitted)."""
        return {
            "cpu": self.cpu_id,
            "depth": self._count,
            "peak_depth": self._peak_depth,
            "level_peaks": {
                str(prio): peak
                for prio, peak in enumerate(self._level_peaks)
                if peak
            },
        }


# ---------------------------------------------------------------------------
# cost-model noise
# ---------------------------------------------------------------------------


def scalar_noisy(cost_model, value):
    """``XeonPhiCostModel._noisy`` with one scalar
    ``rng.lognormal`` draw per priced event (patch it onto the class
    to run a cost model on the model's noise)."""
    if value <= 0:
        return 0.0
    if cost_model.noise_sigma <= 0:
        return value
    return value * cost_model._rng.lognormal(0.0, cost_model.noise_sigma)


# ---------------------------------------------------------------------------
# the whole core
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def model_core():
    """Run everything built inside the block on the model: kernels get
    a :class:`ReferenceEngine` and :class:`ReferenceLevelQueue` run
    queues (both swapped in through the kernel module, which builds
    them) and the Xeon Phi cost model draws its noise with
    :func:`scalar_noisy`.  Leaving the block restores the execution
    core."""
    import repro.simkernel.kernel as kernel_module
    from repro.hardware.overheads import XeonPhiCostModel

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "Engine", ReferenceEngine)
        patch.setattr(kernel_module, "IndexedLevelQueue",
                      ReferenceLevelQueue)
        patch.setattr(XeonPhiCostModel, "_noisy", scalar_noisy)
        yield
