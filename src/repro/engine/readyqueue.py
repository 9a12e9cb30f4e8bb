"""Ready-queue data structures, one per simulator.

* :class:`HeapReadyQueue` — a keyed binary heap with lazy removal, the
  theory simulator's ready queue, keyed by a scheduling class's
  ``priority_key`` (RM/DM rank tuples, EDF absolute deadlines).
  Push/pop are O(log n); removal of an arbitrary entry is O(1)
  amortized (mark + sweep at the top, with the same half-dead
  compaction rule the event engine uses).
* :class:`IndexedLevelQueue` — a fixed range of integer priority levels,
  each a FIFO, indexed by a bitmap for O(1) find-highest.  This is the
  paper's Figure 5 / Linux ``SCHED_FIFO`` structure (one list per level
  plus a bitmap), the simulated kernel's per-CPU run queue.

Both structures are *policy-free*: the heap's order comes from its key
(:mod:`repro.engine.classes`), and SCHED_FIFO's rules (FIFO within a
level, preempted threads back to the head, strict preemption) are the
kernel's (:mod:`repro.simkernel.kernel`).
"""

import heapq
from collections import deque

#: Compaction trigger for lazily-removed heap entries.
_COMPACT_MIN_REMOVED = 64


class ReadyQueueError(Exception):
    """An invalid ready-queue operation (duplicate enqueue, pop from an
    empty queue, out-of-range priority level, ...)."""


# ---------------------------------------------------------------------------
# keyed heap with lazy removal
# ---------------------------------------------------------------------------


class HeapReadyQueue:
    """Priority queue over arbitrary items ordered by ``key(item)``.

    :param key: callable mapping an item to a totally-ordered key;
        *smaller keys are more urgent*.  The key is evaluated once at
        push time — callers must remove and re-push an item whose
        urgency changes (exactly the requeue discipline the kernel uses
        for priority inheritance).

    Items with equal keys dequeue in FIFO push order (a monotone
    sequence number breaks ties), which is what makes simultaneous
    releases deterministic.

    Entries are plain ``(key, seq, item)`` tuples so heap sifts compare
    at C speed; the unique ``seq`` guarantees the comparison never
    reaches ``item``.  Removal is lazy: ``_live`` maps ``id(item)`` to
    the seq of its current entry, and any heap tuple whose seq no longer
    matches is dead (a dead tuple keeps its item referenced, so the id
    cannot be recycled into a false match while the tuple exists).
    """

    def __init__(self, key, cpu_id=None):
        self.cpu_id = cpu_id
        self._key = key
        self._heap = []
        self._live = {}
        self._seq = 0
        self._removed = 0
        # depth high-water mark (telemetry, see :meth:`counters`).
        self._peak_depth = 0
        #: optional probe bus (duck-typed; see :mod:`repro.obs.bus`).
        #: Owned by whoever built the queue — the kernel wires its run
        #: queues to its bus; standalone queues stay unobserved.
        self.probes = None

    def __len__(self):
        return len(self._live)

    def __bool__(self):
        return bool(self._live)

    def __contains__(self, item):
        return id(item) in self._live

    def __iter__(self):
        """Live items in arbitrary (heap) order — introspection only."""
        live = self._live
        for _key, seq, item in self._heap:
            if live.get(id(item)) == seq:
                yield item

    def push(self, item):
        if id(item) in self._live:
            raise ReadyQueueError(f"{item!r} already enqueued")
        self._seq += 1
        self._live[id(item)] = self._seq
        heapq.heappush(self._heap, (self._key(item), self._seq, item))
        if len(self._live) > self._peak_depth:
            self._peak_depth = len(self._live)
        probes = self.probes
        if probes is not None and probes.active:
            probes.publish("rq.enqueue", cpu=self.cpu_id,
                           depth=len(self._live))

    def remove(self, item):
        """Remove ``item`` from anywhere in the queue (lazy)."""
        if self._live.pop(id(item), None) is None:
            raise ReadyQueueError(f"{item!r} not enqueued")
        self._removed += 1
        self._maybe_compact()
        probes = self.probes
        if probes is not None and probes.active:
            probes.publish("rq.dequeue", cpu=self.cpu_id,
                           depth=len(self._live))

    def _maybe_compact(self):
        if self._removed < _COMPACT_MIN_REMOVED:
            return
        if self._removed * 2 <= len(self._heap):
            return
        live = self._live
        self._heap = [
            entry for entry in self._heap
            if live.get(id(entry[2])) == entry[1]
        ]
        heapq.heapify(self._heap)
        self._removed = 0

    def _sweep_top(self):
        heap = self._heap
        live = self._live
        while heap and live.get(id(heap[0][2])) != heap[0][1]:
            heapq.heappop(heap)
            self._removed -= 1

    def peek(self):
        """Most urgent item, or ``None`` when empty (not removed)."""
        self._sweep_top()
        if not self._heap:
            return None
        return self._heap[0][2]

    def peek_key(self):
        """Key of the most urgent item, or ``None`` when empty."""
        self._sweep_top()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self):
        """Remove and return the most urgent item."""
        self._sweep_top()
        if not self._heap:
            raise ReadyQueueError("pop from empty ready queue")
        _key, _seq, item = heapq.heappop(self._heap)
        del self._live[id(item)]
        probes = self.probes
        if probes is not None and probes.active:
            probes.publish("rq.pop", cpu=self.cpu_id,
                           depth=len(self._live))
        return item

    def pop_upto(self, n):
        """Remove and return up to ``n`` most urgent items (ordered).

        Used by global scheduling to pull the top-M candidates without
        draining the whole queue; push back the ones that lose the slot.
        """
        taken = []
        while len(taken) < n:
            self._sweep_top()
            if not self._heap:
                break
            _key, _seq, item = heapq.heappop(self._heap)
            del self._live[id(item)]
            taken.append(item)
        return taken

    def counters(self):
        """JSON-ready depth telemetry (keyed heaps have no levels, so
        ``level_peaks`` is empty — same shape as the level queues)."""
        return {
            "cpu": self.cpu_id,
            "depth": len(self._live),
            "peak_depth": self._peak_depth,
            "level_peaks": {},
        }


# ---------------------------------------------------------------------------
# indexed integer-priority levels (Figure 5 / SCHED_FIFO)
# ---------------------------------------------------------------------------


class IndexedLevelQueue:
    """Ready queue over integer priority levels, larger = more urgent.

    One FIFO per level plus a bitmap for O(1) lookup of the highest
    non-empty level — the structure of the paper's Figure 5 and of
    Linux's rt scheduling class, in the representation that is fastest
    in CPython:

    * each level is a :class:`collections.deque` (C-implemented, O(1)
      at both ends): no node allocation, no Python-level pointer
      surgery;
    * the bitmap is a plain int attribute (``bits.bit_length() - 1`` is
      find-highest);
    * a level's deque is allocated on its first enqueue.  A kernel keeps
      one 99-level queue per hardware thread and a run touches only a
      few levels of each, so eager allocation would cost 99 deques per
      CPU — about 18 MB on the 228-CPU Xeon Phi topology, against under
      half a megabyte allocated lazily.

    :param min_prio: lowest valid level (inclusive).
    :param max_prio: highest valid level (inclusive).
    :param cpu_id: owning CPU, for diagnostics.
    """

    def __init__(self, min_prio, max_prio, cpu_id=0):
        self.cpu_id = cpu_id
        self.min_prio = min_prio
        self.max_prio = max_prio
        #: level -> deque, ``None`` until the level's first enqueue.
        self._levels = [None] * (max_prio + 1)
        self._bits = 0
        self._count = 0
        # depth high-water marks: whole queue and per level (telemetry,
        # see :meth:`counters`); updated on enqueue only.
        self._peak_depth = 0
        self._level_peaks = [0] * (max_prio + 1)
        #: optional probe bus (duck-typed; see :class:`HeapReadyQueue`).
        self.probes = None

    def __len__(self):
        return self._count

    def __bool__(self):
        return self._count > 0

    def __iter__(self):
        """Items highest level first, FIFO within a level."""
        bits = self._bits
        levels = self._levels
        for prio in range(self.max_prio, self.min_prio - 1, -1):
            if bits >> prio & 1:
                yield from levels[prio]

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
        if level is None:
            level = self._levels[prio] = deque()
        if at_head:
            level.appendleft(item)
        else:
            level.append(item)
        self._bits |= 1 << prio
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
        try:
            level.remove(item)
        except (AttributeError, ValueError):  # never-used level / absent
            raise ReadyQueueError(f"{item!r} not enqueued") from None
        if not level:
            self._bits &= ~(1 << prio)
        self._count -= 1
        probes = self.probes
        if probes is not None and probes.active:
            probes.publish("rq.dequeue", cpu=self.cpu_id, prio=prio,
                           depth=self._count)

    def peek(self):
        """``(item, prio)`` of the most urgent ready item, or ``None``."""
        bits = self._bits
        if not bits:
            return None
        prio = bits.bit_length() - 1
        return self._levels[prio][0], prio

    def pop(self):
        """Remove and return ``(item, prio)`` of the most urgent item."""
        bits = self._bits
        if not bits:
            raise ReadyQueueError(
                f"run queue of CPU {self.cpu_id} empty"
            )
        prio = bits.bit_length() - 1
        level = self._levels[prio]
        item = level.popleft()
        if not level:
            self._bits = bits & ~(1 << prio)
        self._count -= 1
        probes = self.probes
        if probes is not None and probes.active:
            probes.publish("rq.pop", cpu=self.cpu_id, prio=prio,
                           depth=self._count)
        return item, prio

    def highest_priority(self):
        """Priority of the most urgent ready item, or ``None``."""
        bits = self._bits
        if not bits:
            return None
        return bits.bit_length() - 1

    def items_at(self, prio):
        """Snapshot (list) of items queued at ``prio``, head first."""
        self._check_prio(prio)
        level = self._levels[prio]
        return [] if level is None else list(level)

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
