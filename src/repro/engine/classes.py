"""Pluggable scheduling classes (the Linux ``sched_class`` analog).

A :class:`SchedClass` bundles everything that makes a scheduling policy a
policy — and *nothing* about the substrate executing it:

* **offline ordering** — :meth:`SchedClass.task_sort_key` /
  :meth:`SchedClass.priority_order` / :meth:`SchedClass.rank` rank a task
  set by static priority (RM: shortest period first; DM: shortest
  relative deadline first).  Both the theory simulator and the RT-Seed
  middleware planner consume this, so "shortest period first, name breaks
  ties" exists exactly once in the codebase.
* **runtime ordering** — :meth:`SchedClass.priority_key` orders ready
  *entities* (job parts at the theory level, kernel threads at the DES
  level); :meth:`SchedClass.make_queue` picks the ready-queue structure
  that makes that ordering cheap (keyed heap, or indexed FIFO levels).
* **dispatch hooks** — ``enqueue`` / ``dequeue`` / ``pick_next`` /
  ``check_preempt``, the vtable both drivers call instead of embedding
  policy logic in their dispatch paths.

Two entity shapes appear in the reproduction:

* *part items* (theory level): expose ``band`` (int, larger = more
  urgent band), ``rank`` (static priority rank, smaller = more urgent),
  ``part_index`` (int or ``None``) and ``job`` (with ``release``,
  ``deadline`` and ``task.name``).  Used by :class:`RMClass`,
  :class:`DMClass`, :class:`EDFClass` and :class:`RMWPBandClass`.
* *prioritized threads* (kernel level): expose ``priority`` (int in
  [1, 99], larger = more urgent) and optionally ``effective_priority()``.
  Used by :class:`Fifo99Class`.

The RMWP band mapping of Figures 4 and 5 (HPQ / RTQ / NRTQ / SQ onto
SCHED_FIFO levels) also lives here, as :class:`RMWPBandClass` class
attributes and the module-level helpers — it *is* priority-ordering
logic, and the middleware planner and the theory simulator both need it.
"""

from repro.engine.readyqueue import HeapReadyQueue, IndexedLevelQueue

#: Real-time band for part items (mandatory / wind-up / whole jobs).
RT_BAND = 1

#: Non-real-time band for part items (parallel optional parts).
NRT_BAND = 0

#: Priority reserved for the highest-priority task (footnote 1, RM-US).
HPQ_PRIORITY = 99

#: Mandatory/wind-up (real-time) SCHED_FIFO band, inclusive.
RTQ_RANGE = (50, 98)

#: Parallel-optional (non-real-time) SCHED_FIFO band, inclusive.
NRTQ_RANGE = (1, 49)

#: The fixed distance between a task's mandatory and optional priorities.
PRIORITY_GAP = 49


class PriorityBandError(ValueError):
    """A priority fell outside its designated band."""


def rtq_priority(rank):
    """SCHED_FIFO priority for the task of static rank ``rank``.

    Rank 0 gets 98, rank 1 gets 97, ... down to 50.
    """
    priority = RTQ_RANGE[1] - rank
    if priority < RTQ_RANGE[0]:
        raise PriorityBandError(
            f"RM rank {rank} does not fit in the RTQ band {RTQ_RANGE} "
            f"({RTQ_RANGE[1] - RTQ_RANGE[0] + 1} levels)"
        )
    return priority


def nrtq_priority(mandatory_priority):
    """Optional-part priority for a given mandatory priority.

    Section IV-B: "the difference between the priorities of the mandatory
    and parallel optional threads is 49" — priority 90 maps to 41.
    """
    if not RTQ_RANGE[0] <= mandatory_priority <= RTQ_RANGE[1]:
        raise PriorityBandError(
            f"mandatory priority {mandatory_priority} outside RTQ band "
            f"{RTQ_RANGE}"
        )
    optional = mandatory_priority - PRIORITY_GAP
    assert NRTQ_RANGE[0] <= optional <= NRTQ_RANGE[1]
    return optional


def classify_priority(priority):
    """Which conceptual queue a SCHED_FIFO priority level belongs to."""
    if priority == HPQ_PRIORITY:
        return "HPQ"
    if RTQ_RANGE[0] <= priority <= RTQ_RANGE[1]:
        return "RTQ"
    if NRTQ_RANGE[0] <= priority <= NRTQ_RANGE[1]:
        return "NRTQ"
    raise PriorityBandError(f"priority {priority} is in no RT-Seed band")


class SchedClass:
    """Base scheduling-class vtable.

    Subclasses override :meth:`priority_key` (runtime entity ordering)
    and, for static-priority policies, :meth:`task_sort_key` (offline
    task ordering).  Smaller keys are more urgent in both.
    """

    name = "abstract"

    # -- offline (planner-facing) ---------------------------------------

    def task_sort_key(self, task):
        """Static-priority sort key for a task (smaller = more urgent)."""
        raise NotImplementedError(
            f"{self.name} has no static task-level priority order"
        )

    def priority_order(self, tasks):
        """Tasks from highest to lowest static priority."""
        return sorted(tasks, key=self.task_sort_key)

    def rank(self, tasks):
        """Map task name -> static rank (0 = highest priority)."""
        return {
            task.name: index
            for index, task in enumerate(self.priority_order(tasks))
        }

    # -- runtime (dispatch-facing) --------------------------------------

    def priority_key(self, entity):
        """Runtime urgency key for a ready entity (smaller = run first)."""
        raise NotImplementedError

    def make_queue(self, cpu_id=0):
        """A ready queue whose ordering matches :meth:`priority_key`."""
        return HeapReadyQueue(self.priority_key, cpu_id=cpu_id)

    def enqueue(self, rq, entity, at_head=False):
        """Make ``entity`` ready on ``rq``.

        ``at_head`` is meaningful only for FIFO-within-level disciplines;
        keyed-heap classes order purely by key, where a preempted entity
        already outranks equal-rank peers via its earlier release.
        """
        rq.push(entity)

    def dequeue(self, rq, entity):
        """Remove ``entity`` from ``rq`` (wherever it sits)."""
        rq.remove(entity)

    def pick_next(self, rq):
        """Pop and return the most urgent entity, or ``None`` if idle."""
        if not rq:
            return None
        return rq.pop()

    def peek(self, rq):
        """Most urgent ready entity without removing it (or ``None``)."""
        return rq.peek()

    def check_preempt(self, rq, current):
        """Should the most urgent entity of ``rq`` preempt ``current``?

        ``current is None`` (idle CPU) yields to any ready entity.
        """
        if not rq:
            return False
        if current is None:
            return True
        return rq.peek_key() < self.priority_key(current)


class _FixedPriorityPartClass(SchedClass):
    """Static-priority scheduling of part items (shared by RM and DM).

    Runtime order: band first (every RT-band part outranks every NRT-band
    part — Figure 4), then static rank, then the deterministic FIFO
    tie-break (release, task name, part index).
    """

    def priority_key(self, entity):
        # single-tuple construction: this runs on every push and every
        # preemption check, so avoid building the tie-break separately
        job = entity.job
        part_index = entity.part_index
        return (
            -entity.band,
            entity.rank,
            job.release,
            job.task.name,
            -1 if part_index is None else part_index,
        )


class RMClass(_FixedPriorityPartClass):
    """Rate Monotonic: shortest period first [1]."""

    name = "rm"

    def task_sort_key(self, task):
        return (task.period, task.name)


class DMClass(_FixedPriorityPartClass):
    """Deadline Monotonic: shortest relative deadline first."""

    name = "dm"

    def task_sort_key(self, task):
        return (task.deadline, task.name)


class EDFClass(SchedClass):
    """Earliest (absolute) Deadline First — the dynamic-priority class.

    There is no static task order; urgency is the job's absolute
    deadline.  ``task_sort_key`` sorts by relative deadline for display
    and rank bookkeeping only.
    """

    name = "edf"

    def task_sort_key(self, task):
        return (task.deadline, task.name)

    def priority_key(self, entity):
        job = entity.job
        part_index = entity.part_index
        return (
            -entity.band,
            job.deadline,
            job.release,
            job.task.name,
            -1 if part_index is None else part_index,
        )


class RMWPBandClass(RMClass):
    """RMWP's semi-fixed-priority band class [5].

    Mandatory and wind-up parts run in the real-time band in RM order;
    parallel optional parts run in the non-real-time band (also RM
    order); every RT part outranks every NRT part.  The runtime key is
    exactly the RM part key — the *semi*-fixed behaviour comes from the
    driver moving a job's items between bands at the two priority-change
    points (mandatory completion, optional deadline), not from a
    different ordering rule.

    The class also owns the Figure 5 mapping of those bands onto
    SCHED_FIFO levels, which is how the RT-Seed middleware realizes this
    class on an unmodified kernel: see :meth:`mandatory_priority` and
    :meth:`optional_priority`.
    """

    name = "rmwp"

    rt_band = RT_BAND
    nrt_band = NRT_BAND
    hpq_priority = HPQ_PRIORITY
    rtq_range = RTQ_RANGE
    nrtq_range = NRTQ_RANGE
    priority_gap = PRIORITY_GAP

    @staticmethod
    def mandatory_priority(rank):
        """SCHED_FIFO level of a task's mandatory/wind-up threads."""
        return rtq_priority(rank)

    @staticmethod
    def optional_priority(mandatory_priority):
        """SCHED_FIFO level of a task's parallel optional threads."""
        return nrtq_priority(mandatory_priority)


class Fifo99Class(SchedClass):
    """Linux ``SCHED_FIFO``: 99 integer priority levels, larger = more
    urgent, FIFO within a level, preempted entities return to the head
    of their level.

    Entities expose ``priority`` (and optionally ``effective_priority()``
    for the running-side comparison, so priority-inheritance boosts are
    honoured).  Backed by the Figure 5 structure —
    :class:`~repro.engine.readyqueue.IndexedLevelQueue` — rather than a
    keyed heap: with only 99 distinct urgencies, bitmap + per-level FIFO
    gives O(1) for every operation.
    """

    name = "fifo99"

    #: Number of real-time priority levels (1..99), as in SCHED_FIFO.
    nr_priorities = 99

    #: Lowest / highest valid priorities.
    min_prio = 1
    max_prio = 99

    def task_sort_key(self, task):
        """Fixed explicit priorities: larger priority first."""
        return (-task.priority, task.name)

    @staticmethod
    def _priority_of(entity):
        effective = getattr(entity, "effective_priority", None)
        if effective is not None:
            return effective()
        return entity.priority

    def priority_key(self, entity):
        return -self._priority_of(entity)

    def make_queue(self, cpu_id=0):
        return IndexedLevelQueue(self.min_prio, self.max_prio,
                                 cpu_id=cpu_id)

    def enqueue(self, rq, entity, at_head=False):
        rq.enqueue(entity, entity.priority, at_head=at_head)

    def dequeue(self, rq, entity):
        rq.dequeue(entity, entity.priority)

    def pick_next(self, rq):
        if not rq:
            return None
        return rq.pop()[0]

    def peek(self, rq):
        top = rq.peek()
        return None if top is None else top[0]

    def check_preempt(self, rq, current):
        top = rq.highest_priority()
        if top is None:
            return False
        if current is None:
            return True
        return top > self._priority_of(current)


#: The registry both simulators resolve policies through.
SCHED_CLASSES = {
    "rm": RMClass(),
    "dm": DMClass(),
    "edf": EDFClass(),
    "rmwp": RMWPBandClass(),
    "fifo": Fifo99Class(),
}

#: Aliases accepted by :func:`get_sched_class`.
_ALIASES = {
    "fifo99": "fifo",
    "sched_fifo": "fifo",
}


def get_sched_class(name):
    """Resolve a policy name (or pass a :class:`SchedClass` through)."""
    if isinstance(name, SchedClass):
        return name
    key = _ALIASES.get(name, name)
    try:
        return SCHED_CLASSES[key]
    except KeyError:
        raise ValueError(
            f"unknown scheduling class {name!r} "
            f"(have: {sorted(SCHED_CLASSES)})"
        ) from None
