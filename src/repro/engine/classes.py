"""Scheduling classes: the orders a policy puts tasks and jobs in.

A :class:`SchedClass` holds what makes a scheduling policy a policy,
and nothing about the substrate executing it:

* **offline ordering** — :meth:`SchedClass.task_sort_key` /
  :meth:`SchedClass.priority_order` / :meth:`SchedClass.rank` rank a task
  set by static priority (RM: shortest period first; DM: shortest
  relative deadline first).  The theory simulator, the RT-Seed
  middleware planner and the schedulability analyses consume this, so
  "shortest period first, name breaks ties" exists exactly once in the
  codebase.
* **runtime ordering** — :meth:`SchedClass.priority_key` orders the
  theory simulator's ready *part items*, which expose ``band`` (int,
  larger = more urgent band), ``rank`` (static priority rank, smaller =
  more urgent), ``part_index`` (int or ``None``) and ``job`` (with
  ``release``, ``deadline`` and ``task.name``).  The simulator keys its
  :class:`~repro.engine.readyqueue.HeapReadyQueue` ready queues by it.

The simulated kernel has no class to consult: like Linux, it runs
SCHED_FIFO on per-CPU Figure 5 queues
(:class:`~repro.engine.readyqueue.IndexedLevelQueue`), and the
middleware realizes RMWP on it by choosing SCHED_FIFO levels.  That
band mapping of Figures 4 and 5 (HPQ / RTQ / NRTQ / SQ onto SCHED_FIFO
levels) lives here as the module-level constants and helpers, next to
the RM order it encodes.
"""

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
    """Base scheduling class: the orders a policy puts tasks and ready
    entities in.

    Subclasses override :meth:`priority_key` (runtime entity ordering)
    and, for static-priority policies, :meth:`task_sort_key` (offline
    task ordering).  Smaller keys are more urgent in both.
    """

    name = "abstract"

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

    def priority_key(self, entity):
        """Runtime urgency key for a ready entity (smaller = run first)."""
        raise NotImplementedError


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

    The middleware realizes this class on an unmodified kernel by
    mapping the two bands onto SCHED_FIFO levels (Figure 5):
    :func:`rtq_priority` and :func:`nrtq_priority`.
    """

    name = "rmwp"


#: The registry the theory simulator and the planners resolve
#: policies through.
SCHED_CLASSES = {
    "rm": RMClass(),
    "dm": DMClass(),
    "edf": EDFClass(),
    "rmwp": RMWPBandClass(),
}


def get_sched_class(name):
    """Resolve a policy name (or pass a :class:`SchedClass` through)."""
    if isinstance(name, SchedClass):
        return name
    try:
        return SCHED_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduling class {name!r} "
            f"(have: {sorted(SCHED_CLASSES)})"
        ) from None
