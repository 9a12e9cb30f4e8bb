"""Per-CPU SCHED_FIFO run queues.

Figure 5 of the paper shows the kernel-space structure RT-Seed relies on:
per-CPU FIFO thread queues with 99 priority levels, each level managed as
a FIFO list, with larger priority values denoting higher priority.  The
generic structure (one FIFO per level plus a priority bitmap for O(1)
lookup of the highest non-empty level — the same trick Linux's rt
scheduling class uses) is
:class:`~repro.engine.readyqueue.IndexedLevelQueue`; the kernel
(:class:`~repro.simkernel.kernel.Kernel`) builds one per CPU over the
range below and applies SCHED_FIFO's rules on it: a woken thread joins
the tail of its level, a preempted one returns to the head, and only a
strictly higher level preempts the running thread.
"""

#: Number of real-time priority levels (1..99), as in Linux SCHED_FIFO.
NR_RT_PRIORITIES = 99

#: Lowest valid SCHED_FIFO priority.
MIN_RT_PRIO = 1

#: Highest valid SCHED_FIFO priority.
MAX_RT_PRIO = 99

__all__ = [
    "NR_RT_PRIORITIES",
    "MIN_RT_PRIO",
    "MAX_RT_PRIO",
]
