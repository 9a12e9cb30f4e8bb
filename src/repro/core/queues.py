"""Priority-band mapping: HPQ / RTQ / NRTQ / SQ (Figures 4 and 5).

RT-Seed does not implement its own ready queues — that is the point of
the middleware approach.  It *maps* the four conceptual queues onto
Linux's per-CPU SCHED_FIFO levels:

* **HPQ** — priority 99, reserved for the highest-priority task (e.g. a
  task RM-US classifies as heavy; footnote 1).
* **RTQ** — priorities [50, 98]: mandatory and wind-up parts, RM order.
* **NRTQ** — priorities [1, 49]: parallel optional parts.  The gap
  between a task's mandatory priority and its optional priority is
  exactly 49 (priority 90 mandatory -> priority 41 optional), so RM
  order is preserved inside NRTQ and *every* RTQ task outranks *every*
  NRTQ task.
* **SQ** — not a priority level: sleeping threads (blocked in
  ``clock_nanosleep`` / ``pthread_cond_wait``) simply are not runnable.

The arithmetic and validation live next to the RMWP band scheduling
class in :mod:`repro.engine.classes` — they encode its RM order as
SCHED_FIFO levels — and are re-exported here under the historical
names.  This module adds the kernel-state
introspection view used by tests and diagnostics.
"""

from repro.engine.classes import (  # noqa: F401  (re-exported API)
    HPQ_PRIORITY,
    NRTQ_RANGE,
    PRIORITY_GAP,
    RTQ_RANGE,
    PriorityBandError,
    classify_priority,
    nrtq_priority,
    rtq_priority,
)
from repro.simkernel.thread import ThreadState

__all__ = [
    "HPQ_PRIORITY",
    "RTQ_RANGE",
    "NRTQ_RANGE",
    "PRIORITY_GAP",
    "PriorityBandError",
    "classify_priority",
    "nrtq_priority",
    "rtq_priority",
    "ReadyQueueView",
]


class ReadyQueueView:
    """Introspection over a kernel's threads in RT-Seed band terms.

    Used by tests and diagnostics to assert Figure 5 invariants ("every
    task in RTQ has higher priority than every task in NRTQ", "SQ holds
    tasks sleeping until their optional deadlines or next releases").
    """

    def __init__(self, kernel):
        self.kernel = kernel

    def _threads(self, states):
        return [t for t in self.kernel.threads
                if t.state in states and t.alive]

    def hpq(self):
        return [
            t for t in self._threads({ThreadState.READY, ThreadState.RUNNING})
            if t.priority == HPQ_PRIORITY
        ]

    def rtq(self):
        return [
            t for t in self._threads({ThreadState.READY, ThreadState.RUNNING})
            if RTQ_RANGE[0] <= t.priority <= RTQ_RANGE[1]
        ]

    def nrtq(self):
        return [
            t for t in self._threads({ThreadState.READY, ThreadState.RUNNING})
            if NRTQ_RANGE[0] <= t.priority <= NRTQ_RANGE[1]
        ]

    def sq(self):
        """Sleeping/blocked threads (the SQ of Figure 4)."""
        return self._threads({ThreadState.BLOCKED})
