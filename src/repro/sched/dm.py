"""Deadline Monotonic and Audsley's Optimal Priority Assignment.

RM is only optimal for implicit deadlines; RT-Seed's RTQ band is a
generic fixed-priority band, so the analysis family includes the two
classic fixed-priority assignments beyond RM:

* **Deadline Monotonic** — shortest relative deadline first; optimal
  for constrained-deadline synchronous task sets.
* **Audsley's OPA** — assigns priorities bottom-up, testing each task
  at the lowest unassigned level; optimal for any analysis that is
  independent of the relative order of higher-priority tasks (true for
  response-time analysis).
"""

from repro.engine.classes import get_sched_class
from repro.sched.analysis import response_time_analysis


class DeadlineMonotonic:
    """DM priority assignment + exact schedulability."""

    name = "DM"

    @staticmethod
    def priority_order(tasks):
        """Tasks from highest to lowest DM priority (shortest relative
        deadline first; name breaks ties).  Delegates to the shared
        scheduling class."""
        return get_sched_class("dm").priority_order(tasks)

    @staticmethod
    def is_schedulable(tasks):
        """Exact RTA in DM order."""
        ordered = DeadlineMonotonic.priority_order(tasks)
        for index, task in enumerate(ordered):
            if response_time_analysis(task, ordered[:index]) is None:
                return False
        return True


def audsley_opa(tasks):
    """Audsley's Optimal Priority Assignment.

    :returns: tasks ordered highest-priority first, or ``None`` when no
        fixed-priority assignment is feasible (by OPA optimality, none
        exists at all).
    """
    remaining = list(tasks)
    assignment_low_to_high = []
    while remaining:
        placed = None
        # deterministic: try candidates in name order
        for candidate in sorted(remaining, key=lambda t: t.name):
            # feasible at the lowest level: every other task above it
            others = [t for t in remaining if t is not candidate]
            if response_time_analysis(candidate, others) is not None:
                placed = candidate
                break
        if placed is None:
            return None
        remaining.remove(placed)
        assignment_low_to_high.append(placed)
    return list(reversed(assignment_low_to_high))


def opa_schedulable(tasks):
    """True iff *some* fixed-priority assignment is feasible."""
    return audsley_opa(tasks) is not None
