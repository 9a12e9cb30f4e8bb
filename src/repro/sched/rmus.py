"""RM-US utilization separation (Andersson, Baruah & Jonsson [14]).

Footnote 1 of the paper: the HPQ (priority 99) is reserved for the
highest-priority task, e.g. RM-US assigns the highest priority to any
task with ``U_i > M / (3M - 2)``; remaining tasks keep RM order below.
"""

from repro.engine.classes import get_sched_class


def rm_us_threshold(n_processors):
    """The separation threshold ``M / (3M - 2)``."""
    if n_processors < 1:
        raise ValueError("need at least one processor")
    return n_processors / (3.0 * n_processors - 2.0)


def rm_us_priorities(tasks, n_processors):
    """Split tasks into (heavy, light) per RM-US.

    Heavy tasks (``U_i`` above the threshold) get the highest priority
    (the middleware maps them to the HPQ, priority level 99); light tasks
    are scheduled in RM order beneath them.

    :returns: (heavy, light_in_rm_order)
    """
    threshold = rm_us_threshold(n_processors)
    heavy = [t for t in tasks if t.utilization > threshold]
    light = get_sched_class("rm").priority_order(
        t for t in tasks if t.utilization <= threshold
    )
    return heavy, light


def rm_us_schedulable(tasks, n_processors):
    """Sufficient global test: ``U_total <= M^2 / (3M - 2)`` [14]."""
    total = sum(t.utilization for t in tasks)
    bound = n_processors ** 2 / (3.0 * n_processors - 2.0)
    return total <= bound + 1e-12
