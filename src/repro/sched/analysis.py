"""Fixed-priority schedulability analysis.

Classic results used throughout the reproduction:

* Liu & Layland utilization bound ``n (2^{1/n} - 1)`` [1].
* The hyperbolic bound (Bini, Buttazzo & Buttazzo).
* Exact response-time analysis (Joseph & Pandya / Audsley) for
  constrained-deadline fixed-priority tasks.

For imprecise tasks, ``C_i = m_i + w_i`` — the optional part is
non-real-time and never enters the analysis (Section II-A).
"""

from repro.engine.classes import get_sched_class
from repro.model.optional_deadline import response_time


def liu_layland_bound(n_tasks):
    """RM utilization bound ``n (2^{1/n} - 1)``; ~0.693 as n grows."""
    if n_tasks < 1:
        raise ValueError("need at least one task")
    return n_tasks * (2.0 ** (1.0 / n_tasks) - 1.0)


def liu_layland_schedulable(tasks):
    """Sufficient RM test: ``sum U_i <= n (2^{1/n} - 1)``."""
    tasks = list(tasks)
    total = sum(t.utilization for t in tasks)
    return total <= liu_layland_bound(len(tasks)) + 1e-12


def hyperbolic_bound(tasks):
    """Sufficient RM test: ``prod (U_i + 1) <= 2`` (tighter than L&L)."""
    product = 1.0
    for task in tasks:
        product *= task.utilization + 1.0
    return product <= 2.0 + 1e-12


def response_time_analysis(task, higher_priority):
    """Exact worst-case response time under fixed priorities.

    Smallest fixed point of ``R = C_i + sum_hp ceil(R / T_j) C_j``
    (:func:`repro.model.optional_deadline.response_time`).

    :returns: the response time, or ``None`` if it exceeds the deadline
        (unschedulable) or fails to converge.
    """
    return response_time(task.wcet, higher_priority, task.deadline)


def rta_schedulable(tasks):
    """Exact fixed-priority (RM order) schedulability via RTA.

    :returns: True iff every task's response time meets its deadline.
    """
    ordered = get_sched_class("rm").priority_order(tasks)
    for index, task in enumerate(ordered):
        if response_time_analysis(task, ordered[:index]) is None:
            return False
    return True


def utilization(tasks):
    """``sum U_i`` of an iterable of tasks."""
    return sum(t.utilization for t in tasks)


def breakdown_utilization(make_taskset, is_schedulable, low=0.0, high=1.0,
                          tolerance=1e-3):
    """Binary-search the utilization at which a generator's sets stop
    being schedulable — a standard ablation metric.

    :param make_taskset: callable ``U -> task list`` (deterministic).
    :param is_schedulable: predicate over a task list.
    """
    if high <= low:
        raise ValueError("need high > low")
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if is_schedulable(make_taskset(mid)):
            low = mid
        else:
            high = mid
    return low
