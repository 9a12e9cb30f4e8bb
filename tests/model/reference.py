"""The four response-time loops that :func:`repro.model.response_time`
replaced, moved here unchanged except for their names.

Each iterated ``R = C + sum_hp ceil(R / T_j) C_j`` on its own:

* :func:`reference_rta` was ``sched.analysis.response_time_analysis``
  (``C = C_i``; ``None`` when unschedulable);
* :func:`reference_feasible_at_lowest` was ``sched.dm``'s copy of it
  for Audsley's OPA (a bool);
* :func:`reference_windup_response_time` was
  ``model.optional_deadline.windup_response_time`` (``C = w_i``, the
  higher-priority cost read as ``m_j + w_j``);
* :func:`reference_tail_response_time` was ``model.practical``'s
  ``_tail_response_time`` with ``_interference`` (a practical task's
  mandatory prefix or tail).

The equivalence tests require the one iteration to return the same
values as these, compared with ``==``.
"""

import math

from repro.model.optional_deadline import OptionalDeadlineError


def reference_rta(task, higher_priority, max_iterations=10_000):
    response = task.wcet
    for _ in range(max_iterations):
        interference = sum(
            math.ceil(response / other.period) * other.wcet
            for other in higher_priority
        )
        updated = task.wcet + interference
        if updated > task.deadline:
            return None
        if updated == response:
            return response
        response = updated
    return None


def reference_feasible_at_lowest(task, others, max_iterations=10_000):
    response = task.wcet
    for _ in range(max_iterations):
        interference = sum(
            math.ceil(response / other.period) * other.wcet
            for other in others
        )
        updated = task.wcet + interference
        if updated > task.deadline:
            return False
        if updated == response:
            return True
        response = updated
    return False


def _mandatory_windup(task):
    mandatory = getattr(task, "mandatory", task.wcet)
    windup = getattr(task, "windup", 0.0)
    return mandatory, windup


def reference_windup_response_time(task, higher_priority,
                                   max_iterations=1000):
    _, windup = _mandatory_windup(task)
    if windup <= 0:
        return 0.0
    response = windup
    for _ in range(max_iterations):
        interference = 0.0
        for other in higher_priority:
            m_j, w_j = _mandatory_windup(other)
            interference += math.ceil(response / other.period) * (m_j + w_j)
        updated = windup + interference
        if updated > task.deadline:
            raise OptionalDeadlineError(
                f"{task.name}: wind-up response time {updated} exceeds "
                f"deadline {task.deadline}"
            )
        if updated == response:
            return response
        response = updated
    raise OptionalDeadlineError(
        f"{task.name}: wind-up response-time iteration did not converge"
    )


def _interference(response, higher_priority):
    total = 0.0
    for other in higher_priority:
        total += math.ceil(response / other.period) * other.wcet
    return total


def reference_tail_response_time(tail, task, higher_priority,
                                 max_iterations=1000):
    if tail <= 0:
        return 0.0
    response = tail
    for _ in range(max_iterations):
        updated = tail + _interference(response, higher_priority)
        if updated > task.deadline:
            raise OptionalDeadlineError(
                f"{task.name}: mandatory tail {tail} has response time "
                f"{updated} beyond the deadline {task.deadline}"
            )
        if updated == response:
            return response
        response = updated
    raise OptionalDeadlineError(
        f"{task.name}: tail response-time iteration did not converge"
    )
