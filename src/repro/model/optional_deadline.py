"""Optional-deadline computation for semi-fixed-priority scheduling.

The relative optional deadline ``OD_i`` is the time (after release) at
which an unfinished optional part is terminated and the wind-up part is
released (Section II-B).  It is computed *offline*, which is what lets
semi-fixed-priority scheduling guarantee the wind-up part on
multiprocessors where online slack computation is impractical.

The paper's evaluation (Section V-A) uses the single-task special case
``OD_1 = D_1 - w_1`` and cites Theorem 2 of the RMWP paper [5] for the
general formula.  The general computation implemented here is the
response-time construction that theorem rests on: the wind-up part of
``tau_i``, released at ``OD_i``, suffers interference from the mandatory
and wind-up parts of every higher-priority task, so ``OD_i`` must leave
room for the wind-up part's worst-case response time:

    ``OD_i = D_i - WR_i``  where  ``WR_i`` is the smallest fixed point of
    ``WR = w_i + sum_{j in hp(i)} ceil(WR / T_j) * (m_j + w_j)``

For a lone task (the paper's evaluation) ``WR_1 = w_1`` and the formula
reduces exactly to ``OD_1 = D_1 - w_1``.

By the paper's Theorems 1 and 2, the same optional deadlines apply
unchanged in the *parallel*-extended model: parallel optional parts never
interfere with mandatory/wind-up parts, so the analysis carries over.
"""

import math

from repro.engine.classes import get_sched_class
from repro.model.task_model import PeriodicTask

#: Iteration cap of every response-time fixed point (:func:`response_time`).
RTA_MAX_ITERATIONS = 10_000


class OptionalDeadlineError(ValueError):
    """The task set admits no valid optional deadline (wind-up infeasible)."""


def response_time(demand, higher_priority, bound):
    """Worst-case response time of ``demand`` under fixed priorities.

    The smallest fixed point of ``R = demand + sum_hp ceil(R / T_j) C_j``
    (Joseph & Pandya), iterated from ``R = demand``; ``C_j`` is each
    higher-priority task's WCET (``m_j + w_j`` for an imprecise task).
    Every response-time question of the reproduction is this iteration:
    a whole task's (``demand = C_i``), a wind-up part's (``w_i``) and a
    practical task's mandatory prefix or tail.

    :returns: ``R``, or ``None`` when an iterate exceeds ``bound`` or
        :data:`RTA_MAX_ITERATIONS` steps do not converge.
    """
    response = demand
    for _ in range(RTA_MAX_ITERATIONS):
        interference = 0.0
        for other in higher_priority:
            interference += math.ceil(response / other.period) * other.wcet
        updated = demand + interference
        if updated > bound:
            return None
        if updated == response:
            return response
        response = updated
    return None


def _mandatory_windup(task):
    """(m, w) of a task; Liu & Layland tasks have no wind-up split."""
    mandatory = getattr(task, "mandatory", task.wcet)
    windup = getattr(task, "windup", 0.0)
    return mandatory, windup


def windup_response_time(task, higher_priority):
    """Worst-case response time of ``task``'s wind-up part.

    :func:`response_time` of ``w_i``:
    ``WR = w_i + sum_hp ceil(WR / T_j) (m_j + w_j)``.

    :param higher_priority: tasks with higher (RM) priority on the same
        processor.
    :raises OptionalDeadlineError: if the iteration exceeds the deadline
        (the wind-up part cannot be guaranteed).
    """
    _, windup = _mandatory_windup(task)
    response = response_time(windup, higher_priority, task.deadline)
    if response is None:
        raise OptionalDeadlineError(
            f"{task.name}: wind-up part {windup} has no response time "
            f"within the deadline {task.deadline}"
        )
    return response


def optional_deadline_simple(task):
    """The paper's single-task formula: ``OD = D - w`` (Section V-A)."""
    _, windup = _mandatory_windup(task)
    return task.deadline - windup


def optional_deadlines_rmwp(tasks):
    """Relative optional deadlines for a set of tasks under RMWP.

    Tasks are considered in RM order; each task's wind-up part competes
    with the mandatory and wind-up parts of all higher-priority tasks.

    :param tasks: iterable of imprecise tasks sharing one processor.
    :returns: dict mapping task name to relative optional deadline.
    :raises OptionalDeadlineError: if any wind-up part is unschedulable.
    """
    ordered = get_sched_class("rm").priority_order(tasks)
    return {
        task.name: windup_optional_deadline(task, ordered[:index])
        for index, task in enumerate(ordered)
    }


def windup_optional_deadline(task, higher_priority):
    """One task's relative optional deadline under RMWP:
    ``OD = D - WR`` (:func:`windup_response_time`).

    :raises OptionalDeadlineError: if the wind-up part is unschedulable
        or ``OD`` leaves no room for the mandatory part.
    """
    optional_deadline = task.deadline - windup_response_time(
        task, higher_priority)
    mandatory, _ = _mandatory_windup(task)
    if optional_deadline < mandatory:
        raise OptionalDeadlineError(
            f"{task.name}: optional deadline {optional_deadline} leaves "
            f"no room for the mandatory part ({mandatory})"
        )
    return optional_deadline


def validate_optional_deadline(task, optional_deadline):
    """Sanity-check a relative optional deadline against task structure."""
    if not isinstance(task, PeriodicTask):
        raise TypeError(f"expected a task model, got {type(task).__name__}")
    mandatory, windup = _mandatory_windup(task)
    if optional_deadline < mandatory:
        raise OptionalDeadlineError(
            f"{task.name}: OD {optional_deadline} < mandatory WCET {mandatory}"
        )
    if optional_deadline + windup > task.deadline:
        raise OptionalDeadlineError(
            f"{task.name}: OD {optional_deadline} + wind-up {windup} "
            f"exceeds deadline {task.deadline}"
        )
    return True
