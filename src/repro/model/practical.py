"""The practical imprecise computation model (the paper's future work).

Section VII: "In future work, a practical imprecise computation model
[33] that has multiple mandatory parts will be supported for various
real-time trading systems."  Reference [33] (Chishiro & Yamasaki,
ISORC 2013) generalizes the extended model to a chain

    m^1 -> o^1 -> m^2 -> o^2 -> ... -> o^{K-1} -> m^K

of ``K`` mandatory parts with optional parts in the gaps.  Every
mandatory part is real-time work (``C = sum_j m^j``); each optional
part ``o^j`` has its own optional deadline ``OD^j`` at which it is
terminated so that the *remaining mandatory chain* still completes by
the deadline.  With ``K = 2`` the model degenerates to the extended
imprecise computation model (``m^1 = m``, ``m^2 = w``).

This module provides the task model and the offline optional-deadline
computation; :mod:`repro.core.practical` holds the middleware task and
:class:`~repro.core.process.RealTimeProcess` runs it.
"""

from repro.model.optional_deadline import OptionalDeadlineError, response_time
from repro.model.task_model import PeriodicTask


class PracticalImpreciseTask(PeriodicTask):
    """A task with ``K`` mandatory parts and ``K - 1`` optional stages.

    :param mandatory_parts: WCETs ``m^1 .. m^K`` (K >= 2).
    :param optional_parts: per-stage optional demands ``o^1 .. o^{K-1}``;
        each entry is either a float (one optional part) or a list of
        floats (parallel optional parts for that stage).
    """

    def __init__(self, name, mandatory_parts, optional_parts, period,
                 deadline=None):
        mandatory_parts = [float(m) for m in mandatory_parts]
        if len(mandatory_parts) < 2:
            raise ValueError(
                f"{name}: need at least two mandatory parts "
                f"(use ExtendedImpreciseTask for the K = 2 special case "
                f"or PeriodicTask for plain tasks)"
            )
        if any(m <= 0 for m in mandatory_parts):
            raise ValueError(f"{name}: mandatory parts must be positive")
        normalized = []
        for stage in optional_parts:
            if isinstance(stage, (int, float)):
                stage = [float(stage)]
            else:
                stage = [float(o) for o in stage]
            if not stage or any(o < 0 for o in stage):
                raise ValueError(
                    f"{name}: each optional stage needs >= 1 nonnegative "
                    f"parts"
                )
            normalized.append(stage)
        if len(normalized) != len(mandatory_parts) - 1:
            raise ValueError(
                f"{name}: {len(mandatory_parts)} mandatory parts need "
                f"{len(mandatory_parts) - 1} optional stages, got "
                f"{len(normalized)}"
            )
        super().__init__(name, sum(mandatory_parts), period, deadline)
        self.mandatory_parts = mandatory_parts
        self.optional_stages = normalized

    @property
    def n_phases(self):
        """``K`` — the number of mandatory parts."""
        return len(self.mandatory_parts)

    @property
    def optional_utilization(self):
        return sum(
            sum(stage) for stage in self.optional_stages
        ) / self.period

    def tail_mandatory(self, stage):
        """``sum_{k > stage} m^k`` — the mandatory work that must still
        complete after optional stage ``stage`` (0-based) terminates."""
        return sum(self.mandatory_parts[stage + 1:])

    def __repr__(self):
        return (
            f"PracticalImpreciseTask({self.name!r}, "
            f"m={self.mandatory_parts}, T={self.period})"
        )


def _chain_response_time(work, task, higher_priority):
    """Worst-case response time of ``work`` of ``task``'s mandatory chain
    under RM interference (the wind-up construction of RMWP, with the
    chain's prefix or tail in place of ``w``)."""
    response = response_time(work, higher_priority, task.deadline)
    if response is None:
        raise OptionalDeadlineError(
            f"{task.name}: mandatory work {work} has no response time "
            f"within the deadline {task.deadline}"
        )
    return response


def practical_optional_deadlines(task, higher_priority=(), balance=False):
    """Relative optional deadlines ``OD^1 < OD^2 < ... < OD^{K-1}``.

    Default (``balance=False``) — *latest-feasible* deadlines:
    ``OD^j = D - WR(tail_j)`` where ``tail_j`` is everything after
    optional stage ``j`` (``tail_mandatory(j)``).  Terminating stage
    ``j`` at ``OD^j`` leaves exactly enough guaranteed time for the
    remaining mandatory chain under worst-case interference.  This
    maximizes *early* stages' windows; a later stage is only guaranteed
    time if earlier parts finish before their worst case.

    ``balance=True`` — split the guaranteed slack evenly: every stage
    gets an equal window ``w`` with ``OD^j = WR(prefix_j) + j * w``,
    ``w = min_j (L_j - WR(prefix_j)) / j`` where ``L_j`` is the
    latest-feasible deadline above.  For ``K = 2`` both modes coincide
    with RMWP's ``OD = D - w``.

    :returns: list of K-1 relative optional deadlines, strictly
        increasing.
    :raises OptionalDeadlineError: when some prefix of mandatory work
        cannot complete before its stage's optional deadline.
    """
    if not isinstance(task, PracticalImpreciseTask):
        raise TypeError(
            f"expected PracticalImpreciseTask, got {type(task).__name__}"
        )
    latest = []
    prefix_responses = []
    for stage in range(task.n_phases - 1):
        tail = task.tail_mandatory(stage)
        response = _chain_response_time(tail, task, higher_priority)
        optional_deadline = task.deadline - response
        prefix = sum(task.mandatory_parts[: stage + 1])
        prefix_response = _chain_response_time(prefix, task,
                                               higher_priority)
        if prefix_response > optional_deadline:
            raise OptionalDeadlineError(
                f"{task.name}: mandatory prefix through part {stage + 1} "
                f"(response {prefix_response}) cannot finish before "
                f"OD^{stage + 1} = {optional_deadline}"
            )
        latest.append(optional_deadline)
        prefix_responses.append(prefix_response)

    if balance:
        window = min(
            (latest[j] - prefix_responses[j]) / (j + 1)
            for j in range(len(latest))
        )
        deadlines = [
            prefix_responses[j] + (j + 1) * window
            for j in range(len(latest))
        ]
    else:
        deadlines = latest

    for earlier, later in zip(deadlines, deadlines[1:]):
        if not earlier < later:
            raise OptionalDeadlineError(
                f"{task.name}: optional deadlines must be strictly "
                f"increasing, got {deadlines}"
            )
    return deadlines
