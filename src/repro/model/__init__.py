"""Task models for the RT-Seed reproduction.

Four models, in increasing order of expressiveness (Section II of the
paper):

* :class:`~repro.model.task_model.PeriodicTask` — Liu & Layland's model:
  one computation ``C`` per period ``T``.
* :class:`~repro.model.task_model.ImpreciseTask` — the classic imprecise
  computation model: mandatory + optional, no wind-up (impractical: the
  optional part cannot be terminated with a schedulability guarantee).
* :class:`~repro.model.task_model.ExtendedImpreciseTask` — adds the second
  mandatory (wind-up) part; ``C = m + w``.
* :class:`~repro.model.task_model.ParallelExtendedImpreciseTask` — the
  paper's contribution: ``np`` parallel optional parts that are completed,
  terminated, or discarded independently.

Plus job bookkeeping (:mod:`repro.model.job`), optional-deadline
computation and the one response-time iteration every analysis uses
(:mod:`repro.model.optional_deadline`), and seeded random task-set
generation (:mod:`repro.model.generator`).
"""

from repro.model.generator import TaskSetGenerator, uunifast
from repro.model.job import Job, JobOutcome, PartType
from repro.model.optional_deadline import (
    optional_deadline_simple,
    optional_deadlines_rmwp,
    response_time,
    windup_response_time,
)
from repro.model.practical import (
    PracticalImpreciseTask,
    practical_optional_deadlines,
)
from repro.model.task_model import (
    ExtendedImpreciseTask,
    ImpreciseTask,
    ParallelExtendedImpreciseTask,
    PeriodicTask,
    TaskSet,
)

__all__ = [
    "TaskSetGenerator",
    "uunifast",
    "Job",
    "JobOutcome",
    "PartType",
    "optional_deadline_simple",
    "optional_deadlines_rmwp",
    "response_time",
    "windup_response_time",
    "PracticalImpreciseTask",
    "practical_optional_deadlines",
    "ExtendedImpreciseTask",
    "ImpreciseTask",
    "ParallelExtendedImpreciseTask",
    "PeriodicTask",
    "TaskSet",
]
