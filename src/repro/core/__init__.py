"""RT-Seed: the real-time middleware (the paper's contribution).

Public API:

* :class:`~repro.core.task.Task` / :class:`~repro.core.task.WorkloadTask`
  — the parallel-extended imprecise task with ``exec_mandatory`` /
  ``exec_optional`` / ``exec_windup`` (Section IV-C).
* :class:`~repro.core.practical.PracticalTask` /
  :class:`~repro.core.practical.PracticalWorkloadTask` — the practical
  model's chain of ``K`` mandatory parts (Section VII's future work).
* :class:`~repro.core.process.RealTimeProcess` — the Figure 6 protocol,
  the one runner of both task kinds (the paper's task is the chain
  with ``K = 2``), with its per-job
  :class:`~repro.core.process.JobProbe`.
* :class:`~repro.core.middleware.RTSeed` — the middleware runner.
* :mod:`repro.core.policies` — one-by-one / two-by-two / all-by-all
  optional-part placement (Figure 8).
* :mod:`repro.core.termination` — sigsetjmp / periodic-check / try-catch
  termination strategies (Section IV-D, Table I).
* :mod:`repro.core.queues` — the HPQ/RTQ/NRTQ/SQ priority-band mapping
  (Figures 4 and 5).
* :mod:`repro.core.resilience` — graceful-degradation machinery
  (retry-within-budget, overrun watchdog, system-wide degraded mode)
  hardening the protocol against injected faults (:mod:`repro.faults`).
"""

from repro.core.middleware import RTSeed, RTSeedResult, TaskResult
from repro.core.policies import (
    POLICIES,
    AllByAll,
    AssignmentPolicy,
    OneByOne,
    TwoByTwo,
    get_policy,
)
from repro.core.practical import PracticalTask, PracticalWorkloadTask
from repro.core.process import JobProbe, RealTimeProcess
from repro.core.resilience import (
    DegradedModeController,
    OverrunWatchdog,
    RetryPolicy,
)
from repro.core.queues import (
    HPQ_PRIORITY,
    NRTQ_RANGE,
    PRIORITY_GAP,
    RTQ_RANGE,
    PriorityBandError,
    ReadyQueueView,
    classify_priority,
    nrtq_priority,
    rtq_priority,
)
from repro.core.task import Task, TaskContext, WorkloadTask
from repro.core.termination import (
    STRATEGIES,
    OptionalOutcome,
    PeriodicCheckTermination,
    SigjmpTermination,
    TerminationStrategy,
    TryCatchTermination,
    termination_table,
)

__all__ = [
    "RTSeed",
    "RTSeedResult",
    "TaskResult",
    "POLICIES",
    "AllByAll",
    "AssignmentPolicy",
    "OneByOne",
    "TwoByTwo",
    "get_policy",
    "JobProbe",
    "RealTimeProcess",
    "DegradedModeController",
    "OverrunWatchdog",
    "RetryPolicy",
    "PracticalTask",
    "PracticalWorkloadTask",
    "HPQ_PRIORITY",
    "NRTQ_RANGE",
    "PRIORITY_GAP",
    "RTQ_RANGE",
    "PriorityBandError",
    "ReadyQueueView",
    "classify_priority",
    "nrtq_priority",
    "rtq_priority",
    "Task",
    "TaskContext",
    "WorkloadTask",
    "STRATEGIES",
    "OptionalOutcome",
    "PeriodicCheckTermination",
    "SigjmpTermination",
    "TerminationStrategy",
    "TryCatchTermination",
    "termination_table",
]
