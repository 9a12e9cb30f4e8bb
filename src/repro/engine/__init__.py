"""``repro.engine`` — the shared scheduling core.

Both simulators in the reproduction run on this package:

* the **theory-level** schedule simulator
  (:class:`repro.sched.simulator.ScheduleSimulator`) — unit-speed
  processors, zero overheads, exact part-level semantics;
* the **kernel-level** discrete-event simulation
  (:class:`repro.simkernel.kernel.Kernel`) — SCHED_FIFO dispatch,
  syscalls, signals, SMT rate sharing, micro-overheads.

The package provides:

* :mod:`repro.engine.events` — the discrete-event engine (simulated
  clock + cancellable event queue with O(1) pending count and
  lazy-cancellation compaction);
* :mod:`repro.engine.readyqueue` — policy-free ready-queue structures
  (keyed heap with lazy removal; Figure 5's bitmap-indexed FIFO levels);
* :mod:`repro.engine.classes` — the :class:`~repro.engine.classes.SchedClass`
  protocol (Linux ``sched_class`` analog) and the five policy classes:
  RM, DM, EDF, the RMWP band class, and SCHED_FIFO-99.

A policy written once as a ``SchedClass`` runs at both the theory level
and the kernel-DES level; see ``docs/TUTORIAL.md`` for a worked
"add your own policy" example.
"""

from repro.engine.classes import (
    HPQ_PRIORITY,
    NRT_BAND,
    NRTQ_RANGE,
    PRIORITY_GAP,
    RT_BAND,
    RTQ_RANGE,
    SCHED_CLASSES,
    DMClass,
    EDFClass,
    Fifo99Class,
    PriorityBandError,
    RMClass,
    RMWPBandClass,
    SchedClass,
    classify_priority,
    get_sched_class,
    nrtq_priority,
    rtq_priority,
)
from repro.engine.events import Engine
from repro.engine.readyqueue import (
    HeapReadyQueue,
    IndexedLevelQueue,
    ReadyQueueError,
)

__all__ = [
    "HPQ_PRIORITY",
    "NRT_BAND",
    "NRTQ_RANGE",
    "PRIORITY_GAP",
    "RT_BAND",
    "RTQ_RANGE",
    "SCHED_CLASSES",
    "DMClass",
    "EDFClass",
    "Fifo99Class",
    "PriorityBandError",
    "RMClass",
    "RMWPBandClass",
    "SchedClass",
    "classify_priority",
    "get_sched_class",
    "nrtq_priority",
    "rtq_priority",
    "Engine",
    "HeapReadyQueue",
    "IndexedLevelQueue",
    "ReadyQueueError",
]
