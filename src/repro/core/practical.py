"""Middleware support for the practical imprecise computation model.

The paper's future work (Section VII) executed on the same substrate:
a task whose job is a chain of ``K`` mandatory parts with a stage of
parallel optional parts between consecutive ones, each stage with its
own offline optional deadline (see :mod:`repro.model.practical`).

The extended model's chain ``m -> o -> w`` is the case ``K = 2``, so
:class:`~repro.core.process.RealTimeProcess` runs both: after mandatory
part ``j`` the mandatory thread wakes the stage-``j`` optional threads
(individually, never broadcast), each arms its one-shot timer for
``OD^j``, and when all of them end the mandatory thread proceeds with
mandatory part ``j + 1``.  The final mandatory part plays the wind-up
part's role.  This module holds only the task side: the chain hooks
and a fixed-length workload.
"""

from repro.core.task import Task, checked_chunk, refine


class PracticalTask(Task):
    """User API for multi-mandatory-part tasks.

    Subclasses override :meth:`exec_mandatory_part` (called with the
    phase index ``0 .. n_phases-1``) and :meth:`exec_optional_stage`
    (called with the stage index and the part index within the stage).

    :param n_phases: number of mandatory parts ``K >= 2``.
    :param n_parallel: parallel optional parts per stage.
    """

    def __init__(self, name, period, n_phases, n_parallel=1):
        if n_phases < 2:
            raise ValueError(f"{name}: need at least two mandatory parts")
        super().__init__(name, period, n_parallel=n_parallel)
        self.n_phases = n_phases

    def exec_mandatory_part(self, ctx, phase):
        """Mandatory part ``phase`` (generator).  Default: no work."""
        return
        yield  # pragma: no cover

    def exec_optional_stage(self, ctx, stage, part_index):
        """One optional part of ``stage`` (generator).  Default: none."""
        return
        yield  # pragma: no cover


class PracticalWorkloadTask(PracticalTask):
    """Fixed-length parts, for tests and benches.

    ``chunk`` follows :class:`~repro.core.task.WorkloadTask`'s rule: by
    default one ``Compute`` per optional part under any-time
    termination and ``optional_length / 50`` chunks otherwise; an
    explicit ``chunk`` is a refinement step under every strategy.
    """

    def __init__(self, name, mandatory_parts, optional_length, period,
                 n_parallel=1, chunk=None):
        super().__init__(name, period, len(mandatory_parts), n_parallel)
        self.mandatory_parts = [float(m) for m in mandatory_parts]
        self.optional_length = float(optional_length)
        self.chunk = checked_chunk(name, chunk)

    def exec_mandatory_part(self, ctx, phase):
        yield ctx.compute(self.mandatory_parts[phase],
                          tag=f"mandatory[{phase}]")

    def exec_optional_stage(self, ctx, stage, part_index):
        return refine(ctx, (stage, part_index), self.optional_length,
                      self.chunk, max(self.optional_length / 50.0, 1.0),
                      f"optional[{stage}][{part_index}]")

    def to_model(self):
        from repro.model.practical import PracticalImpreciseTask

        return PracticalImpreciseTask(
            self.name,
            self.mandatory_parts,
            [[self.optional_length] * self.n_parallel
             for _ in range(self.n_phases - 1)],
            self.period,
        )
