"""Middleware support for the practical imprecise computation model.

The paper's future work (Section VII) executed on the same substrate:
a task whose job is a chain of ``K`` mandatory parts with a stage of
parallel optional parts between consecutive ones, each stage with its
own offline optional deadline (see :mod:`repro.model.practical`).

The Figure 6 protocol generalizes naturally: after mandatory part
``j`` the mandatory thread wakes the stage-``j`` optional threads
(individually, never broadcast), each arms its one-shot timer for
``OD^j``, and when all of them end the mandatory thread proceeds with
mandatory part ``j + 1``.  The final mandatory part plays the wind-up
part's role.
"""

from repro.core.queues import nrtq_priority
from repro.core.task import Task, TaskContext, checked_chunk, refine
from repro.core.termination import SigjmpTermination
from repro.simkernel.sync import CondVar, Mutex
from repro.simkernel.syscalls import (
    ClockNanosleep,
    CondSignal,
    CondWait,
    GetTime,
    MutexLock,
    MutexUnlock,
    SchedSetAffinity,
    SchedSetScheduler,
    Spawn,
)
from repro.simkernel.thread import KernelThread, SchedPolicy
from repro.simkernel.timers import KTimer


class PracticalTask(Task):
    """User API for multi-mandatory-part tasks.

    Subclasses override :meth:`exec_mandatory_part` (called with the
    phase index ``0 .. n_phases-1``) and :meth:`exec_optional_stage`
    (called with the stage index and the part index within the stage).

    :param n_phases: number of mandatory parts ``K >= 2``.
    :param parts_per_stage: parallel optional parts per stage.
    """

    def __init__(self, name, period, n_phases, parts_per_stage=1):
        if n_phases < 2:
            raise ValueError(f"{name}: need at least two mandatory parts")
        if parts_per_stage < 1:
            raise ValueError(f"{name}: need >= 1 part per stage")
        super().__init__(name, period, n_parallel=parts_per_stage)
        self.n_phases = n_phases
        self.parts_per_stage = parts_per_stage

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
                 parts_per_stage=1, chunk=None):
        super().__init__(name, period, len(mandatory_parts),
                         parts_per_stage)
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
            [[self.optional_length] * self.parts_per_stage
             for _ in range(self.n_phases - 1)],
            self.period,
        )


class PhaseProbe:
    """Timestamps of one job of a practical task."""

    def __init__(self, job_index, release, deadline_abs, stage_ods,
                 parts_per_stage):
        self.job_index = job_index
        self.release = release
        self.deadline_abs = deadline_abs
        self.stage_ods = list(stage_ods)
        self.mandatory_start = []
        self.mandatory_end = []
        self.stage_fates = [
            ["discarded"] * parts_per_stage for _ in stage_ods
        ]
        self.completed = None

    @property
    def deadline_met(self):
        return self.completed is not None and \
            self.completed <= self.deadline_abs + 1e-3


class PracticalRealTimeProcess:
    """The multi-phase Figure 6 protocol.

    :param stage_optional_deadlines: relative ``OD^1 .. OD^{K-1}``.
    :param optional_cpus: CPUs for the stage's parallel optional parts
        (shared by every stage; parts never migrate).
    """

    def __init__(self, kernel, task, priority, cpu, optional_cpus,
                 stage_optional_deadlines, n_jobs, strategy=None,
                 start_time=None):
        if not isinstance(task, PracticalTask):
            raise TypeError("task must be a PracticalTask")
        if len(stage_optional_deadlines) != task.n_phases - 1:
            raise ValueError(
                f"{task.name}: {task.n_phases} phases need "
                f"{task.n_phases - 1} optional deadlines"
            )
        ods = list(stage_optional_deadlines)
        if any(b <= a for a, b in zip(ods, ods[1:])):
            raise ValueError(
                f"{task.name}: optional deadlines must increase: {ods}"
            )
        if len(optional_cpus) != task.parts_per_stage:
            raise ValueError(
                f"{task.name}: {len(optional_cpus)} CPUs for "
                f"{task.parts_per_stage} parts per stage"
            )
        self.kernel = kernel
        self.task = task
        self.priority = priority
        self.cpu = cpu
        self.optional_cpus = list(optional_cpus)
        self.stage_ods = ods
        self.n_jobs = n_jobs
        self.strategy = strategy or SigjmpTermination()
        self.start_time = (
            float(start_time) if start_time is not None else task.period
        )
        self.probes = []
        self._active = True
        parts = task.parts_per_stage
        self._opt_mutex = [Mutex(f"{task.name}-popt-mutex-{k}")
                           for k in range(parts)]
        self._opt_cond = [CondVar(f"{task.name}-popt-cond-{k}")
                          for k in range(parts)]
        self._opt_pending = [None] * parts
        self._done_mutex = Mutex(f"{task.name}-pdone-mutex")
        self._mand_cond = CondVar(f"{task.name}-pmand-cond")
        self._done_count = 0
        self.mandatory_thread = None
        self.optional_threads = []

    def spawn(self):
        if self.mandatory_thread is not None:
            raise RuntimeError(f"{self.task.name}: already spawned")
        self.mandatory_thread = KernelThread(
            f"{self.task.name}-mandatory",
            self._mandatory_body,
            cpu=self.cpu,
            priority=self.priority,
            policy=SchedPolicy.FIFO,
        )
        self.kernel.spawn(self.mandatory_thread)
        return self

    @property
    def optional_priority(self):
        return nrtq_priority(min(self.priority, 98))

    def _mandatory_body(self, thread):
        task = self.task
        yield SchedSetScheduler(SchedPolicy.FIFO, self.priority)
        yield SchedSetAffinity(self.cpu)
        for part_index in range(task.parts_per_stage):
            optional_thread = KernelThread(
                f"{task.name}-optional-{part_index}",
                self._make_optional_body(part_index),
                cpu=self.cpu,
                priority=self.optional_priority,
                policy=SchedPolicy.FIFO,
            )
            self.optional_threads.append(optional_thread)
            yield Spawn(optional_thread)

        for job_index in range(self.n_jobs):
            release = self.start_time + job_index * task.period
            yield ClockNanosleep(release)
            probe = PhaseProbe(
                job_index,
                release,
                release + task.deadline,
                [release + od for od in self.stage_ods],
                task.parts_per_stage,
            )
            self.probes.append(probe)
            ctx = TaskContext(task, job_index, release,
                              probe.stage_ods[0], probe.deadline_abs,
                              self.strategy.any_time_termination)

            for phase in range(task.n_phases):
                probe.mandatory_start.append((yield GetTime()))
                yield from task.exec_mandatory_part(ctx, phase)
                now = yield GetTime()
                probe.mandatory_end.append(now)
                if phase >= task.n_phases - 1:
                    break
                od_abs = probe.stage_ods[phase]
                if now >= od_abs:
                    # no time: this stage's parts are discarded
                    continue
                token = (job_index, phase, ctx, od_abs)
                for part_index in range(task.parts_per_stage):
                    yield MutexLock(self._opt_mutex[part_index])
                    self._opt_pending[part_index] = token
                    yield CondSignal(self._opt_cond[part_index])
                    yield MutexUnlock(self._opt_mutex[part_index])
                yield MutexLock(self._done_mutex)
                while self._done_count < task.parts_per_stage:
                    yield CondWait(self._mand_cond, self._done_mutex)
                self._done_count = 0
                yield MutexUnlock(self._done_mutex)

            probe.completed = yield GetTime()
            probe.results = ctx.collect()

        self._active = False
        for part_index in range(task.parts_per_stage):
            yield MutexLock(self._opt_mutex[part_index])
            yield CondSignal(self._opt_cond[part_index])
            yield MutexUnlock(self._opt_mutex[part_index])

    def _make_optional_body(self, part_index):
        def body(thread):
            task = self.task
            yield SchedSetScheduler(SchedPolicy.FIFO,
                                    self.optional_priority)
            yield SchedSetAffinity(self.optional_cpus[part_index])
            timer = KTimer(thread,
                           name=f"{task.name}-podt-{part_index}")
            yield from self.strategy.setup(timer)
            while True:
                yield MutexLock(self._opt_mutex[part_index])
                while self._opt_pending[part_index] is None and \
                        self._active:
                    yield CondWait(self._opt_cond[part_index],
                                   self._opt_mutex[part_index])
                token = self._opt_pending[part_index]
                self._opt_pending[part_index] = None
                yield MutexUnlock(self._opt_mutex[part_index])
                if token is None:
                    break
                job_index, stage, ctx, od_abs = token
                body_gen = task.exec_optional_stage(ctx, stage,
                                                    part_index)
                outcome = yield from self.strategy.run(body_gen, timer,
                                                       od_abs)
                probe = self.probes[job_index]
                probe.stage_fates[stage][part_index] = outcome.fate
                yield MutexLock(self._done_mutex)
                self._done_count += 1
                if self._done_count == task.parts_per_stage:
                    yield CondSignal(self._mand_cond)
                yield MutexUnlock(self._done_mutex)

        return body

    @property
    def deadline_misses(self):
        return [p for p in self.probes if not p.deadline_met]
