"""The real-time process: mandatory thread + parallel optional threads.

Implements the Figure 6 protocol on the simulated kernel, syscall for
syscall:

* the mandatory thread ``sched_setscheduler``\\ s itself into SCHED_FIFO,
  spawns the parallel optional threads (which ``sched_setaffinity`` to
  their assigned CPUs and block in ``pthread_cond_wait``), and
  ``clock_nanosleep``\\ s until its release time;
* each job: mandatory part -> one ``pthread_cond_signal`` per optional
  part (never ``pthread_cond_broadcast`` — parts are woken individually
  so each can be completed, terminated, or discarded independently) ->
  wait for all parts to end -> wind-up part -> sleep until next release;
* each optional thread: wait for the wake-up signal, arm the one-shot
  optional-deadline timer, run the optional part until completion or
  termination (Figure 7), then ``endOptionalPart``: increment the shared
  done counter under the task-wide mutex and, if last, signal the
  mandatory thread.

If the mandatory part finishes at or after the optional deadline, the
optional parts are *discarded* — they never receive the wake-up signal
(Section IV-C) — and the wind-up part runs immediately.

The same protocol runs the practical model's longer chains (Section
VII, :mod:`repro.core.practical`): a job of a task with ``n_phases = K``
is ``K`` mandatory parts, and between parts ``j`` and ``j + 1`` the
mandatory thread runs optional stage ``j`` exactly as above, against
the stage's own optional deadline, with the final part in the wind-up
part's place.  The paper's task is the chain with ``K = 2``.

The per-job :class:`JobProbe` records every timestamp the paper's
Figure 9 probes measure: Δm, Δb, Δs, Δe fall out as properties.

The same measurement points double as live probe sites: when the
kernel's :class:`~repro.obs.bus.ProbeBus` has subscribers, the protocol
publishes ``rtseed.*`` events (release, mandatory begin/end, signalling
done, optional begin/end, discard, wind-up begin/end, job done; the
mandatory and stage events once per part and stage of a longer chain)
so metrics collectors and trace exporters see the middleware protocol
without touching its timing — every timestamp published is one the
protocol already paid a ``GetTime`` for.
"""

from repro.core.queues import nrtq_priority
from repro.core.task import Task, TaskContext
from repro.core.termination import (
    GET_TIME,
    OptionalOutcome,
    SigjmpTermination,
)
from repro.simkernel.errors import JobAbortError, SignalUnwind
from repro.simkernel.sync import CondVar, Mutex
from repro.simkernel.syscalls import (
    ClockNanosleep,
    CondSignal,
    CondWait,
    MutexLock,
    MutexUnlock,
    SchedSetAffinity,
    SchedSetScheduler,
    Spawn,
)
from repro.simkernel.thread import KernelThread, SchedPolicy
from repro.simkernel.time_units import NSEC_PER_USEC
from repro.simkernel.timers import KTimer


class JobProbe:
    """Timestamps of one job, placed exactly where Figure 9 measures.

    A job runs ``len(stage_ods) + 1`` mandatory parts (phases), and
    optional stage ``j`` runs between phases ``j`` and ``j + 1`` until
    its optional deadline ``stage_ods[j]``.  ``phase_start`` and
    ``phase_end`` hold each phase's bounds; ``stage_start``,
    ``stage_end`` and ``stage_fates`` hold each stage's parts.  The
    extended model (one stage) reads the same records under the
    paper's names: ``mandatory_*`` is phase 0, ``windup_*`` the final
    phase and ``od_abs`` the final stage's deadline, while
    ``optional_*``, ``signal_end`` and ``mandatory_blocked`` belong to
    :attr:`stage`, the stage signalled last.

    All times are absolute simulated nanoseconds.
    """

    def __init__(self, job_index, release, stage_ods, deadline_abs,
                 n_parallel):
        self.job_index = job_index
        self.release = release
        self.stage_ods = stage_ods
        self.deadline_abs = deadline_abs
        self.phase_start = [None] * (len(stage_ods) + 1)
        self.phase_end = [None] * (len(stage_ods) + 1)
        self.stage_start = [[None] * n_parallel for _ in stage_ods]
        self.stage_end = [[None] * n_parallel for _ in stage_ods]
        self.stage_fates = [["discarded"] * n_parallel for _ in stage_ods]
        self.stage = 0
        self.signal_end = None
        self.mandatory_blocked = None
        self.results = {}
        #: True when the job was aborted in a controlled way (a
        #: mandatory part raised :class:`JobAbortError`); it counts as a
        #: deadline miss and runs no further part.
        self.aborted = False

    # -- the extended model's names -----------------------------------------

    @property
    def mandatory_start(self):
        return self.phase_start[0]

    @property
    def mandatory_end(self):
        return self.phase_end[0]

    @property
    def windup_start(self):
        return self.phase_start[-1]

    @property
    def windup_end(self):
        return self.phase_end[-1]

    @property
    def od_abs(self):
        return self.stage_ods[-1]

    @property
    def optional_start(self):
        return self.stage_start[self.stage]

    @property
    def optional_end(self):
        return self.stage_end[self.stage]

    @property
    def optional_fate(self):
        return self.stage_fates[self.stage]

    # -- the four overheads (Section V-B), in nanoseconds -------------------

    @property
    def delta_m(self):
        """Δm: release time -> beginning of the mandatory part."""
        if self.mandatory_start is None:
            return None
        return self.mandatory_start - self.release

    @property
    def delta_b(self):
        """Δb: cost of signalling all parallel optional threads."""
        mandatory_end = self.phase_end[self.stage]
        if self.signal_end is None or mandatory_end is None:
            return None
        return self.signal_end - mandatory_end

    @property
    def delta_s(self):
        """Δs: mandatory thread blocking -> first optional thread running
        (on the mandatory thread's CPU)."""
        if self.mandatory_blocked is None or self.optional_start[0] is None:
            return None
        return self.optional_start[0] - self.mandatory_blocked

    @property
    def delta_e(self):
        """Δe: optional deadline -> beginning of the wind-up part."""
        if self.windup_start is None:
            return None
        return self.windup_start - self.od_abs

    def delta_us(self, which):
        """One of 'm', 'b', 's', 'e' in microseconds (or ``None``)."""
        value = getattr(self, f"delta_{which}")
        return None if value is None else value / NSEC_PER_USEC

    @property
    def deadline_met(self):
        return self.windup_end is not None and \
            self.windup_end <= self.deadline_abs + 1e-3

    @property
    def optional_time_executed(self):
        """Total optional execution time across parts (QoS)."""
        total = 0.0
        for starts, ends in zip(self.stage_start, self.stage_end):
            for start, end in zip(starts, ends):
                if start is not None and end is not None:
                    total += end - start
        return total

    def __repr__(self):
        return (
            f"<JobProbe #{self.job_index} rel={self.release:.0f} "
            f"met={self.deadline_met}>"
        )


def _stage_deadlines(task, optional_deadline):
    """The relative optional deadline of each of ``task``'s stages.

    ``optional_deadline`` is one OD or a sequence of ``n_phases - 1``;
    each lies in ``(0, D]`` and each stage's follows the previous one.
    """
    if isinstance(optional_deadline, (list, tuple)):
        stage_ods = [float(od) for od in optional_deadline]
    else:
        stage_ods = [float(optional_deadline)]
    if len(stage_ods) != task.n_phases - 1:
        raise ValueError(
            f"{task.name}: {task.n_phases} mandatory parts need "
            f"{task.n_phases - 1} optional deadlines, got {len(stage_ods)}"
        )
    for od in stage_ods:
        if not 0 < od <= task.deadline:
            raise ValueError(
                f"{task.name}: optional deadline {od} outside (0, D]"
            )
    if any(later <= earlier
           for earlier, later in zip(stage_ods, stage_ods[1:])):
        raise ValueError(
            f"{task.name}: optional deadlines must increase: {stage_ods}"
        )
    return stage_ods


class RealTimeProcess:
    """One parallel-extended imprecise task as a real-time process.

    :param kernel: the simulated kernel to run on.
    :param task: a :class:`repro.core.task.Task`.
    :param priority: SCHED_FIFO priority of the mandatory thread (RTQ
        band, [50, 98], or 99 for the HPQ).
    :param cpu: CPU of the mandatory thread (mandatory and wind-up parts
        never migrate).
    :param optional_cpus: CPU per parallel optional part (from an
        assignment policy).  ``optional_cpus[0]`` should be ``cpu`` —
        the first optional part runs on the mandatory thread's CPU.
        Every optional stage uses the same threads.
    :param optional_deadline: *relative* optional deadline OD, or, for
        a task of ``n_phases = K``, the ``K - 1`` strictly increasing
        stage deadlines ``OD^1 .. OD^{K-1}``.
    :param n_jobs: number of jobs to execute.
    :param strategy: a termination strategy (default Figure 7's
        sigsetjmp/siglongjmp).
    :param start_time: absolute first release (defaults to one period,
        leaving the init phase of Figure 6 room to finish).
    :param watchdog: optional
        :class:`~repro.core.resilience.OverrunWatchdog` armed per
        optional part; force-discards parts whose termination strategy
        fails to stop them.
    :param degrade: optional
        :class:`~repro.core.resilience.DegradedModeController`; while it
        reports degraded mode, this process sheds its optional parts
        (jobs run their mandatory parts only) and feeds its miss
        counters.
    """

    def __init__(self, kernel, task, priority, cpu, optional_cpus,
                 optional_deadline, n_jobs, strategy=None, start_time=None,
                 watchdog=None, degrade=None):
        if not isinstance(task, Task):
            raise TypeError(f"expected a core.Task, got {type(task).__name__}")
        if len(optional_cpus) != task.n_parallel:
            raise ValueError(
                f"{task.name}: {len(optional_cpus)} optional CPUs for "
                f"np={task.n_parallel}"
            )
        stage_ods = _stage_deadlines(task, optional_deadline)
        if n_jobs < 1:
            raise ValueError("need at least one job")
        self.kernel = kernel
        self.task = task
        self.priority = priority
        self.cpu = cpu
        self.optional_cpus = list(optional_cpus)
        self.stage_ods = stage_ods
        self.n_jobs = n_jobs
        self.strategy = strategy or SigjmpTermination()
        self.start_time = (
            float(start_time) if start_time is not None else task.period
        )
        self.watchdog = watchdog
        self.degrade = degrade

        n_parallel = task.n_parallel
        self.probes = []
        self._active = True
        # The protocol's synchronisation requests, built once: the
        # kernel never stores or mutates a request it is yielded, so
        # each mutex and condvar lives in the requests that name it.
        # One cond/mutex pair per optional thread (Figure 7 indexes the
        # task's condition arrays by CPU; per-part is the same shape).
        opt_mutex = [Mutex(f"{task.name}-opt-mutex-{k}")
                     for k in range(n_parallel)]
        opt_cond = [CondVar(f"{task.name}-opt-cond-{k}")
                    for k in range(n_parallel)]
        self._opt_lock = [MutexLock(mutex) for mutex in opt_mutex]
        self._opt_unlock = [MutexUnlock(mutex) for mutex in opt_mutex]
        self._opt_signal = [CondSignal(cond) for cond in opt_cond]
        self._opt_wait = [CondWait(cond, mutex)
                          for cond, mutex in zip(opt_cond, opt_mutex)]
        self._opt_pending = [None] * n_parallel
        # the task-wide completion lock behind endOptionalPart()
        done_mutex = Mutex(f"{task.name}-done-mutex")
        mand_cond = CondVar(f"{task.name}-mand-cond")
        self._done_lock = MutexLock(done_mutex)
        self._done_unlock = MutexUnlock(done_mutex)
        self._mand_signal = CondSignal(mand_cond)
        self._mand_wait = CondWait(mand_cond, done_mutex)
        self._done_count = 0
        self.mandatory_thread = None
        self.optional_threads = []

    # ------------------------------------------------------------------

    def spawn(self):
        """Create and start the mandatory thread (which spawns the
        optional threads, as in Figure 6)."""
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
        if self.priority == 99:
            # HPQ task: optional parts still live in the NRTQ band.
            return nrtq_priority(98)
        return nrtq_priority(self.priority)

    # -- thread bodies --------------------------------------------------

    def _mandatory_body(self, thread):
        task = self.task
        bus = self.kernel.probes
        n_parallel = task.n_parallel
        last_phase = len(self.stage_ods)
        yield SchedSetScheduler(SchedPolicy.FIFO, self.priority)
        yield SchedSetAffinity(self.cpu)
        for part_index in range(n_parallel):
            optional_thread = KernelThread(
                f"{task.name}-optional-{part_index}",
                self._make_optional_body(part_index),
                cpu=self.cpu,  # created locally; migrates itself (Fig. 6)
                priority=self.optional_priority,
                policy=SchedPolicy.FIFO,
            )
            self.optional_threads.append(optional_thread)
            yield Spawn(optional_thread)

        for job_index in range(self.n_jobs):
            release = self.start_time + job_index * task.period
            yield ClockNanosleep(release)
            probe = JobProbe(
                job_index,
                release,
                [release + od for od in self.stage_ods],
                release + task.deadline,
                n_parallel,
            )
            self.probes.append(probe)
            ctx = TaskContext(task, job_index, release,
                              probe.stage_ods[0], probe.deadline_abs,
                              self.strategy.any_time_termination)

            for phase in range(last_phase + 1):
                probe.phase_start[phase] = yield GET_TIME
                if bus.active:
                    if phase == 0:
                        bus.publish("rtseed.release", task=task.name,
                                    job=job_index, tid=thread.tid,
                                    release=release)
                    if phase < last_phase:
                        bus.publish("rtseed.mandatory_begin",
                                    task=task.name, job=job_index,
                                    tid=thread.tid, delta_m=probe.delta_m)
                    else:
                        bus.publish("rtseed.windup_begin", task=task.name,
                                    job=job_index, tid=thread.tid,
                                    delta_e=probe.delta_e)
                try:
                    yield from task.exec_mandatory_part(ctx, phase)
                except JobAbortError as error:
                    # controlled per-job failure (e.g. the retry-with-
                    # budget fetch ran out of slack): discard the job,
                    # keep the process alive for the next release.
                    probe.aborted = True
                    now = yield GET_TIME
                    if bus.active:
                        bus.publish("rtseed.job_abort", task=task.name,
                                    job=job_index, tid=thread.tid,
                                    reason=error.reason)
                    if self.degrade is not None:
                        self.degrade.record_job(task.name, False, now)
                    break
                end = yield GET_TIME
                probe.phase_end[phase] = end
                if phase < last_phase:
                    if bus.active:
                        bus.publish(
                            "rtseed.mandatory_end", task=task.name,
                            job=job_index, tid=thread.tid,
                            duration=end - probe.phase_start[phase],
                        )
                    yield from self._optional_stage(thread, probe, ctx,
                                                    phase)
            if probe.aborted:
                continue

            probe.results = ctx.collect()
            if bus.active:
                bus.publish(
                    "rtseed.windup_end", task=task.name,
                    job=job_index, tid=thread.tid,
                    duration=probe.windup_end - probe.windup_start,
                )
                bus.publish(
                    "rtseed.job_done", task=task.name,
                    job=job_index, tid=thread.tid,
                    response=probe.windup_end - release,
                    tardiness=max(0.0, probe.windup_end -
                                  probe.deadline_abs),
                    met=probe.deadline_met,
                    qos=probe.optional_time_executed,
                    delta_m=probe.delta_m, delta_b=probe.delta_b,
                    delta_s=probe.delta_s, delta_e=probe.delta_e,
                )
            if self.degrade is not None:
                self.degrade.record_job(task.name, probe.deadline_met,
                                        probe.windup_end)

        # shutdown: release the optional threads from their wait loops
        self._active = False
        for part_index in range(n_parallel):
            yield self._opt_lock[part_index]
            yield self._opt_signal[part_index]
            yield self._opt_unlock[part_index]

    def _optional_stage(self, thread, probe, ctx, stage):
        """Optional stage ``stage`` of one job, on the mandatory thread:
        wake each part, then block until the last one ends.  Parts are
        discarded when the mandatory part ended at or after the stage's
        optional deadline, and shed in degraded mode."""
        task = self.task
        bus = self.kernel.probes
        job_index = probe.job_index
        od_abs = probe.stage_ods[stage]
        in_time = probe.phase_end[stage] < od_abs
        shed = self.degrade is not None and self.degrade.should_shed()
        if in_time and shed:
            # degraded mode: time remained, but system-wide pressure
            # sheds the optional parts — the mandatory chain runs alone.
            self.degrade.note_shed()
            if bus.active:
                bus.publish("degrade.shed", task=task.name,
                            job=job_index, tid=thread.tid,
                            n_parts=task.n_parallel)
        if in_time and not shed:
            # wake each optional part individually (never broadcast)
            probe.stage = stage
            token = (job_index, stage, ctx, od_abs)
            for part_index in range(task.n_parallel):
                yield self._opt_lock[part_index]
                self._opt_pending[part_index] = token
                yield self._opt_signal[part_index]
                yield self._opt_unlock[part_index]
                if self.watchdog is not None:
                    self.watchdog.arm(self.kernel, self, job_index,
                                      part_index, od_abs)
            probe.signal_end = yield GET_TIME
            if bus.active:
                bus.publish("rtseed.signals_done", task=task.name,
                            job=job_index, tid=thread.tid,
                            delta_b=probe.delta_b)

            probe.mandatory_blocked = yield GET_TIME
            yield self._done_lock
            while self._done_count < task.n_parallel:
                yield self._mand_wait
            self._done_count = 0
            yield self._done_unlock
        elif not shed:
            # no time for optional parts — they are discarded (the
            # wake-up signal is never sent) and the next part runs now.
            if bus.active:
                bus.publish("rtseed.discard", task=task.name,
                            job=job_index, tid=thread.tid,
                            n_parts=task.n_parallel)

    def _make_optional_body(self, part_index):
        def body(thread):
            task = self.task
            bus = self.kernel.probes
            yield SchedSetScheduler(SchedPolicy.FIFO, self.optional_priority)
            yield SchedSetAffinity(self.optional_cpus[part_index])
            timer = KTimer(thread, name=f"{task.name}-odt-{part_index}")
            yield from self.strategy.setup(timer)
            lock = self._opt_lock[part_index]
            wait = self._opt_wait[part_index]
            unlock = self._opt_unlock[part_index]

            while True:
                yield lock
                while self._opt_pending[part_index] is None and self._active:
                    yield wait
                token = self._opt_pending[part_index]
                self._opt_pending[part_index] = None
                yield unlock
                if token is None:
                    break  # shutdown
                job_index, stage, ctx, od_abs = token

                probe = self.probes[job_index]
                started = yield GET_TIME
                probe.stage_start[stage][part_index] = started
                if bus.active:
                    bus.publish("rtseed.optional_begin", task=task.name,
                                part=part_index, job=job_index,
                                tid=thread.tid)
                body_gen = task.exec_optional_stage(ctx, stage, part_index)
                try:
                    outcome = yield from self.strategy.run(
                        body_gen, timer, od_abs, probes=bus)
                except SignalUnwind:
                    # a stale (delayed/duplicated) timer signal escaped
                    # the strategy's handler frame; count the part as
                    # terminated rather than killing the thread.
                    now = yield GET_TIME
                    outcome = OptionalOutcome(False, started, now)
                probe.stage_end[stage][part_index] = outcome.ended_at
                probe.stage_fates[stage][part_index] = outcome.fate
                if bus.active:
                    bus.publish(
                        "rtseed.optional_end", task=task.name,
                        part=part_index, job=job_index, tid=thread.tid,
                        fate=outcome.fate,
                        duration=outcome.ended_at - outcome.started_at,
                    )

                # endOptionalPart(): last part wakes the mandatory thread
                yield self._done_lock
                self._done_count += 1
                if self._done_count == task.n_parallel:
                    yield self._mand_signal
                yield self._done_unlock

        return body

    # -- results ----------------------------------------------------------

    def deltas_us(self, which):
        """All measured values of one overhead, in microseconds."""
        values = [p.delta_us(which) for p in self.probes]
        return [v for v in values if v is not None]

    @property
    def deadline_misses(self):
        return [p for p in self.probes if not p.deadline_met]

    @property
    def total_optional_time(self):
        return sum(p.optional_time_executed for p in self.probes)
