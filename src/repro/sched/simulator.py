"""Event-driven reference simulator for (semi-fixed-priority) schedules.

This is the *theory-level* simulator: unit-speed processors, zero
overheads, exact part-level semantics.  It complements the middleware
(which runs on the simulated Linux kernel with overheads) and is used to:

* produce Figure 2 / Figure 3 traces (optional-deadline semantics,
  remaining-execution-time curves);
* empirically verify Theorems 1 and 2 (mandatory/wind-up schedules are
  identical with and without parallel optional parts);
* run schedulability ablations (deadline-miss ratios vs utilization).

Semantics follow RMWP [5] strictly: the wind-up part is *released at the
optional deadline* — a task whose optional parts complete early sleeps in
SQ until its optional deadline (Figures 2–4).  The middleware implements
the Figure 6 protocol instead, where an early-completing optional part
wakes the mandatory thread immediately; the two coincide whenever
optional parts overrun on optional CPUs that each belong to one task (as
in the paper's evaluation), and the difference is covered by tests.  On
shared NRT threads (more than three tasks per Xeon Phi core) they do
not: parts starved past their OD delay the wind-up, and jobs miss
deadlines that no oracle reads yet (ROADMAP item 2: 10,208 of 15,226
jobs at 36 tasks per core).

Architecture
------------

The simulator is a thin driver over the shared scheduling core
(:mod:`repro.engine`):

* timed events (job releases, optional deadlines) run through the same
  :class:`repro.engine.events.Engine` the kernel DES uses;
* each ready queue is a :class:`repro.engine.readyqueue.HeapReadyQueue`
  keyed by a :class:`repro.engine.classes.SchedClass`'s
  ``priority_key`` (RM, DM, EDF or the RMWP band class), so dispatch
  costs O(log n) instead of re-scanning/-sorting the ready list per
  event;
* all priority-ordering logic — including the RMWP band rule that every
  mandatory/wind-up part outranks every optional part — lives in the
  scheduling class, whose task order the RT-Seed middleware planner
  shares verbatim.

The driver owns only what is genuinely *simulation*: job lifecycle,
part transitions at the two RMWP priority-change points, execution-time
charging, and migration bookkeeping.
"""

from functools import partial

from repro.engine.classes import NRT_BAND, RT_BAND, get_sched_class
from repro.engine.events import Engine
from repro.engine.readyqueue import HeapReadyQueue
from repro.model.job import Job, JobOutcome, OptionalPartRecord, PartType
from repro.model.optional_deadline import optional_deadlines_rmwp
from repro.model.task_model import (
    ExtendedImpreciseTask,
    ParallelExtendedImpreciseTask,
)
from repro.obs.bus import ProbeBus

_EPSILON = 1e-6

#: Event-queue tie priorities: releases before optional deadlines at the
#: same instant (matches the historical (time, kind, seq) ordering).
_RELEASE_EVENT_PRIO = 0
_OD_EVENT_PRIO = 1


class _Item:
    """One schedulable strand (a part of a job, or a whole L&L job).

    The runtime entity the scheduling classes order: exposes ``band``,
    ``rank``, ``part_index`` and ``job`` (the part-item contract).
    """

    __slots__ = ("job", "part", "part_index", "remaining", "cpu", "band",
                 "rank", "started", "record", "seg_start")

    def __init__(self, job, part, remaining, cpu, band, rank,
                 part_index=None, record=None):
        self.job = job
        self.part = part
        self.part_index = part_index
        self.remaining = remaining
        self.cpu = cpu
        self.band = band
        self.rank = rank
        self.started = False
        self.record = record
        self.seg_start = None

    def __repr__(self):
        return (
            f"<Item {self.job.task.name}#{self.job.index} {self.part.value}"
            f"{'' if self.part_index is None else f'[{self.part_index}]'} "
            f"rem={self.remaining:.1f} cpu={self.cpu}>"
        )


class SimulationResult:
    """Outcome of a simulation run."""

    def __init__(self, jobs, horizon, migrations=0, events_processed=0):
        self.jobs = jobs
        self.horizon = horizon
        self.migrations = migrations
        self.events_processed = events_processed

    @property
    def deadline_misses(self):
        return [j for j in self.jobs if j.outcome is JobOutcome.DEADLINE_MISS]

    @property
    def incomplete(self):
        return [j for j in self.jobs if j.outcome is JobOutcome.RUNNING]

    @property
    def all_deadlines_met(self):
        return not self.deadline_misses and not self.incomplete

    @property
    def total_optional_time(self):
        """Aggregate QoS: optional execution summed over all jobs."""
        return sum(j.optional_time_executed for j in self.jobs)

    def jobs_of(self, task_name):
        return [j for j in self.jobs if j.task.name == task_name]

    def mandatory_windup_schedule(self):
        """Sorted (start, end, task, job_index, part) tuples for real-time
        segments only — the object Theorems 1 and 2 quantify over.

        Adjacent segments of the same part are merged, so two runs that
        fragment execution differently (because unrelated events split
        the charge intervals) compare equal iff the schedules are equal.
        """
        rows = []
        for job in self.jobs:
            for start, end, part, _cpu in sorted(job.segments):
                if part not in (PartType.MANDATORY, PartType.WINDUP,
                                PartType.WHOLE):
                    continue
                key = (job.task.name, job.index, part.value)
                if rows and rows[-1][2:] == key and \
                        abs(rows[-1][1] - start) <= _EPSILON:
                    rows[-1] = (rows[-1][0], end) + key
                else:
                    rows.append((start, end) + key)
        return sorted(rows)

    @staticmethod
    def schedules_equal(first, second, tolerance=1e-6):
        """Compare two :meth:`mandatory_windup_schedule` outputs with a
        float tolerance on the time columns (event fragmentation produces
        last-ulp differences between otherwise identical runs)."""
        if len(first) != len(second):
            return False
        for (s1, e1, *key1), (s2, e2, *key2) in zip(first, second):
            if key1 != key2:
                return False
            if abs(s1 - s2) > tolerance or abs(e1 - e2) > tolerance:
                return False
        return True

    def __repr__(self):
        return (
            f"<SimulationResult jobs={len(self.jobs)} "
            f"misses={len(self.deadline_misses)} horizon={self.horizon}>"
        )


class _ReadySet:
    """Ready items in heaps keyed by the scheduling class's
    ``priority_key``.

    Partitioned mode: one queue per CPU (all bands — the class's key
    puts every RT-band item ahead of every NRT-band item).  Global mode:
    RT-band items share one migration-eligible queue; NRT-band items
    (parallel optional parts, pinned per Section II-A) stay per-CPU.
    """

    def __init__(self, sched_class, n_cpus, global_rt=False):
        key = sched_class.priority_key
        self.global_rt = global_rt
        self.cpu_queues = [
            HeapReadyQueue(key, cpu_id=cpu) for cpu in range(n_cpus)
        ]
        self.rt_queue = HeapReadyQueue(key) if global_rt else None

    def _queue_of(self, item):
        if self.global_rt and item.band == RT_BAND:
            return self.rt_queue
        return self.cpu_queues[item.cpu]

    def add(self, item):
        self._queue_of(item).push(item)

    def remove(self, item):
        self._queue_of(item).remove(item)

    def __contains__(self, item):
        return item in self._queue_of(item)


class ScheduleSimulator:
    """Preemptive priority-driven schedule simulation.

    :param taskset: a :class:`~repro.model.task_model.TaskSet`.
    :param policy: a scheduling-class name — ``"rm"`` (general
        scheduling — whole ``C = m + w`` at RM priority), ``"dm"``
        (deadline monotonic), ``"edf"``, or ``"rmwp"``
        (semi-fixed-priority with parts) — or any
        :class:`~repro.engine.classes.SchedClass` instance.
    :param assignment: task name -> CPU (partitioned).  Defaults to CPU 0
        for every task.
    :param optional_assignment: task name -> list of CPUs for its parallel
        optional parts (defaults to the task's own CPU for every part;
        parts never migrate, per Section II-A).
    :param global_sched: migrate mandatory/wind-up parts freely among
        processors (G-RMWP / global RM).  Parallel optional parts stay
        pinned regardless.
    :param optional_deadlines: task name -> relative OD.  Computed with
        :func:`~repro.model.optional_deadline.optional_deadlines_rmwp`
        per partition when omitted.
    """

    def __init__(self, taskset, policy="rmwp", assignment=None,
                 optional_assignment=None, global_sched=False,
                 optional_deadlines=None):
        self.sched_class = get_sched_class(policy)
        #: Probe bus for ``sim.*`` lifecycle events, stamped with the
        #: simulation clock.  Idle (zero subscribers) unless a consumer
        #: — e.g. the differential checker in :mod:`repro.check` —
        #: subscribes before :meth:`run`.
        self.probes = ProbeBus(clock=self)
        self._time = 0.0
        # Custom SchedClass instances run in whole-job mode; only the
        # registered "rmwp" class triggers part-level semantics.
        self.policy = self.sched_class.name
        self.taskset = taskset
        self.global_sched = global_sched
        self.n_cpus = taskset.n_processors
        self.assignment = dict(assignment or {})
        for task in taskset:
            self.assignment.setdefault(task.name, 0)
        for name, cpu in self.assignment.items():
            if not 0 <= cpu < self.n_cpus:
                raise ValueError(f"{name}: CPU {cpu} out of range")
        self.optional_assignment = dict(optional_assignment or {})

        if self.policy == "rmwp":
            for task in taskset:
                if not isinstance(task, (ExtendedImpreciseTask,
                                         ParallelExtendedImpreciseTask)):
                    raise TypeError(
                        f"{task.name}: RMWP needs extended imprecise tasks"
                    )
            if optional_deadlines is None:
                optional_deadlines = self._compute_optional_deadlines()
            self.optional_deadlines = dict(optional_deadlines)
        else:
            self.optional_deadlines = {}

        # Static rank (0 = highest) per task, computed by the scheduling
        # class over the whole set so ranks are stable across partitions.
        # EDF ignores ranks at runtime (its key is the job deadline).
        try:
            self._rank = self.sched_class.rank(taskset.tasks)
        except NotImplementedError:
            self._rank = {}

    @property
    def now(self):
        """Current simulation time (the clock contract of
        :class:`~repro.obs.bus.ProbeBus`)."""
        return self._time

    def _compute_optional_deadlines(self):
        if self.global_sched:
            return optional_deadlines_rmwp(self.taskset.tasks)
        by_cpu = {}
        for task in self.taskset:
            by_cpu.setdefault(self.assignment[task.name], []).append(task)
        deadlines = {}
        for tasks in by_cpu.values():
            deadlines.update(optional_deadlines_rmwp(tasks))
        return deadlines

    # ------------------------------------------------------------------
    # timed-event handlers (run through the shared engine)
    # ------------------------------------------------------------------

    def _job_cap(self, task):
        cap = self._max_jobs_per_task
        if isinstance(cap, dict):
            return cap.get(task.name)
        return cap

    def _on_release(self, task, index):
        cap = self._job_cap(task)
        if cap is not None and index >= cap:
            return
        release = index * task.period
        if release > self._horizon - _EPSILON:
            return
        job = self._make_job(task, index, release)
        self._jobs.append(job)
        if self.probes.active:
            self.probes.publish("sim.release", task=task.name, job=index,
                                release=release)
        self._ready.add(self._initial_item(job))
        if job.optional_deadline is not None:
            self._engine.schedule_at(
                job.optional_deadline,
                partial(self._on_od, job),
                priority=_OD_EVENT_PRIO,
            )
        self._engine.schedule_at(
            (index + 1) * task.period,
            partial(self._on_release, task, index + 1),
            priority=_RELEASE_EVENT_PRIO,
        )

    def _on_od(self, job):
        """The optional deadline: terminate optional parts, release the
        wind-up (the second RMWP priority-change point)."""
        time = self._time
        running = self._running
        if job.mandatory_completed is None:
            # Figure 2, tau2: mandatory overran its optional deadline;
            # the wind-up runs at mandatory completion, no optional.
            job.od_passed_before_mandatory = True
            return
        if job.windup_released is not None:
            return
        # Terminate running/ready optional items of this job.
        for cpu, item in enumerate(running):
            if item is not None and item.job is job \
                    and item.part is PartType.OPTIONAL:
                self._finish_optional_part(item, time, "terminated")
                running[cpu] = None
        for item in getattr(job, "ready_optional_items", ()):
            if item in self._ready:
                fate = "terminated" if item.started else "discarded"
                self._finish_optional_part(item, time, fate)
                self._ready.remove(item)
        job.ready_optional_items = []
        self._release_windup(job, time)

    # ------------------------------------------------------------------
    # part lifecycle
    # ------------------------------------------------------------------

    def _release_windup(self, job, time):
        job.windup_released = time
        self._ready.add(
            _Item(job, PartType.WINDUP, job.task.windup,
                  self.assignment[job.task.name], RT_BAND,
                  self._rank_of(job))
        )

    def _finish_optional_part(self, item, time, fate):
        record = item.record
        record.ended_at = time
        record.fate = fate
        record.executed = (
            self._optional_length(item) - max(item.remaining, 0.0)
        )
        if self.probes.active:
            self.probes.publish(
                "sim.optional_end", task=item.job.task.name,
                job=item.job.index, part=record.index, fate=fate,
            )

    def _complete_item(self, item, time):
        job = item.job
        probes = self.probes
        if item.part is PartType.WHOLE:
            job.completed = time
            if probes.active:
                probes.publish("sim.job_done", task=job.task.name,
                               job=job.index,
                               met=time <= job.deadline + _EPSILON)
        elif item.part is PartType.MANDATORY:
            job.mandatory_completed = time
            if probes.active:
                probes.publish("sim.mandatory_end", task=job.task.name,
                               job=job.index)
            if getattr(job, "od_passed_before_mandatory", False):
                for record in job.optional_parts:
                    record.fate = "discarded"
                    record.ended_at = time
                if probes.active:
                    probes.publish("sim.discard", task=job.task.name,
                                   job=job.index,
                                   n_parts=len(job.optional_parts))
                self._release_windup(job, time)
            else:
                self._release_optional(job, time)
                if not job.optional_parts:
                    # no optional work: sleep in SQ until the OD
                    pass
        elif item.part is PartType.OPTIONAL:
            self._finish_optional_part(item, time, "completed")
            # RMWP semantics: even when every optional part completes
            # early the task sleeps until its optional deadline; the
            # wind-up item is created by _on_od.
        elif item.part is PartType.WINDUP:
            job.windup_completed = time
            job.completed = time
            if probes.active:
                probes.publish("sim.windup_end", task=job.task.name,
                               job=job.index)
                probes.publish("sim.job_done", task=job.task.name,
                               job=job.index,
                               met=time <= job.deadline + _EPSILON)

    # ------------------------------------------------------------------

    def run(self, until=None, max_jobs_per_task=None):
        """Simulate the schedule.

        :param until: horizon (defaults to the hyperperiod).
        :param max_jobs_per_task: stop releasing after this many jobs —
            either one int applied to every task, or a
            ``{task name: cap}`` mapping (tasks absent from the mapping
            are uncapped).  Per-task caps let mixed-period task sets run
            a fixed job count each, as the middleware's ``n_jobs`` does.
        :returns: :class:`SimulationResult`.
        """
        horizon = until if until is not None else self.taskset.hyperperiod
        self._horizon = horizon
        self._max_jobs_per_task = max_jobs_per_task
        self._jobs = []
        self._ready = _ReadySet(self.sched_class, self.n_cpus,
                                global_rt=self.global_sched)
        self._running = [None] * self.n_cpus
        self._migrations = 0
        self._engine = Engine()
        self._time = 0.0

        for task in self.taskset:
            self._engine.schedule_at(
                0.0, partial(self._on_release, task, 0),
                priority=_RELEASE_EVENT_PRIO,
            )

        jobs = self._jobs
        running = self._running
        engine = self._engine
        peek_event = engine.peek_time
        step_event = engine.step
        time = 0.0
        while True:
            # -- next state-change time ---------------------------------
            next_event = peek_event()
            earliest = next_event
            for item in running:
                if item is not None:
                    completion = time + item.remaining
                    if earliest is None or completion < earliest:
                        earliest = completion
            if earliest is None:
                break
            next_time = earliest if earliest > time else time
            if next_time > horizon + _EPSILON:
                # close open execution at the horizon
                for cpu, item in enumerate(running):
                    if item is not None and horizon > time:
                        item.job.record_segment(
                            time, horizon, item.part, cpu
                        )
                        item.remaining -= horizon - time
                        self._account_optional(item)
                time = horizon
                break

            # -- charge running items & close segments -------------------
            delta = next_time - time
            if delta > 0:
                for cpu, item in enumerate(running):
                    if item is None:
                        continue
                    item.remaining -= delta
                    item.job.record_segment(
                        time, next_time, item.part, cpu
                    )
            time = next_time
            self._time = time

            # -- completions ---------------------------------------------
            for cpu, item in enumerate(running):
                if item is not None and item.remaining <= _EPSILON:
                    running[cpu] = None
                    self._complete_item(item, time)

            # -- timed events (releases, optional deadlines) -------------
            due = time + _EPSILON
            while next_event is not None and next_event <= due:
                step_event()
                next_event = peek_event()

            # -- (re)allocate CPUs ---------------------------------------
            self._allocate(time)

        return SimulationResult(
            jobs, horizon, migrations=self._migrations,
            events_processed=engine.events_processed,
        )

    # ------------------------------------------------------------------

    def _rank_of(self, job):
        return self._rank.get(job.task.name, 0)

    def _make_job(self, task, index, release):
        relative_od = self.optional_deadlines.get(task.name)
        job = Job(
            task,
            index,
            release,
            release + task.deadline,
            optional_deadline=(
                None if relative_od is None else release + relative_od
            ),
        )
        if self.policy == "rmwp":
            optionals = getattr(task, "optionals", None)
            if optionals is None:
                optionals = [task.optional] if task.optional > 0 else []
            cpus = self.optional_assignment.get(
                task.name, [self.assignment[task.name]] * len(optionals)
            )
            if len(cpus) != len(optionals):
                raise ValueError(
                    f"{task.name}: {len(cpus)} optional CPUs for "
                    f"{len(optionals)} optional parts"
                )
            for part_index, cpu in enumerate(cpus):
                job.optional_parts.append(
                    OptionalPartRecord(part_index, cpu=cpu)
                )
        return job

    def _initial_item(self, job):
        cpu = self.assignment[job.task.name]
        if self.policy == "rmwp":
            return _Item(job, PartType.MANDATORY, job.task.mandatory, cpu,
                         RT_BAND, self._rank_of(job))
        return _Item(job, PartType.WHOLE, job.task.wcet, cpu, RT_BAND,
                     self._rank_of(job))

    def _release_optional(self, job, time):
        """Mandatory completion: the first RMWP priority-change point —
        the job's parallel optional parts drop to the NRT band."""
        task = job.task
        optionals = getattr(task, "optionals", None)
        if optionals is None:
            optionals = [task.optional] if task.optional > 0 else []
        items = []
        for record in job.optional_parts:
            length = optionals[record.index]
            if length <= 0:
                record.fate = "completed"
                record.ended_at = time
                continue
            item = _Item(job, PartType.OPTIONAL, length, record.cpu,
                         NRT_BAND, self._rank_of(job),
                         part_index=record.index, record=record)
            items.append(item)
            self._ready.add(item)
        job.ready_optional_items = items

    def _allocate(self, time):
        """Pick what runs where (in the scheduling class's order)."""
        running = self._running
        if self.global_sched:
            self._allocate_global()
        else:
            self._allocate_partitioned()
        # stamp start bookkeeping
        for cpu, item in enumerate(running):
            if item is None:
                continue
            item.seg_start = time
            if not item.started:
                item.started = True
                job = item.job
                probes = self.probes
                if item.part is PartType.MANDATORY and \
                        job.mandatory_started is None:
                    job.mandatory_started = time
                    if probes.active:
                        probes.publish("sim.mandatory_begin",
                                       task=job.task.name, job=job.index)
                elif item.part is PartType.WINDUP and \
                        job.windup_started is None:
                    job.windup_started = time
                    if probes.active:
                        probes.publish("sim.windup_begin",
                                       task=job.task.name, job=job.index)
                elif item.part is PartType.OPTIONAL and item.record and \
                        item.record.started_at is None:
                    item.record.started_at = time
                    if probes.active:
                        probes.publish("sim.optional_begin",
                                       task=job.task.name, job=job.index,
                                       part=item.record.index)
            if item.part is PartType.OPTIONAL and item.record is not None:
                item.record.executed = (
                    self._optional_length(item) - item.remaining
                )

    @staticmethod
    def _optional_length(item):
        task = item.job.task
        optionals = getattr(task, "optionals", None)
        if optionals is None:
            return task.optional
        return optionals[item.part_index]

    def _allocate_partitioned(self):
        key = self.sched_class.priority_key
        running = self._running
        for cpu, queue in enumerate(self._ready.cpu_queues):
            current = running[cpu]
            if current is None:
                if queue:
                    running[cpu] = queue.pop()
            elif queue and queue.peek_key() < key(current):
                # preempted (strictly more urgent key only): close its
                # optional-progress accounting and requeue; its earlier
                # release already ranks it ahead of equal-rank peers
                self._account_optional(current)
                running[cpu] = queue.pop()
                queue.push(current)

    def _allocate_global(self):
        running = self._running
        rt_queue = self._ready.rt_queue
        key = self.sched_class.priority_key

        # Top-M of (ready RT ∪ running RT): the M most urgent queued
        # items plus every running RT item form a superset, so pull only
        # M from the heap — O(M log n), not a full re-sort.
        pool = [
            item for item in running
            if item is not None and item.band == RT_BAND
        ]
        pulled = rt_queue.pop_upto(self.n_cpus)
        pool.extend(pulled)
        pool.sort(key=key)
        chosen = pool[: self.n_cpus]
        chosen_set = set(map(id, chosen))
        for item in pulled:
            if id(item) not in chosen_set:
                rt_queue.push(item)

        # Clear CPUs whose current RT item lost its slot.
        for cpu in range(self.n_cpus):
            item = running[cpu]
            if item is None:
                continue
            if item.band == RT_BAND and id(item) not in chosen_set:
                self._account_optional(item)
                rt_queue.push(item)
                running[cpu] = None

        # Place chosen RT items: keep items already on a CPU in place.
        placed = set()
        for cpu in range(self.n_cpus):
            item = running[cpu]
            if item is not None and id(item) in chosen_set:
                placed.add(id(item))
        for item in chosen:
            if id(item) in placed:
                continue
            # evict an optional item or take an idle CPU
            target = None
            for cpu in range(self.n_cpus):
                if running[cpu] is None:
                    target = cpu
                    break
            if target is None:
                for cpu in range(self.n_cpus):
                    if running[cpu] is not None and \
                            running[cpu].band == NRT_BAND:
                        target = cpu
                        break
            if target is None:
                break  # no slot (should not happen: len(chosen) <= M)
            current = running[target]
            if current is not None:
                self._account_optional(current)
                self._ready.add(current)
            if item.started and item.cpu != target:
                self._migrations += 1
            item.cpu = target
            running[target] = item

        # Fill remaining idle CPUs with their pinned optional items.
        for cpu in range(self.n_cpus):
            if running[cpu] is not None:
                continue
            queue = self._ready.cpu_queues[cpu]
            running[cpu] = queue.pop() if queue else None

    def _account_optional(self, item):
        if item.part is PartType.OPTIONAL and item.record is not None:
            item.record.executed = (
                self._optional_length(item) - item.remaining
            )
