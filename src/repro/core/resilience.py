"""Graceful-degradation machinery for the middleware.

RT-Seed's value proposition is surviving overload: optional parts are
terminated at the optional deadline so mandatory parts never miss.  The
mechanisms here harden the protocol against the failure modes the
fault-injection subsystem (:mod:`repro.faults`) manufactures:

* :class:`RetryPolicy` — bounded retry-with-backoff *inside the
  remaining deadline slack* for a failable mandatory step (the trading
  task's market-data fetch); when no further attempt fits, the job is
  aborted in a controlled way (:class:`~repro.simkernel.errors.\
JobAbortError`) instead of dragging the whole process past its
  deadline.
* :class:`OverrunWatchdog` — detects a termination strategy failing to
  stop an optional part (Table I's C++ ``try``/``catch`` row leaves
  ``SIGALRM`` masked, and a dropped signal loses the termination
  entirely) and force-discards the part via
  :meth:`~repro.simkernel.kernel.Kernel.force_unwind`, repairing the
  wedged signal mask.
* :class:`DegradedModeController` — system-wide admission-control
  degraded mode: when any task accumulates consecutive deadline misses,
  *all* optional parts are shed (jobs run mandatory + wind-up only,
  the imprecise-computation minimum) until sustained on-time completion
  clears the pressure.

All three publish ``degrade.*`` probe events so traces and the
resilience report attribute recoveries to causes.
"""

from functools import partial

from repro.simkernel.errors import JobAbortError


class RetryPolicy:
    """Bounded retry-with-backoff within a deadline budget.

    The policy is pure arithmetic — the protocol layer owns the clock
    and the syscalls.  :meth:`next_backoff` yields the sleep before
    attempt ``n+1``; :meth:`abort_reason` decides whether another
    attempt (backoff + worst-case duration + reserve) still fits before
    ``budget_end``.

    :param max_attempts: total attempts allowed (first try included).
    :param backoff: sleep before the first retry, nanoseconds.
    :param backoff_factor: multiplier applied per further retry.
    :param reserve: slack to leave untouched before the budget end
        (time the rest of the job still needs), nanoseconds.
    """

    def __init__(self, max_attempts=3, backoff=1_000_000.0,
                 backoff_factor=2.0, reserve=0.0):
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        if backoff < 0 or reserve < 0:
            raise ValueError("backoff and reserve must be >= 0")
        if backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        self.max_attempts = max_attempts
        self.backoff = float(backoff)
        self.backoff_factor = float(backoff_factor)
        self.reserve = float(reserve)

    def next_backoff(self, attempt):
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff * self.backoff_factor ** (attempt - 1)

    def abort_reason(self, attempt, now, budget_end, worst_case):
        """Why attempt ``attempt+1`` must not run, or ``None`` if it may.

        :param attempt: attempts already consumed.
        :param now: current time (ns).
        :param budget_end: absolute deadline for the step's completion.
        :param worst_case: pessimistic duration of one more attempt.
        """
        if attempt >= self.max_attempts:
            return f"retry budget exhausted ({self.max_attempts} attempts)"
        earliest_done = now + self.next_backoff(attempt) + worst_case
        if earliest_done > budget_end - self.reserve:
            return (
                f"no slack for retry {attempt + 1}: would finish at "
                f"{earliest_done:.0f} > budget {budget_end - self.reserve:.0f}"
            )
        return None


class OverrunWatchdog:
    """Force-discards optional parts that outlive their termination.

    Armed by the protocol per (job, stage, part) at signal time: if the
    part has not ended ``grace`` ns after its optional deadline, the
    strategy that was supposed to stop it has failed (wedged signal
    mask, dropped SIGALRM, drifted timer) and the watchdog delivers a
    forced unwind.

    :param grace: how far past the optional deadline a part may run
        before the watchdog intervenes, nanoseconds.
    """

    def __init__(self, grace=5_000_000.0):
        if grace < 0:
            raise ValueError("grace must be >= 0")
        self.grace = float(grace)
        #: (job_index, part_index, fire time) per forced discard.
        self.fired = []

    def arm(self, kernel, process, job_index, part_index, od_abs):
        """Schedule the overrun check for one part of the optional stage
        whose deadline is ``od_abs``."""
        kernel.engine.schedule_at(
            od_abs + self.grace,
            partial(self._check, kernel, process, job_index, part_index,
                    od_abs),
        )

    def _check(self, kernel, process, job_index, part_index, od_abs):
        probe = process.probes[job_index]
        # the stage armed for: stage deadlines strictly increase
        stage = probe.stage_ods.index(od_abs)
        if probe.stage_end[stage][part_index] is not None:
            return  # part ended in time; nothing to do
        thread = process.optional_threads[part_index]
        if not thread.alive:
            return
        now = kernel.engine.now
        self.fired.append((job_index, part_index, now))
        bus = kernel.probes
        if bus.active:
            bus.publish("degrade.watchdog_fire", task=process.task.name,
                        job=job_index, part=part_index,
                        overrun=now - od_abs)
        kernel.force_unwind(thread)


class DegradedModeController:
    """System-wide optional-part shedding under sustained overload.

    Processes report every job outcome through :meth:`record_job` and
    consult :meth:`should_shed` before waking their optional parts.
    The controller enters degraded mode once any single task misses
    ``enter_after`` consecutive deadlines, and exits after
    ``exit_after`` consecutive met deadlines (across all tasks) — shed
    jobs finish early, so pressure clears quickly and recovery latency
    is measurable.

    :param enter_after: consecutive misses (per task) that trigger
        degraded mode.
    :param exit_after: consecutive met jobs (system-wide) that clear it.
    :param probes: optional :class:`~repro.obs.bus.ProbeBus` for
        ``degrade.enter`` / ``degrade.exit`` events.
    """

    def __init__(self, enter_after=3, exit_after=2, probes=None):
        if enter_after < 1 or exit_after < 1:
            raise ValueError("thresholds must be >= 1")
        self.enter_after = enter_after
        self.exit_after = exit_after
        self.probes = probes
        self.degraded = False
        #: completed episodes: (enter time, exit time) tuples; an episode
        #: still open at shutdown has exit time ``None``.
        self.episodes = []
        #: jobs whose optional parts were shed while degraded (one per
        #: shed stage for a task with more than one optional stage).
        self.shed_jobs = 0
        self._consecutive_miss = {}
        self._consecutive_met = 0
        self._entered_at = None

    def should_shed(self):
        """True while optional parts must be shed system-wide."""
        return self.degraded

    def note_shed(self):
        """One optional stage's parts were shed (bookkeeping)."""
        self.shed_jobs += 1

    def record_job(self, task_name, met, now):
        """Feed one job outcome into the miss counters."""
        if met:
            self._consecutive_miss[task_name] = 0
            self._consecutive_met += 1
        else:
            count = self._consecutive_miss.get(task_name, 0) + 1
            self._consecutive_miss[task_name] = count
            self._consecutive_met = 0
            if not self.degraded and count >= self.enter_after:
                self.degraded = True
                self._entered_at = now
                if self.probes is not None and self.probes.active:
                    self.probes.publish("degrade.enter", task=task_name,
                                        consecutive_misses=count)
        if self.degraded and self._consecutive_met >= self.exit_after:
            self.degraded = False
            self.episodes.append((self._entered_at, now))
            if self.probes is not None and self.probes.active:
                self.probes.publish(
                    "degrade.exit",
                    recovery_latency=now - self._entered_at,
                )
            self._entered_at = None
            # fresh baseline: without this, miss counts accumulated
            # before/during the episode survive the exit, and a single
            # new miss re-enters degraded mode instead of requiring
            # ``enter_after`` fresh consecutive misses
            self._consecutive_miss = {}
            self._consecutive_met = 0

    def close(self, now):
        """Record a still-open episode at end of run."""
        if self.degraded and self._entered_at is not None:
            self.episodes.append((self._entered_at, None))
            self._entered_at = None

    @property
    def recovery_latencies(self):
        """Recovery latency (ns) of every *completed* episode."""
        return [exit_t - enter_t for enter_t, exit_t in self.episodes
                if exit_t is not None]
