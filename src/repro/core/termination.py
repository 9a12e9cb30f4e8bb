"""Termination of parallel optional parts in user space (Section IV-D).

The hard problem RT-Seed solves in user space: when the optional
deadline expires, an overrunning optional part must stop *now*, without
kernel modifications.  Three implementations, matching Table I:

=======================  =====================  ========================
implementation           any-time termination   signal-mask restoration
=======================  =====================  ========================
sigsetjmp / siglongjmp   yes                    yes
periodic check           no (chunk granularity) (unnecessary — no signal)
C++ try / catch          yes                    **no** — the next job's
                                                timer interrupt never
                                                fires
=======================  =====================  ========================

Each strategy wraps the user's ``exec_optional`` generator and returns
an :class:`OptionalOutcome`.

The any-time column also decides how a default-chunk workload part
(:class:`~repro.core.task.WorkloadTask`,
:class:`~repro.core.practical.PracticalWorkloadTask`) is issued; the
one :class:`~repro.core.process.RealTimeProcess` that runs both hands
the flag over in the part's :class:`~repro.core.task.TaskContext`, and
runs every optional stage of a longer chain through the same strategy.
Under the two timer strategies the part is one ``Compute``, cut
mid-flight, and it publishes the work the kernel executed before the
unwind.  Under periodic check it keeps its check-point chunks, the only
points where it can be stopped.

When a probe bus is passed to :meth:`TerminationStrategy.run`, each
outcome is published as ``termination.completed`` (with the part's
duration) or ``termination.terminated`` (with the overrun past the
optional deadline — the user-space termination latency the paper's
Table I trades off).  The strategy instances in :data:`STRATEGIES` are
shared, so the bus travels as a call argument, never instance state.

The kernel never stores or mutates a request it is yielded, so the
requests that carry no per-part value are built once here
(:data:`GET_TIME`, :data:`BLOCK_SIGALRM`, :data:`UNBLOCK_ALL`) and
yielded by every part; :class:`~repro.core.process.RealTimeProcess`
shares :data:`GET_TIME` too.
"""

from repro.simkernel.errors import SignalUnwind
from repro.simkernel.signals import SIGALRM, UnwindDisposition
from repro.simkernel.syscalls import (
    GetTime,
    SetSignalMask,
    Sigaction,
    TimerSettime,
)

#: ``clock_gettime``, shared by every part and process.
GET_TIME = GetTime()
#: ``sigprocmask`` requests around the optional body (Figure 7).
BLOCK_SIGALRM = SetSignalMask({SIGALRM})
UNBLOCK_ALL = SetSignalMask(())


class OptionalOutcome:
    """What happened to one optional part in one job."""

    __slots__ = ("completed", "ended_at", "started_at")

    def __init__(self, completed, started_at, ended_at):
        self.completed = completed
        self.started_at = started_at
        self.ended_at = ended_at

    @property
    def fate(self):
        return "completed" if self.completed else "terminated"

    def __repr__(self):
        return f"<OptionalOutcome {self.fate} at {self.ended_at:.0f}>"


def _publish_outcome(probes, strategy, outcome, od_abs):
    """Publish one part's fate on the bus (no-op when unobserved)."""
    if probes is None or not probes.active:
        return
    if outcome.completed:
        probes.publish(
            "termination.completed", strategy=strategy.name,
            duration=outcome.ended_at - outcome.started_at,
        )
    else:
        probes.publish(
            "termination.terminated", strategy=strategy.name,
            duration=outcome.ended_at - outcome.started_at,
            overrun=outcome.ended_at - od_abs,
        )


class TerminationStrategy:
    """Interface.  ``run`` is a generator; its return value (via
    StopIteration) is an :class:`OptionalOutcome`."""

    name = "abstract"
    #: Table I column: can the part be cut at any instant?
    any_time_termination = False
    #: Table I column: is the signal mask usable for the next job?
    restores_signal_mask = False

    def setup(self, timer):
        """One-time per-thread setup (generator); default installs
        nothing."""
        return
        yield  # pragma: no cover

    def run(self, body, timer, od_abs, probes=None):
        """Execute ``body`` (the user's optional generator) until it
        completes or the strategy terminates it at ``od_abs``.

        :param probes: optional :class:`repro.obs.bus.ProbeBus`; when
            active, the outcome is published as a ``termination.*``
            event.
        """
        raise NotImplementedError


class SigjmpTermination(TerminationStrategy):
    """Figure 7: one-shot optional-deadline timer + ``SIGALRM`` handler
    that ``siglongjmp``\\ s back to the ``sigsetjmp`` point, restoring the
    saved stack context *and signal mask*.

    ``SIGALRM`` is blocked everywhere except while the optional body
    runs.  ``timer_settime(..., 0)`` cannot recall a signal the kernel
    already queued — if the part completes in the same instant the
    timer fires (or delivery is delayed), a *stale* ``SIGALRM`` would
    otherwise land while the thread waits for its next job and unwind
    it outside any handler frame, killing the thread.  Keeping the
    signal blocked outside the part window parks stale deliveries as
    pending; the worst case is an immediate (harmless) termination at
    the start of the next part.
    """

    name = "sigsetjmp/siglongjmp"
    any_time_termination = True
    restores_signal_mask = True

    def setup(self, timer):
        yield Sigaction(SIGALRM, UnwindDisposition(restore_mask=True))
        yield BLOCK_SIGALRM

    def run(self, body, timer, od_abs, probes=None):
        started_at = yield GET_TIME
        try:
            # sigsetjmp(...) == 0 branch: arm the one-shot timer and run.
            yield TimerSettime(timer, od_abs)
            yield UNBLOCK_ALL
            yield from body
            # Completed: stop the optional deadline timer and close the
            # delivery window before touching any shared protocol state.
            yield BLOCK_SIGALRM
            yield TimerSettime(timer, None)
            ended_at = yield GET_TIME
            outcome = OptionalOutcome(True, started_at, ended_at)
        except SignalUnwind:
            # siglongjmp landed: stack context and signal mask restored
            # (re-block first — a second in-flight delivery must not
            # unwind the post-part bookkeeping).
            yield BLOCK_SIGALRM
            ended_at = yield GET_TIME
            outcome = OptionalOutcome(False, started_at, ended_at)
        _publish_outcome(probes, self, outcome, od_abs)
        return outcome


class TryCatchTermination(TerminationStrategy):
    """C++ ``try``/``catch`` with the optional deadline timer.

    Terminates at any time, but the handler's ``throw`` does **not**
    restore the signal mask, so ``SIGALRM`` stays blocked: the *next*
    job's timer expiry is never delivered and that optional part runs to
    completion, overrunning its budget (Table I, empty second cell).
    """

    name = "try-catch"
    any_time_termination = True
    restores_signal_mask = False

    def setup(self, timer):
        yield Sigaction(SIGALRM, UnwindDisposition(restore_mask=False))

    def run(self, body, timer, od_abs, probes=None):
        started_at = yield GET_TIME
        try:
            yield TimerSettime(timer, od_abs)
            yield from body
            yield TimerSettime(timer, None)
            ended_at = yield GET_TIME
            outcome = OptionalOutcome(True, started_at, ended_at)
        except SignalUnwind:
            ended_at = yield GET_TIME
            outcome = OptionalOutcome(False, started_at, ended_at)
        _publish_outcome(probes, self, outcome, od_abs)
        return outcome


class PeriodicCheckTermination(TerminationStrategy):
    """No timer: re-check the clock after every chunk the optional body
    yields.

    Cannot terminate *within* a chunk, so an overrunning part stops only
    at the next check point — the QoS/latency degradation Table I notes.
    The signal mask is untouched (no signal is involved).
    """

    name = "periodic-check"
    any_time_termination = False
    restores_signal_mask = True  # trivially: nothing is ever masked

    def run(self, body, timer, od_abs, probes=None):
        started_at = yield GET_TIME
        completed = True
        try:
            request = next(body)
        except StopIteration:
            request = None
        while request is not None:
            result = yield request
            now = yield GET_TIME
            if now >= od_abs:
                completed = False
                body.close()
                break
            try:
                request = body.send(result)
            except StopIteration:
                break
        ended_at = yield GET_TIME
        outcome = OptionalOutcome(completed, started_at, ended_at)
        _publish_outcome(probes, self, outcome, od_abs)
        return outcome


#: Registry for harness/CLI use.
STRATEGIES = {
    strategy.name: strategy
    for strategy in (
        SigjmpTermination(),
        TryCatchTermination(),
        PeriodicCheckTermination(),
    )
}


def termination_table():
    """Table I as data: rows of (implementation, any-time, mask-ok)."""
    rows = []
    for name in ("sigsetjmp/siglongjmp", "periodic-check", "try-catch"):
        strategy = STRATEGIES[name]
        rows.append(
            (
                name,
                strategy.any_time_termination,
                strategy.restores_signal_mask,
            )
        )
    return rows
