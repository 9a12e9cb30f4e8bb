"""Micro-cost hooks for the simulated kernel.

The kernel consults a :class:`CostModel` at well-defined points and charges
the returned nanoseconds as extra CPU work.  The default
:class:`ZeroCostModel` charges nothing, so functional tests observe pure
queueing/priority semantics; the Xeon Phi reproduction installs
:class:`repro.hardware.overheads.XeonPhiCostModel`, whose per-event costs
make the paper's Figures 10–13 *emerge* from the protocol (e.g. Δb grows
linearly with np because the mandatory thread issues np priced
``pthread_cond_signal`` calls; Figure 13's policy ordering emerges from
cross-core lock-handoff pricing).
"""


class CostModel:
    """Interface.  All hooks return nanoseconds of CPU work to charge.

    Subclasses override what they care about; the base charges zero.
    """

    #: optional stall provider (``.multiplier(cpu) -> float``) installed
    #: by the fault injector; models that price real micro-costs apply
    #: it to their charges.  ``None`` = no stall windows armed.
    stall = None

    def context_switch(self, cpu, prev_thread, next_thread, kernel):
        """Charged to the incoming thread on every dispatch."""
        return 0.0

    def wakeup_latency(self, thread, kernel, kind="sync"):
        """Delay between a wake event and the thread becoming runnable.

        ``kind`` is ``"sleep"`` for a ``clock_nanosleep`` expiry (timer
        interrupt + IPI, caches gone cold over a period-long sleep) or
        ``"sync"`` for a condvar/mutex handoff wake (warmer, shorter
        path)."""
        return 0.0

    def cond_signal(self, signaler, woken_thread, kernel):
        """Charged to the signalling thread per ``pthread_cond_signal``.

        ``woken_thread`` is ``None`` when the signal found no waiter.
        """
        return 0.0

    def timer_handler(self, thread, kernel):
        """Charged to a thread when a signal handler runs on it."""
        return 0.0

    def unwind(self, thread, kernel):
        """Charged for a ``siglongjmp`` stack/context restore."""
        return 0.0

    def mutex_handoff(self, mutex, prev_cpu, next_cpu, contended, kernel):
        """Charged to the acquiring thread when a mutex transfers between
        CPUs.  ``contended`` is True when the acquirer was queued and
        received the lock via release-handoff (the futex slow path, where
        cross-core cache-line transfer and wake-up costs bite); False for
        an uncontended fast-path acquisition."""
        return 0.0

    def syscall(self, request, thread, kernel):
        """Flat per-syscall entry cost (non-Compute requests)."""
        return 0.0


class ZeroCostModel(CostModel):
    """Charges nothing anywhere — pure logical simulation."""

