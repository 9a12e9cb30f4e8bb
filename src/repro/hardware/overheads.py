"""Calibrated micro-cost model for the Xeon Phi 3120A.

The paper's Figures 10-13 are *measurements*; our substrate is a
simulator, so per the reproduction brief we match their **shape** (which
load/policy wins, linear growth in np, inversions), not their absolute
microseconds.  The model injects only *per-event* micro-costs — all
charged as scheduler *latency* (memory/syscall bound, immune to SMT
pipeline sharing) — and every figure-level curve is produced by the
middleware protocol composing them:

* **Δm (Figure 10)** — flat in np: one sleep-wakeup latency (timer IRQ +
  IPI + cold caches) plus one context switch per job.  CPU-Memory load
  pollutes the caches hardest, so it tops CPU load, which tops no load.
* **Δb (Figure 12)** — linear in np: the mandatory thread issues np
  priced ``pthread_cond_signal`` calls.  The per-signal price is higher
  under CPU load than CPU-Memory load: an infinite loop is pure
  branches, and ``pthread_cond_signal`` is branch-heavy (the paper's
  explanation of the inversion).
* **Δs (Figure 11)** — a context switch plus *dispatch pressure*: with
  hundreds of just-woken real-time threads running machine-wide,
  run-queue bookkeeping costs extra per running thread.  Under
  background load the pressure coefficient is damped (contention is
  already saturated by the load), reproducing the paper's flat loaded
  curves against the rising no-load curve.
* **Δe (Figure 13)** — the dominant overhead: every terminated optional
  part runs its timer handler and ``siglongjmp`` (in parallel), then
  serializes on the task-wide completion lock (``endOptionalPart``),
  a chain of np contended handoffs.  Each handoff step is priced by the
  *background pressure on the acquirer's core*: a core whose sibling
  hardware threads are running the load program services the futex wake
  and cache-line transfer slower.  One-by-one placement leaves three
  busy load siblings next to every part; all-by-all fills cores with
  optional parts and displaces the load — the paper's finding that
  one-by-one has the highest ending overhead and all-by-all the lowest
  *emerges* from placement.  Under no load the penalty vanishes and the
  policies coincide, exactly as in Figure 13(a).

All costs carry multiplicative lognormal noise from a seeded generator,
so runs are reproducible and curves look like measurements rather than
analytic lines.
"""

import numpy as np

from repro.hardware.loads import BackgroundLoad
from repro.hardware.noise import BatchedLognormalStream
from repro.simkernel.costmodel import CostModel
from repro.simkernel.time_units import USEC


class MicroCosts:
    """Per-event micro-costs (nanoseconds) for one load condition."""

    def __init__(
        self,
        sleep_wakeup,
        sync_wakeup,
        context_switch,
        dispatch_pressure,
        cond_signal,
        timer_handler,
        unwind,
        lock_handoff,
        lock_bg_sibling_penalty,
        syscall_entry=0.5 * USEC,
    ):
        #: clock_nanosleep expiry -> runnable (timer IRQ, IPI, cold cache).
        self.sleep_wakeup = sleep_wakeup
        #: condvar/mutex handoff wake -> runnable (futex wake path).
        self.sync_wakeup = sync_wakeup
        #: base cost of switching threads on a CPU.
        self.context_switch = context_switch
        #: extra context-switch cost per RUNNING real-time thread.
        self.dispatch_pressure = dispatch_pressure
        #: pthread_cond_signal, charged to the signaller.
        self.cond_signal = cond_signal
        #: SIGALRM handler entry (Figure 7's timer_handler).
        self.timer_handler = timer_handler
        #: siglongjmp stack/context restore.
        self.unwind = unwind
        #: contended mutex handoff to a queued waiter (futex slow path).
        self.lock_handoff = lock_handoff
        #: handoff surcharge per background-busy sibling hardware thread
        #: on the acquirer's core, scaled by how long the load has been
        #: running there (see ``bg_warmup``).
        self.lock_bg_sibling_penalty = lock_bg_sibling_penalty
        #: time for a freshly resumed background task to rebuild its
        #: cache/bandwidth footprint; the sibling penalty ramps linearly
        #: from 0 to full over this window.
        self.bg_warmup = 40_000.0 * USEC
        #: flat syscall entry/exit.
        self.syscall_entry = syscall_entry


#: Calibration per load.  Composed targets (np = 228): Δm ~35/130/230 us;
#: Δb ~6/11/9 ms; Δs rising to ~90 us under no load, flat ~50/60 us under
#: load; Δe ~23 ms no load (policies equal), ~50/37 ms CPU and
#: ~60/45 ms CPU-Memory (one-by-one / all-by-all).
DEFAULT_COSTS = {
    BackgroundLoad.NONE: MicroCosts(
        sleep_wakeup=25.0 * USEC,
        sync_wakeup=15.0 * USEC,
        context_switch=10.0 * USEC,
        dispatch_pressure=0.35 * USEC,
        cond_signal=24.0 * USEC,
        timer_handler=20.0 * USEC,
        unwind=12.0 * USEC,
        lock_handoff=70.0 * USEC,
        lock_bg_sibling_penalty=0.0,
    ),
    BackgroundLoad.CPU: MicroCosts(
        sleep_wakeup=85.0 * USEC,
        sync_wakeup=40.0 * USEC,
        context_switch=45.0 * USEC,
        dispatch_pressure=0.02 * USEC,
        cond_signal=47.0 * USEC,   # branch-unit contention: worst case
        timer_handler=32.0 * USEC,
        unwind=20.0 * USEC,
        lock_handoff=92.0 * USEC,
        lock_bg_sibling_penalty=28.0 * USEC,
    ),
    BackgroundLoad.CPU_MEMORY: MicroCosts(
        sleep_wakeup=175.0 * USEC,  # cold caches after sleeping
        sync_wakeup=50.0 * USEC,
        context_switch=55.0 * USEC,
        dispatch_pressure=0.02 * USEC,
        cond_signal=38.0 * USEC,   # less branchy interference than CPU
        timer_handler=45.0 * USEC,
        unwind=28.0 * USEC,
        lock_handoff=112.0 * USEC,
        lock_bg_sibling_penalty=34.0 * USEC,
    ),
}


class XeonPhiCostModel(CostModel):
    """Cost model for the evaluation machine.

    :param topology: the :class:`~repro.simkernel.cpu.Topology` (needed
        to find background-busy siblings for lock-handoff pricing).
    :param load: a :class:`~repro.hardware.loads.BackgroundLoad`.
    :param seed: noise seed (same seed -> identical run).
    :param noise_sigma: lognormal sigma of the multiplicative noise; 0
        disables noise entirely.
    :param costs: override the calibration (a :class:`MicroCosts` or a
        load-keyed dict of them).
    :param noise: draw mode; only ``"batched"`` (vectorized chunks
        consumed one draw per priced event, see
        :mod:`repro.hardware.noise`).  Kept because ``perfbench/``
        passes it; it goes once a benchmark change stops passing it.
    """

    def __init__(self, topology, load=BackgroundLoad.NONE, seed=0,
                 noise_sigma=0.05, costs=None, noise="batched"):
        self.topology = topology
        self.load = load
        table = costs if costs is not None else DEFAULT_COSTS
        self.costs = table[load] if isinstance(table, dict) else table
        self.noise_sigma = noise_sigma
        self._rng = np.random.default_rng(seed)
        if noise != "batched":
            raise ValueError(f"unknown noise mode {noise!r}")
        self._noise_stream = (
            BatchedLognormalStream(self._rng, noise_sigma)
            if noise_sigma > 0 else None
        )
        #: optional per-CPU stall provider (duck-typed: ``multiplier(cpu)``
        #: -> float >= 1), installed by the fault-injection subsystem to
        #: model transient pipeline stalls / thermal throttling.  Applied
        #: *after* the noise draw — at consumption time, on the already
        #: drawn (possibly chunk-drawn) value — so installing it never
        #: perturbs the RNG stream: a no-fault run stays bit-identical.
        self.stall = None

    def _noisy(self, value):
        if value <= 0:
            return 0.0
        if self.noise_sigma <= 0:
            return value
        return value * self._noise_stream.next()

    def _stalled(self, value, owner):
        """Apply any active stall window; ``owner`` is a CPU id, a
        thread (its ``.cpu`` is used), or ``None`` (no CPU context —
        stall windows scoped to specific CPUs do not apply)."""
        if self.stall is None or value <= 0:
            return value
        cpu = owner if owner is None or isinstance(owner, int) \
            else owner.cpu
        return value * self.stall.multiplier(cpu)

    def _background_pressure(self, cpu, kernel):
        """Weighted count of background-busy sibling hardware threads.

        A sibling where the load program has run undisturbed is *warm*
        (weight 1: polluted caches, saturated bandwidth); one whose load
        task only just resumed — because an optional part occupied it
        until the optional deadline — is *cold* and ramps up over
        ``bg_warmup``.  This is the mechanism behind Figure 13's policy
        ordering: one-by-one placement leaves warm load tasks next to
        every part, all-by-all displaces the load from whole cores.
        """
        core = self.topology.core_of(cpu)
        pressure = 0.0
        now = kernel.now
        warmup = self.costs.bg_warmup
        for hw_thread in core.hw_threads:
            if hw_thread.cpu_id == cpu:
                continue
            if hw_thread.background_busy and \
                    kernel.current[hw_thread.cpu_id] is None:
                running_for = now - kernel.background_resume_time[
                    hw_thread.cpu_id
                ]
                pressure += min(1.0, max(0.0, running_for / warmup))
        return pressure

    # -- CostModel hooks ----------------------------------------------------

    def wakeup_latency(self, thread, kernel, kind="sync"):
        base = self.costs.sleep_wakeup if kind == "sleep" \
            else self.costs.sync_wakeup
        return self._stalled(self._noisy(base), thread)

    def context_switch(self, cpu, prev_thread, next_thread, kernel):
        if prev_thread is next_thread:
            # resuming the same thread on this CPU: registers still live
            return self._stalled(
                self._noisy(0.25 * self.costs.context_switch), cpu
            )
        pressure = kernel.nr_running * self.costs.dispatch_pressure
        return self._stalled(
            self._noisy(self.costs.context_switch + pressure), cpu
        )

    def cond_signal(self, signaler, woken_thread, kernel):
        return self._stalled(self._noisy(self.costs.cond_signal),
                             signaler)

    def timer_handler(self, thread, kernel):
        return self._stalled(self._noisy(self.costs.timer_handler),
                             thread)

    def unwind(self, thread, kernel):
        return self._stalled(self._noisy(self.costs.unwind), thread)

    def mutex_handoff(self, mutex, prev_cpu, next_cpu, contended, kernel):
        # Uncontended fast-path acquisitions are effectively free (an
        # atomic on a possibly-remote line, well under a microsecond);
        # the priced path is the futex-style handoff to a queued waiter.
        if not contended or prev_cpu is None or prev_cpu == next_cpu:
            return 0.0
        penalty = (
            self._background_pressure(next_cpu, kernel)
            * self.costs.lock_bg_sibling_penalty
        )
        return self._stalled(
            self._noisy(self.costs.lock_handoff + penalty), next_cpu
        )

    def syscall(self, request, thread, kernel):
        return self._stalled(self._noisy(self.costs.syscall_entry),
                             thread)
