"""The simulated kernel: dispatch, preemption, syscalls, signals.

Execution model
---------------

Each :class:`~repro.simkernel.thread.KernelThread` wraps a generator that
``yield``\\ s syscall requests.  The kernel keeps, per CPU (hardware
thread), a 99-level FIFO run queue
(:class:`~repro.engine.readyqueue.IndexedLevelQueue`) and a pointer to
the currently running thread.  Scheduling decisions are deferred through
the event queue (a ``need_resched``-style flag per CPU), which keeps event
ordering deterministic and models the fact that on real Linux a wake-up on
another CPU takes effect at the next scheduling point, not instantly.

``Compute`` requests are the only *divisible* work: they can be preempted,
slowed down by SMT sharing (all computing hardware threads of a core split
the core's throughput, see :class:`~repro.simkernel.cpu.Core`), and
interrupted by signal delivery.  Everything else is instantaneous apart
from micro-costs charged through the installed
:class:`~repro.simkernel.costmodel.CostModel`.

Background load (the paper's CPU load / CPU-Memory load) is declarative:
hardware threads flagged ``background_busy`` consume pipeline share
whenever no simulated thread occupies them, without generating events.
"""

from collections import deque
from functools import partial
from operator import attrgetter

from repro.engine.events import Engine
from repro.engine.readyqueue import IndexedLevelQueue
from repro.obs.bus import ProbeBus
from repro.simkernel.costmodel import ZeroCostModel
from repro.simkernel.errors import (
    DeadlockError,
    SchedulingError,
    SignalUnwind,
    SyscallError,
)
from repro.simkernel.signals import (
    SIG_DFL,
    SIG_IGN,
    CallbackDisposition,
    UnwindDisposition,
)
from repro.simkernel.runqueue import MAX_RT_PRIO, MIN_RT_PRIO
from repro.simkernel.syscalls import (
    ClockNanosleep,
    Compute,
    CondBroadcast,
    CondSignal,
    CondWait,
    Exit,
    GetCpu,
    GetTime,
    MutexLock,
    MutexUnlock,
    SchedSetAffinity,
    SchedSetScheduler,
    SchedYield,
    SetSignalMask,
    Sigaction,
    Spawn,
    TimerSettime,
)
from repro.simkernel.thread import KernelThread, SchedPolicy, ThreadState

#: Event priority for deferred scheduling decisions (runs after timer
#: expiries queued at the same instant, so a timer posted "now" is visible
#: to the dispatch decision).
_RESCHED_EVENT_PRIO = 5

#: Safety valve: maximum zero-cost syscalls processed in one burst before
#: the kernel forces a trip through the event queue.
_MAX_SYNC_STEPS = 100_000

#: Deterministic repricing order for SMT rate sharing.
_by_tid = attrgetter("tid")

#: Enum members hoisted to module level: the resume/compute cycle tests
#: thread state on every event, and the attribute chain
#: ``ThreadState.RUNNING`` costs two dict lookups per test.
_RUNNING = ThreadState.RUNNING
_READY = ThreadState.READY
_FIFO = SchedPolicy.FIFO


class Kernel:
    """A simulated machine: topology + event engine + scheduler state.

    :param topology: the :class:`~repro.simkernel.cpu.Topology` to run on.
    :param cost_model: a :class:`~repro.simkernel.costmodel.CostModel`;
        defaults to :class:`~repro.simkernel.costmodel.ZeroCostModel`.
    :param probe_bus: optionally share a
        :class:`~repro.obs.bus.ProbeBus`; a fresh (idle) bus is created
        otherwise and wired into the engine and run queues, so
        observers attach with zero setup and an unobserved run pays one
        boolean test per probe site.  The sites on the per-event path
        (ready, preempt, dispatch, block, cond_signal, timer_expire,
        signal_deliver) test ``probes.active`` before they call
        :meth:`_emit`, so on an idle bus they pay that test and no
        call; the rarer sites leave the test to :meth:`_emit`.
    """

    def __init__(self, topology, cost_model=None, probe_bus=None):
        self.topology = topology
        self.cost_model = cost_model or ZeroCostModel()
        self.engine = Engine()
        self.probes = probe_bus if probe_bus is not None \
            else ProbeBus(clock=self.engine)
        if self.probes.clock is None:
            self.probes.clock = self.engine
        if self.engine.probes is None:
            self.engine.probes = self.probes
        n = topology.n_cpus
        self.runqueues = [
            IndexedLevelQueue(MIN_RT_PRIO, MAX_RT_PRIO, cpu_id=cpu)
            for cpu in range(n)
        ]
        for runqueue in self.runqueues:
            runqueue.probes = self.probes
        self.other_queues = [deque() for _ in range(n)]
        self.current = [None] * n
        self.threads = []
        #: when each CPU last became free of simulated threads — i.e. when
        #: background load (if flagged) resumed there.  Cost models use
        #: this to price contention against *warm* (long-running) vs
        #: *cold* (freshly resumed) background tasks.
        self.background_resume_time = [float("-inf")] * n
        self._last_running = [None] * n
        self._resched_pending = [False] * n
        #: per-CPU deferred-schedule callbacks, allocated once — resched
        #: is the most frequently scheduled event, so the per-request
        #: ``partial`` allocation is hoisted out of the hot path.
        self._resched_cbs = [
            partial(self._do_schedule, cpu) for cpu in range(n)
        ]
        #: incrementally maintained count of CPUs running a SCHED_FIFO
        #: thread (see :attr:`nr_running`); updated at the only three
        #: places occupancy or policy changes (:meth:`_dispatch`,
        #: :meth:`_vacate_cpu`, :meth:`_sys_setscheduler`).
        self._nr_running_fifo = 0
        self._core_computing = [set() for _ in range(topology.n_cores)]
        #: per-CPU core objects, resolved once — ``topology.core_of``
        #: is called on every compute start/stop and the indirection
        #: was a measurable slice of the hot path.
        self._cpu_core = [topology.core_of(cpu) for cpu in range(n)]
        #: per-core ``(n_computing, n_background) -> rate`` memo.
        #: ``Core.rate_for`` is pure in its arguments given a fixed core
        #: speed, so the memo is exact; :meth:`set_core_speed` (the only
        #: runtime speed mutation) drops the affected core's entries.
        self._rate_cache = [{} for _ in range(topology.n_cores)]
        #: dedicated memo slot for the dominant ``(1, 0)`` case — a lone
        #: computing thread on a core with no background flags — so the
        #: per-compute rate lookup is a list index, no tuple key.
        self._rate1 = [None] * topology.n_cores
        #: (tid, signum) -> post time, for signal-delivery-latency probes
        #: (maintained only while the bus has subscribers).
        self._signal_posted = {}
        #: optional fault-injection hooks (duck-typed — see
        #: :class:`repro.faults.injectors.FaultInjector`).  ``None`` (the
        #: default) keeps every hook site to a single attribute test, the
        #: same zero-overhead pattern as the probe bus.
        self.faults = None
        #: currently armed :class:`~repro.simkernel.timers.KTimer`
        #: objects — maintained at arm/disarm/expire (O(1) set ops) so
        #: diagnostics (the flight recorder's kernel summary) can list
        #: pending timers without scanning threads.
        self.armed_timers = set()
        #: per-kernel tid counter, assigned at :meth:`spawn` so two
        #: same-seed kernels in one process emit byte-identical probe
        #: streams (a process-global counter would skew the second run).
        self._next_tid = 1

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def now(self):
        """Current simulated time in nanoseconds."""
        return self.engine.now

    @property
    def nr_running(self):
        """Number of CPUs currently executing a SCHED_FIFO thread.

        Cost models use this as dispatch pressure: with hundreds of
        just-woken real-time threads active, scheduler bookkeeping and
        run-queue cache lines are hot and context switches cost more.
        Maintained incrementally — it is read on every context switch,
        and an O(n_cpus) scan there dominated dispatch on wide
        topologies.
        """
        return self._nr_running_fifo

    def spawn(self, thread):
        """Register and start a thread (it becomes READY immediately)."""
        if thread.state is not ThreadState.NEW:
            raise SchedulingError(f"{thread!r} already started")
        self._check_cpu(thread.cpu)
        thread.tid = self._next_tid
        self._next_tid += 1
        thread.materialize()
        # Pre-bind the per-thread event callbacks once: completion,
        # wake-after-latency and sleep-expiry are (re)scheduled on every
        # job of every thread, and the per-schedule ``partial``
        # allocations were a measurable slice of the hot path.
        thread._complete_cb = partial(self._complete_work, thread)
        thread._ready_cb = partial(self._make_ready, thread)
        thread._sleep_expire_cb = partial(self._sleep_expire, thread)
        self.threads.append(thread)
        self._emit("kernel.spawn", thread)
        self._make_ready(thread)
        return thread

    def create_thread(self, name, body, cpu=0, priority=1,
                      policy=SchedPolicy.FIFO):
        """Convenience: construct a :class:`KernelThread` and spawn it."""
        thread = KernelThread(name, body, cpu=cpu, priority=priority,
                              policy=policy)
        return self.spawn(thread)

    def run(self, until=None, max_events=None):
        """Drain events (optionally bounded); returns events executed."""
        return self.engine.run(until=until, max_events=max_events)

    def run_to_completion(self, max_events=None):
        """Run until every spawned thread terminated.

        Raises :class:`DeadlockError` with a diagnosis if the event queue
        drains while threads are still blocked or ready.
        """
        self.engine.run(max_events=max_events)
        stuck = [t for t in self.threads if t.alive]
        if stuck:
            detail = "; ".join(
                f"{t.name}({t.state.value}, on={t.blocked_on!r})" for t in stuck
            )
            raise DeadlockError(
                f"event queue drained with {len(stuck)} live thread(s): {detail}",
                blocked_threads=stuck,
            )

    def post_signal(self, thread, signum):
        """Post a signal to ``thread`` (kernel-side entry point).

        The installed fault hooks may *drop* the post entirely or
        *delay* it (the hooks re-post through :meth:`post_signal_direct`
        so a delayed signal is not intercepted twice).
        """
        if self.faults is not None and \
                not self.faults.allow_signal_post(thread, signum):
            return
        self.post_signal_direct(thread, signum)

    def post_signal_direct(self, thread, signum):
        """Post a signal bypassing the fault hooks (delayed re-posts)."""
        if not thread.alive:
            return
        disposition = thread.signal_handlers.get(signum, SIG_DFL)
        if disposition == SIG_IGN:
            return
        if self.probes.active:
            self._signal_posted[(thread.tid, signum)] = self.engine.now
            self._emit("kernel.signal_post", thread, signum=signum)
        if signum in thread.signal_mask:
            thread.pending_signals.append(signum)
            self._emit("kernel.signal_blocked", thread)
            return
        self._deliver_signal(thread, signum, disposition)

    def kill(self, thread):
        """Forcefully terminate a thread (cleans up whatever it holds)."""
        if not thread.alive:
            return
        self._detach_from_wait_objects(thread)
        if thread.state is ThreadState.RUNNING:
            if thread.is_computing:
                self._stop_compute(thread)
            self._vacate_cpu(thread.cpu)
            self._core_changed(self._cpu_core[thread.cpu])
            self._request_resched(thread.cpu)
        elif thread.state is ThreadState.READY:
            self._dequeue_ready(thread)
        if thread.gen is not None:
            thread.gen.close()
        thread.state = ThreadState.TERMINATED
        self._emit("kernel.thread_exit", thread)

    def spurious_wakeup(self, cond, thread):
        """Wake ``thread`` from ``cond`` without any signal/broadcast.

        POSIX explicitly permits spurious wakeups from
        ``pthread_cond_wait``; correct code re-checks its predicate in a
        loop (Mesa semantics).  The fault injector uses this entry point
        to prove the middleware's wait loops actually do.  Returns True
        iff the thread was woken (False when it is no longer waiting on
        ``cond`` — the race resolved itself first).
        """
        if not thread.alive or thread.blocked_on is not cond:
            return False
        mutex = None
        for entry in list(cond.waiters):
            if entry[0] is thread:
                mutex = entry[1]
                cond.waiters.remove(entry)
                break
        if mutex is None:
            return False
        # exactly the re-acquire path a signalled waiter takes
        if mutex.owner is None:
            self._mutex_acquire(thread, mutex, contended=False)
            self._wake_after_latency(thread)
        else:
            mutex.waiters.append(thread)
            thread.blocked_on = mutex
        return True

    def force_unwind(self, thread, signum=None):
        """Terminate a thread's current (optional) part *regardless of
        its signal mask* — the overrun watchdog's last resort.

        Models a supervisor forcibly cancelling an optional part whose
        termination strategy failed (Table I's C++ ``try``/``catch`` row
        leaves ``SIGALRM`` masked, so the regular timer path can never
        stop the next overrun).  Delivery always restores the mask: the
        watchdog repairs the wedged state so subsequent jobs' timers
        fire again.  Returns True iff an unwind was delivered.
        """
        if not thread.alive:
            return False
        from repro.simkernel.signals import SIGALRM
        if signum is None:
            signum = SIGALRM
        # drop any queued instance so the unwind is not doubled later
        while signum in thread.pending_signals:
            thread.pending_signals.remove(signum)
        thread.signal_mask.discard(signum)
        self._deliver_signal(
            thread, signum, UnwindDisposition(restore_mask=True),
            forced=True,
        )
        return True

    def set_core_speed(self, core_id, speed):
        """Change a core's throughput and reprice in-flight compute.

        The fault injector uses this for transient per-core throttle
        windows (thermal stall, frequency capping): every computing
        thread on the core has its completion event recomputed at the
        new rate, deterministically.
        """
        if speed <= 0:
            raise SchedulingError(f"core speed must be positive: {speed}")
        core = self.topology.cores[core_id]
        core.speed = speed
        self._rate_cache[core_id].clear()
        self._rate1[core_id] = None
        self._recompute_core(core)

    # ------------------------------------------------------------------
    # readiness and dispatch
    # ------------------------------------------------------------------

    def _check_cpu(self, cpu):
        if not 0 <= cpu < self.topology.n_cpus:
            raise SchedulingError(f"CPU {cpu} out of range")

    def _emit(self, topic, thread, **extra):
        """Publish a thread-lifecycle ``kernel.*`` event to the probe
        bus, with a uniform thread/tid/cpu/prio payload plus ``extra``."""
        probes = self.probes
        if probes.active:
            probes.publish(topic, thread=thread.name,
                           tid=thread.tid, cpu=thread.cpu,
                           prio=thread.priority, **extra)

    def _vacate_cpu(self, cpu):
        """Mark a CPU free of simulated threads (background resumes)."""
        thread = self.current[cpu]
        if thread is not None and thread.policy is _FIFO:
            self._nr_running_fifo -= 1
        self.current[cpu] = None
        self.background_resume_time[cpu] = self.engine.now

    def _make_ready(self, thread, at_head=False):
        if not thread.alive:
            return
        thread.state = _READY
        thread.blocked_on = None
        if thread.policy is _FIFO:
            self.runqueues[thread.cpu].enqueue(
                thread, thread.priority, at_head=at_head
            )
        else:
            queue = self.other_queues[thread.cpu]
            if at_head:
                queue.appendleft(thread)
            else:
                queue.append(thread)
        if self.probes.active:
            self._emit("kernel.ready", thread)
        self._request_resched(thread.cpu)

    def _dequeue_ready(self, thread):
        if thread.policy is _FIFO:
            self.runqueues[thread.cpu].dequeue(thread, thread.priority)
        else:
            self.other_queues[thread.cpu].remove(thread)

    def _request_resched(self, cpu):
        if self._resched_pending[cpu]:
            return
        self._resched_pending[cpu] = True
        self.engine.schedule_at(
            self.engine.now,
            self._resched_cbs[cpu],
            priority=_RESCHED_EVENT_PRIO,
        )

    def _do_schedule(self, cpu):
        self._resched_pending[cpu] = False
        current = self.current[cpu]
        runqueue = self.runqueues[cpu]
        if current is None:
            if runqueue or self.other_queues[cpu]:
                self._dispatch(cpu)
            return
        # SCHED_FIFO preempts only from a strictly higher level; a
        # SCHED_OTHER thread runs at pseudo-priority 0, below every level,
        # and never preempts.
        top = runqueue.highest_priority()
        if top is not None and top > current.effective_priority():
            self._preempt(cpu)
            self._dispatch(cpu)

    def _preempt(self, cpu):
        thread = self.current[cpu]
        if thread.completion_event is not None:  # computing
            self._stop_compute(thread)
        thread.state = _READY
        thread.preemptions += 1
        self._vacate_cpu(cpu)
        if thread.policy is _FIFO:
            # SCHED_FIFO: a preempted thread returns to the *head* of its
            # priority level so it resumes before equal-priority peers.
            self.runqueues[cpu].enqueue(thread, thread.priority,
                                        at_head=True)
        else:
            self.other_queues[cpu].appendleft(thread)
        self._core_changed(self._cpu_core[cpu])
        if self.probes.active:
            self._emit("kernel.preempt", thread)

    def _dispatch(self, cpu):
        runqueue = self.runqueues[cpu]
        if runqueue:
            thread = runqueue.pop()[0]
        elif self.other_queues[cpu]:
            thread = self.other_queues[cpu].popleft()
        else:
            return
        thread.state = _RUNNING
        self.current[cpu] = thread
        if thread.policy is _FIFO:
            self._nr_running_fifo += 1
        thread.dispatches += 1
        switch_cost = self.cost_model.context_switch(
            cpu, self._last_running[cpu], thread, self
        )
        self._last_running[cpu] = thread
        self._core_changed(self._cpu_core[cpu])
        if self.probes.active:
            self._emit("kernel.dispatch", thread)
        if switch_cost > 0:
            thread.latency_remaining += switch_cost
        # work or latency to execute before the coroutine resumes
        if thread.work_remaining > 0 or thread.latency_remaining > 0:
            self._start_compute(thread)
        else:
            self._resume(thread)

    # ------------------------------------------------------------------
    # compute / SMT rate sharing
    # ------------------------------------------------------------------

    def _charge(self, thread):
        now = self.engine.now
        elapsed = now - thread.last_charge
        if elapsed > 0:
            # latency burns first, at wall rate (SMT-immune)
            latency = thread.latency_remaining
            if elapsed < latency:
                thread.latency_remaining = latency - elapsed
            else:
                thread.latency_remaining = 0.0
                remainder = elapsed - latency
                if remainder > 0 and thread.rate > 0:
                    left = thread.work_remaining \
                        - remainder * thread.rate
                    thread.work_remaining = left if left > 0.0 else 0.0
            thread.cpu_time += elapsed
        thread.last_charge = now

    def _start_compute(self, thread):
        core = self._cpu_core[thread.cpu]
        computing = self._core_computing[core.core_id]
        engine = self.engine
        now = engine.now
        thread.last_charge = now
        computing.add(thread)
        if len(computing) > 1:
            self._recompute_core(core)
            return
        # lone computing thread (the common case without SMT sharing):
        # the generic repricing loop collapses to charging *this* thread
        # (elapsed is zero — last_charge was just stamped) and pricing
        # its completion, so inline it.  A core whose background load
        # weighs 0 has ``rate_for(1, k) == rate_for(1, 0)`` for every k,
        # so it takes the no-load slot without counting its siblings.
        if not core.n_background_flagged or not core.background_weight:
            cid = core.core_id
            rate = self._rate1[cid]
            if rate is None:
                rate = self._rate1[cid] = core.rate_for(1, 0)
        else:
            key = (1, self._background_count(core))
            cache = self._rate_cache[core.core_id]
            rate = cache.get(key)
            if rate is None:
                rate = cache[key] = core.rate_for(*key)
        thread.rate = rate
        if thread.completion_event is not None:
            engine.cancel(thread.completion_event)
        finish = (now + thread.latency_remaining
                  + thread.work_remaining / rate)
        thread.completion_event = engine.schedule_at(
            finish, thread._complete_cb
        )

    def _stop_compute(self, thread):
        if thread.completion_event is not None:
            self.engine.cancel(thread.completion_event)
            thread.completion_event = None
        self._charge(thread)
        thread.rate = 0.0
        core = self._cpu_core[thread.cpu]
        computing = self._core_computing[core.core_id]
        computing.discard(thread)
        if computing:
            self._recompute_core(core)

    def _core_changed(self, core):
        """Occupancy (running / background-visible) changed on ``core``."""
        if self._core_computing[core.core_id]:
            self._recompute_core(core)

    def _background_count(self, core):
        """Background-busy hardware threads of ``core`` that no simulated
        thread occupies.  Callers skip it on a core without load flags
        or with ``background_weight`` 0, where the count cannot move the
        rate."""
        count = 0
        current = self.current
        for hw_thread in core.hw_threads:
            if hw_thread._background_busy and current[hw_thread.cpu_id] is None:
                count += 1
        return count

    def _recompute_core(self, core):
        computing = self._core_computing[core.core_id]
        if not computing:
            return
        engine = self.engine
        now = engine.now
        if core.n_background_flagged and core.background_weight:
            key = (len(computing), self._background_count(core))
        else:
            key = (len(computing), 0)
        cache = self._rate_cache[core.core_id]
        rate = cache.get(key)
        if rate is None:
            rate = cache[key] = core.rate_for(*key)
        # tid order keeps repricing deterministic; a one-element set (the
        # overwhelmingly common case without SMT sharing) needs no sort
        threads = computing if len(computing) == 1 \
            else sorted(computing, key=_by_tid)
        for thread in threads:
            elapsed = now - thread.last_charge
            if elapsed > 0:
                latency = thread.latency_remaining
                if elapsed < latency:
                    thread.latency_remaining = latency - elapsed
                else:
                    thread.latency_remaining = 0.0
                    remainder = elapsed - latency
                    if remainder > 0 and thread.rate > 0:
                        left = thread.work_remaining \
                            - remainder * thread.rate
                        thread.work_remaining = left if left > 0.0 else 0.0
                thread.cpu_time += elapsed
            thread.last_charge = now
            thread.rate = rate
            if thread.completion_event is not None:
                engine.cancel(thread.completion_event)
            finish = (now + thread.latency_remaining
                      + thread.work_remaining / rate)
            thread.completion_event = engine.schedule_at(
                finish, thread._complete_cb
            )

    def _complete_work(self, thread):
        thread.completion_event = None
        # charge, inlined: work/latency are zeroed next, so only the
        # cpu_time accumulation and last_charge stamp survive
        now = self.engine.now
        elapsed = now - thread.last_charge
        if elapsed > 0:
            thread.cpu_time += elapsed
        thread.last_charge = now
        thread.work_remaining = 0.0
        thread.latency_remaining = 0.0
        thread.rate = 0.0
        core = self._cpu_core[thread.cpu]
        computing = self._core_computing[core.core_id]
        computing.discard(thread)
        if computing:
            self._recompute_core(core)
        self._resume(thread)

    # ------------------------------------------------------------------
    # the resume loop
    # ------------------------------------------------------------------

    def _resume(self, thread):
        """Advance a RUNNING thread's coroutine until it blocks/computes."""
        steps = 0
        current = self.current
        while (
            thread.state is _RUNNING
            and current[thread.cpu] is thread
        ):
            if thread.pending_signals:
                self._deliver_pending(thread)
            if thread.work_remaining > 0 or thread.latency_remaining > 0:
                self._start_compute(thread)
                return
            steps += 1
            if steps > _MAX_SYNC_STEPS:
                raise SyscallError(
                    f"{thread.name!r} issued {_MAX_SYNC_STEPS} zero-cost "
                    f"syscalls without consuming time (runaway loop?)"
                )
            try:
                if thread.resume_exception is not None:
                    exc = thread.resume_exception
                    thread.resume_exception = None
                    thread.resume_value = None
                    request = thread.gen.throw(exc)
                else:
                    value = thread.resume_value
                    thread.resume_value = None
                    request = thread.gen.send(value)
            except StopIteration:
                self._exit_thread(thread)
                return
            except SignalUnwind:
                # The unwind escaped the whole thread body: the thread dies
                # (a longjmp past main); treat as a clean exit for tests.
                self._exit_thread(thread)
                return
            if not self._handle_syscall(thread, request):
                return

    def _exit_thread(self, thread):
        cpu = thread.cpu
        thread.state = ThreadState.TERMINATED
        if self.current[cpu] is thread:
            self._vacate_cpu(cpu)
        self._detach_from_wait_objects(thread)
        self._core_changed(self._cpu_core[cpu])
        self._request_resched(cpu)
        self._emit("kernel.thread_exit", thread)

    def _block(self, thread, blocked_on):
        cpu = thread.cpu
        thread.state = ThreadState.BLOCKED
        thread.blocked_on = blocked_on
        if self.current[cpu] is thread:
            self._vacate_cpu(cpu)
        self._core_changed(self._cpu_core[cpu])
        self._request_resched(cpu)
        if self.probes.active:
            self._emit("kernel.block", thread)

    def _charge_syscall_cost(self, thread, cost, result=None):
        """Finish a syscall whose effect is done but that costs time."""
        thread.resume_value = result
        if cost > 0:
            thread.latency_remaining += cost
            self._start_compute(thread)
            return False  # loop exits; completion event resumes
        return (thread.state is _RUNNING
                and self.current[thread.cpu] is thread)

    # ------------------------------------------------------------------
    # syscall processing
    # ------------------------------------------------------------------

    def _handle_syscall(self, thread, request):
        """Apply ``request``.  Returns True iff the resume loop continues.

        Dispatch is a ``type(request)`` dict lookup over the syscall
        classes of :mod:`repro.simkernel.syscalls`: ``Compute`` inline,
        every other one through :data:`_SYSCALL_HANDLERS`, priced by
        ``cost_model.syscall`` before its handler runs.  Any other type
        (a subclass included) raises :class:`SyscallError`.
        """
        rtype = type(request)
        if rtype is Compute:
            thread.work_remaining += request.work
            thread.resume_value = None
            if thread.work_remaining > 0 or thread.latency_remaining > 0:
                self._start_compute(thread)
                return False
            return (thread.state is _RUNNING
                    and self.current[thread.cpu] is thread)
        handler = _SYSCALL_HANDLERS.get(rtype)
        if handler is not None:
            # bound lookup by name (not a stored function) so class-level
            # monkeypatching — the mutation-smoke tests plant bugs that
            # way — still takes effect
            return getattr(self, handler)(
                thread, request,
                self.cost_model.syscall(request, thread, self),
            )
        raise SyscallError(
            f"{thread.name!r} yielded unsupported request {request!r}"
        )

    def _sys_get_time(self, thread, request, cost):
        return self._charge_syscall_cost(thread, cost, self.engine.now)

    def _sys_get_cpu(self, thread, request, cost):
        return self._charge_syscall_cost(thread, cost, thread.cpu)

    def _sys_cond_wait_costed(self, thread, request, cost):
        # CondWait is priced like every syscall (the draw keeps the noise
        # stream aligned) but the cost lands on the wake-up path instead
        return self._sys_cond_wait(thread, request)

    def _sys_sigaction(self, thread, request, cost):
        thread.signal_handlers[request.signum] = request.disposition
        return self._charge_syscall_cost(thread, cost)

    def _sys_sched_yield_costed(self, thread, request, cost):
        return self._sys_sched_yield(thread, cost)

    def _sys_spawn(self, thread, request, cost):
        self.spawn(request.thread)
        return self._charge_syscall_cost(thread, cost, request.thread)

    def _sys_exit(self, thread, request, cost):
        self._exit_thread(thread)
        return False

    def _sys_clock_nanosleep(self, thread, request, cost):
        if request.until <= self.engine.now:
            return self._charge_syscall_cost(thread, cost)
        thread.resume_value = None
        self._block(thread, ("sleep", request.until))
        thread.sleep_event = self.engine.schedule_at(
            request.until, thread._sleep_expire_cb
        )
        return False

    def _sleep_expire(self, thread):
        thread.sleep_event = None
        if thread.state is not ThreadState.BLOCKED:
            return
        self._emit("kernel.sleep_expire", thread)
        latency = self.cost_model.wakeup_latency(thread, self, kind="sleep")
        if latency > 0:
            self.engine.schedule_after(latency, thread._ready_cb)
        else:
            self._make_ready(thread)

    def _sys_cond_wait(self, thread, request):
        mutex = request.mutex
        if mutex.owner is not thread:
            raise SyscallError(
                f"{thread.name!r} called cond_wait on {request.cond.name} "
                f"without holding {mutex.name}"
            )
        self._mutex_release(thread, mutex)
        request.cond.waiters.append((thread, mutex))
        self._block(thread, request.cond)
        if self.faults is not None:
            # the hooks may schedule a spurious wakeup for this waiter
            self.faults.on_cond_block(request.cond, thread)
        return False

    def _wake_cond_waiter(self, cond):
        """Pop and wake one waiter of ``cond``; returns it or None."""
        if not cond.waiters:
            return None
        woken, mutex = cond.waiters.popleft()
        # The waiter must re-acquire the mutex before cond_wait returns.
        if mutex.owner is None:
            self._mutex_acquire(woken, mutex, contended=False)
            self._wake_after_latency(woken)
        else:
            mutex.waiters.append(woken)
            woken.blocked_on = mutex
        return woken

    def _sys_cond_signal(self, thread, request, base_cost):
        woken = self._wake_cond_waiter(request.cond)
        cost = base_cost + self.cost_model.cond_signal(thread, woken, self)
        if self.probes.active:
            self._emit("kernel.cond_signal", thread)
        return self._charge_syscall_cost(thread, cost, 1 if woken else 0)

    def _sys_cond_broadcast(self, thread, request, base_cost):
        count = 0
        cost = base_cost
        while request.cond.waiters:
            woken = self._wake_cond_waiter(request.cond)
            cost += self.cost_model.cond_signal(thread, woken, self)
            count += 1
        self._emit("kernel.cond_broadcast", thread)
        return self._charge_syscall_cost(thread, cost, count)

    def _wake_after_latency(self, thread):
        latency = self.cost_model.wakeup_latency(thread, self, kind="sync")
        if latency > 0:
            self.engine.schedule_after(latency, thread._ready_cb)
        else:
            self._make_ready(thread)

    def _mutex_acquire(self, thread, mutex, contended):
        mutex.owner = thread
        handoff = self.cost_model.mutex_handoff(
            mutex, mutex.last_owner_cpu, thread.cpu, contended, self
        )
        if handoff > 0:
            # Cache-line transfer: charged to the acquirer as latency the
            # next time it runs.
            thread.latency_remaining += handoff

    def _mutex_release(self, thread, mutex):
        mutex.last_owner_cpu = thread.cpu
        if mutex.boosted_from is not None:
            # PTHREAD_PRIO_INHERIT: drop back to the pre-boost priority.
            boosted_prio = thread.priority
            thread.priority = mutex.boosted_from
            mutex.boosted_from = None
            self._emit("kernel.prio_restore", thread, old_prio=boosted_prio)
            if thread.state is ThreadState.RUNNING:
                self._request_resched(thread.cpu)
        if mutex.waiters:
            next_owner = mutex.waiters.popleft()
            self._mutex_acquire(next_owner, mutex, contended=True)
            self._wake_after_latency(next_owner)
        else:
            mutex.owner = None

    def _boost_owner(self, mutex, waiter):
        """Priority inheritance: raise the owner to the waiter's level."""
        owner = mutex.owner
        if owner is None or owner.policy is not SchedPolicy.FIFO:
            return
        if waiter.priority <= owner.priority:
            return
        if mutex.boosted_from is None:
            mutex.boosted_from = owner.priority
        old_prio = owner.priority
        if owner.state is ThreadState.READY:
            # requeue discipline: urgency changed, so remove at the old
            # priority and re-enqueue at the boosted one
            runqueue = self.runqueues[owner.cpu]
            runqueue.dequeue(owner, owner.priority)
            owner.priority = waiter.priority
            runqueue.enqueue(owner, owner.priority)
            self._emit("kernel.prio_boost", owner, old_prio=old_prio,
                       waiter=waiter.name)
            self._request_resched(owner.cpu)
        else:
            owner.priority = waiter.priority
            self._emit("kernel.prio_boost", owner, old_prio=old_prio,
                       waiter=waiter.name)

    def _sys_mutex_lock(self, thread, request, cost):
        mutex = request.mutex
        if mutex.owner is None:
            self._mutex_acquire(thread, mutex, contended=False)
            return self._charge_syscall_cost(thread, cost)
        if mutex.owner is thread:
            raise SyscallError(
                f"{thread.name!r} relocking non-recursive {mutex.name}"
            )
        if mutex.protocol == "inherit":
            self._boost_owner(mutex, thread)
        thread.resume_value = None
        mutex.waiters.append(thread)
        self._block(thread, mutex)
        return False

    def _sys_mutex_unlock(self, thread, request, cost):
        mutex = request.mutex
        if mutex.owner is not thread:
            raise SyscallError(
                f"{thread.name!r} unlocking {mutex.name} it does not own"
            )
        self._mutex_release(thread, mutex)
        return self._charge_syscall_cost(thread, cost)

    def _sys_timer_settime(self, thread, request, cost):
        timer = request.timer
        if timer.deleted:
            raise SyscallError(f"timer_settime on deleted {timer.name}")
        was_armed = timer.event is not None
        if was_armed:
            self.engine.cancel(timer.event)
            timer.event = None
            timer.expires_at = None
            self.armed_timers.discard(timer)
        if request.at is not None:
            expires = max(request.at, self.engine.now)
            if self.faults is not None:
                # timer drift / late fire: the fault hooks may skew the
                # programmed expiry (never into the past)
                expires = max(self.faults.adjust_timer_expiry(timer, expires),
                              self.engine.now)
            timer.expires_at = expires
            timer.arm_count += 1
            expire_cb = timer._expire_cb
            if expire_cb is None:
                expire_cb = timer._expire_cb = \
                    partial(self._timer_expire, timer)
            timer.event = self.engine.schedule_at(expires, expire_cb)
            self.armed_timers.add(timer)
            if self.probes.active:
                self._emit("kernel.timer_arm", thread, timer=timer.name,
                           at=expires)
        elif was_armed and self.probes.active:
            self._emit("kernel.timer_disarm", thread, timer=timer.name)
        return self._charge_syscall_cost(thread, cost)

    def _timer_expire(self, timer):
        timer.event = None
        timer.expires_at = None
        self.armed_timers.discard(timer)
        timer.expirations += 1
        timer.last_expired_at = self.engine.now
        if self.probes.active:
            self._emit("kernel.timer_expire", timer.owner, timer=timer.name,
                       signum=timer.signum, expirations=timer.expirations)
        self.post_signal(timer.owner, timer.signum)

    def _sys_set_signal_mask(self, thread, request, cost):
        thread.signal_mask = set(request.mask)
        # Unblocking may make queued signals deliverable; the resume loop's
        # _deliver_pending picks them up on the next iteration.
        return self._charge_syscall_cost(thread, cost)

    def _sys_setscheduler(self, thread, request, cost):
        old_prio = thread.priority
        was_fifo = thread.policy is SchedPolicy.FIFO
        thread.policy = request.policy
        if self.current[thread.cpu] is thread:
            # keep the incremental nr_running count honest across a
            # policy change of a RUNNING thread
            is_fifo = request.policy is SchedPolicy.FIFO
            self._nr_running_fifo += int(is_fifo) - int(was_fifo)
        if request.policy is SchedPolicy.FIFO:
            if not MIN_RT_PRIO <= request.priority <= MAX_RT_PRIO:
                raise SchedulingError(
                    f"priority {request.priority} outside FIFO range"
                )
            thread.priority = request.priority
        if self.probes.active:
            # priority-band transitions (HPQ/RTQ/NRTQ) are derived from
            # these by the metrics/export layers
            self._emit("kernel.setscheduler", thread, old_prio=old_prio,
                       policy=request.policy.value)
        self._request_resched(thread.cpu)
        return self._charge_syscall_cost(thread, cost)

    def _sys_setaffinity(self, thread, request, cost):
        target = request.thread if request.thread is not None else thread
        self._check_cpu(request.cpu)
        old_cpu = target.cpu
        if old_cpu == request.cpu:
            return self._charge_syscall_cost(thread, cost)
        self._emit("kernel.migrate", target, from_cpu=old_cpu,
                   to_cpu=request.cpu)
        if target.state is ThreadState.READY:
            self._dequeue_ready(target)
            target.cpu = request.cpu
            self._make_ready(target)
        elif target.state is ThreadState.RUNNING and target is thread:
            # Migrating self: leave the CPU and requeue on the new one.
            thread.resume_value = None
            if cost > 0:
                thread.latency_remaining += cost
            self._vacate_cpu(old_cpu)
            target.cpu = request.cpu
            self._core_changed(self._cpu_core[old_cpu])
            self._request_resched(old_cpu)
            self._make_ready(target)
            return False
        else:
            # NEW / BLOCKED / RUNNING-elsewhere: takes effect at next wake.
            target.cpu = request.cpu
        return self._charge_syscall_cost(thread, cost)

    def _sys_sched_yield(self, thread, cost):
        cpu = thread.cpu
        thread.resume_value = None
        if cost > 0:
            thread.latency_remaining += cost
        thread.state = ThreadState.READY
        self._vacate_cpu(cpu)
        if thread.policy is SchedPolicy.FIFO:
            self.runqueues[cpu].enqueue(thread, thread.priority)
        else:
            self.other_queues[cpu].append(thread)
        self._core_changed(self._cpu_core[cpu])
        self._emit("kernel.yield", thread)
        self._request_resched(cpu)
        return False

    # ------------------------------------------------------------------
    # signal delivery
    # ------------------------------------------------------------------

    def _deliver_pending(self, thread):
        if not thread.pending_signals:
            return
        deliverable = [
            s for s in thread.pending_signals if s not in thread.signal_mask
        ]
        if not deliverable:
            return
        signum = deliverable[0]
        thread.pending_signals.remove(signum)
        disposition = thread.signal_handlers.get(signum, SIG_DFL)
        if disposition == SIG_IGN:
            return
        self._deliver_signal(thread, signum, disposition)

    def _deliver_signal(self, thread, signum, disposition, forced=False):
        #: delivery latency (post -> deliver) for the probe bus; popped
        #: for every disposition so the bookkeeping dict cannot grow.
        posted_at = self._signal_posted.pop((thread.tid, signum), None)
        signal_latency = (
            self.engine.now - posted_at if posted_at is not None else None
        )
        if disposition == SIG_DFL:
            raise SyscallError(
                f"signal {signum} with default disposition delivered to "
                f"{thread.name!r} (install a handler or SIG_IGN)"
            )
        if isinstance(disposition, CallbackDisposition):
            disposition.callback(thread, self.engine.now)
            return
        if not isinstance(disposition, UnwindDisposition):
            raise SyscallError(f"unknown disposition {disposition!r}")

        if self.probes.active:
            self._emit("kernel.signal_deliver", thread, signum=signum,
                       latency=signal_latency, forced=forced)
        if disposition.on_deliver is not None:
            disposition.on_deliver(thread, self.engine.now)

        handler_cost = self.cost_model.timer_handler(thread, self)
        unwind_cost = self.cost_model.unwind(thread, self)
        cost = handler_cost + unwind_cost

        # POSIX blocks the signal while its handler runs; siglongjmp with a
        # saved mask restores it, a plain try/catch unwind does not
        # (Table I: the next job's timer interrupt then never arrives).
        thread.signal_mask.add(signum)
        if disposition.restore_mask:
            thread.signal_mask.discard(signum)

        exception = SignalUnwind(signum, disposition.restore_mask,
                                 forced=forced)

        if thread.state is ThreadState.RUNNING and thread.is_computing:
            # Interrupt the compute: remaining optional work is abandoned
            # (the longjmp never returns to it); only handler+unwind cost
            # remains to execute before the exception surfaces.
            self.engine.cancel(thread.completion_event)
            thread.completion_event = None
            self._charge(thread)
            exception.abandoned = thread.work_remaining
            thread.work_remaining = 0.0
            thread.latency_remaining = cost
            thread.resume_exception = exception
            core = self._cpu_core[thread.cpu]
            self._recompute_core(core)
            return

        # not computing: a part READY after a preemption still holds the
        # work left when it was charged off its CPU
        exception.abandoned = thread.work_remaining
        thread.resume_exception = exception
        thread.work_remaining = 0.0
        thread.latency_remaining = cost

        if thread.state is ThreadState.RUNNING:
            # Mid-resume-loop: the loop notices resume_exception next turn.
            return
        if thread.state is ThreadState.BLOCKED:
            self._detach_from_wait_objects(thread)
            self._make_ready(thread)
        # READY: fields are set; delivery completes at next dispatch.

    def _detach_from_wait_objects(self, thread):
        """Remove a thread from whatever queue it is blocked on."""
        blocked_on = thread.blocked_on
        if blocked_on is None:
            return
        if isinstance(blocked_on, tuple) and blocked_on[0] == "sleep":
            if thread.sleep_event is not None:
                self.engine.cancel(thread.sleep_event)
                thread.sleep_event = None
        elif hasattr(blocked_on, "waiters"):
            waiters = blocked_on.waiters
            for entry in list(waiters):
                target = entry[0] if isinstance(entry, tuple) else entry
                if target is thread:
                    waiters.remove(entry)
                    break
        thread.blocked_on = None


#: exact-type syscall dispatch (see :meth:`Kernel._handle_syscall`);
#: maps each syscall type to the *name* of a ``Kernel`` method taking
#: ``(thread, request, base_cost)`` with ``base_cost`` already drawn
#: from the cost model.
_SYSCALL_HANDLERS = {
    GetTime: "_sys_get_time",
    GetCpu: "_sys_get_cpu",
    ClockNanosleep: "_sys_clock_nanosleep",
    CondWait: "_sys_cond_wait_costed",
    CondSignal: "_sys_cond_signal",
    CondBroadcast: "_sys_cond_broadcast",
    MutexLock: "_sys_mutex_lock",
    MutexUnlock: "_sys_mutex_unlock",
    TimerSettime: "_sys_timer_settime",
    Sigaction: "_sys_sigaction",
    SetSignalMask: "_sys_set_signal_mask",
    SchedSetScheduler: "_sys_setscheduler",
    SchedSetAffinity: "_sys_setaffinity",
    SchedYield: "_sys_sched_yield_costed",
    Spawn: "_sys_spawn",
    Exit: "_sys_exit",
}
