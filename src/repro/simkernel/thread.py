"""Kernel threads: coroutine bodies plus scheduling state."""

import enum

from repro.simkernel.errors import SchedulingError
from repro.simkernel.runqueue import MAX_RT_PRIO, MIN_RT_PRIO


class SchedPolicy(enum.Enum):
    """Scheduling class.  RT-Seed only ever uses ``FIFO``; ``OTHER`` exists
    for completeness (explicit background threads in tests)."""

    FIFO = "SCHED_FIFO"
    OTHER = "SCHED_OTHER"


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    TERMINATED = "terminated"


class KernelThread:
    """A simulated thread.

    :param name: diagnostic name.
    :param body: either a generator (already instantiated) or a callable
        returning one when invoked with the thread as its argument.  The
        generator yields :mod:`repro.simkernel.syscalls` requests.
    :param cpu: CPU affinity (a single CPU id; the paper pins every thread).
    :param priority: SCHED_FIFO priority in ``[1, 99]``; ignored for OTHER.
    :param policy: scheduling class.
    """

    def __init__(
        self,
        name,
        body,
        cpu=0,
        priority=MIN_RT_PRIO,
        policy=SchedPolicy.FIFO,
    ):
        if policy is SchedPolicy.FIFO and not MIN_RT_PRIO <= priority <= MAX_RT_PRIO:
            raise SchedulingError(
                f"FIFO priority {priority} outside [{MIN_RT_PRIO}, {MAX_RT_PRIO}]"
            )
        #: assigned by :meth:`Kernel.spawn` from a per-kernel counter, so
        #: same-seed runs in one process get identical tids.
        self.tid = None
        self.name = name
        self._body = body
        self.gen = None
        self.cpu = cpu
        self.priority = priority
        self.policy = policy
        self.state = ThreadState.NEW

        # --- kernel bookkeeping (owned by Kernel) -------------------------
        #: remaining divisible work of the in-flight Compute, in work-ns.
        self.work_remaining = 0.0
        #: remaining kernel-latency to serve before/around the work, in
        #: wall-ns.  Latency (context switches, signal sends, cache-line
        #: transfers) is memory/syscall bound and burns at wall rate,
        #: immune to SMT pipeline sharing — unlike ``work_remaining``.
        self.latency_remaining = 0.0
        #: current execution rate (work-ns per sim-ns), set while computing.
        self.rate = 0.0
        #: last time work was charged against ``work_remaining``.
        self.last_charge = 0.0
        #: pending completion event for the in-flight Compute.
        self.completion_event = None
        #: value to send into the generator at next resume.
        self.resume_value = None
        #: exception to throw into the generator at next resume (takes
        #: precedence over ``resume_value``).
        self.resume_exception = None
        #: what the thread is blocked on (diagnostics): a CondVar, Mutex,
        #: a ("sleep", until) tuple, ...
        self.blocked_on = None
        #: wake-up event for ClockNanosleep.
        self.sleep_event = None
        #: per-thread event callbacks, pre-bound once by
        #: :meth:`Kernel.spawn` — completion, wake and sleep-expiry
        #: events are (re)scheduled constantly, and binding at spawn
        #: hoists the ``partial`` allocation out of the hot path.
        self._complete_cb = None
        self._ready_cb = None
        self._sleep_expire_cb = None

        # --- signal state --------------------------------------------------
        #: signum -> disposition (callable, UnwindDisposition, SIG_IGN, ...).
        self.signal_handlers = {}
        #: currently blocked signals.
        self.signal_mask = set()
        #: signals posted while blocked or not deliverable yet (FIFO).
        self.pending_signals = []

        # --- statistics -----------------------------------------------------
        #: total CPU time consumed (sim-ns of wall time while computing).
        self.cpu_time = 0.0
        #: number of times this thread was preempted.
        self.preemptions = 0
        #: number of context switches into this thread.
        self.dispatches = 0

    # -- generator management ----------------------------------------------

    def materialize(self):
        """Instantiate the coroutine body (kernel calls this at spawn)."""
        if self.gen is not None:
            return
        if callable(self._body) and not hasattr(self._body, "send"):
            self.gen = self._body(self)
        else:
            self.gen = self._body
        if not hasattr(self.gen, "send"):
            raise TypeError(
                f"thread body of {self.name!r} must be a generator "
                f"or a callable returning one, got {type(self.gen).__name__}"
            )

    # -- convenience predicates ----------------------------------------------

    @property
    def is_computing(self):
        """True while an in-flight Compute is charged to a CPU."""
        return self.completion_event is not None

    @property
    def alive(self):
        return self.state is not ThreadState.TERMINATED

    def effective_priority(self):
        """Priority used for run-queue placement.

        SCHED_OTHER threads are below every real-time level; the kernel
        models them with a pseudo-priority of 0 handled outside the FIFO
        run queue.
        """
        if self.policy is SchedPolicy.FIFO:
            return self.priority
        return 0

    def __repr__(self):
        return (
            f"<KernelThread tid={self.tid} {self.name!r} cpu={self.cpu} "
            f"prio={self.priority} {self.state.value}>"
        )
