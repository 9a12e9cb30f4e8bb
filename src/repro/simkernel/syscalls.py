"""Syscall request vocabulary.

Simulated user-space code is written as Python generator coroutines that
``yield`` instances of these request classes; the kernel performs the
effect and resumes the generator with the result.  The vocabulary mirrors
the POSIX calls the paper's implementation uses (Figures 6 and 7):

====================  =================================================
paper / POSIX          request class
====================  =================================================
``sched_setscheduler`` :class:`SchedSetScheduler`
``sched_setaffinity``  :class:`SchedSetAffinity`
``sched_getcpu``       :class:`GetCpu`
``clock_nanosleep``    :class:`ClockNanosleep` (``TIMER_ABSTIME``)
``pthread_cond_wait``  :class:`CondWait`
``pthread_cond_signal``:class:`CondSignal`
``pthread_mutex_*``    :class:`MutexLock` / :class:`MutexUnlock`
``timer_settime``      :class:`TimerSettime`
``sigaction``          :class:`Sigaction`
``sigprocmask``        :class:`SetSignalMask`
(CPU-bound work)       :class:`Compute`
====================  =================================================

The kernel reads a request and never stores or mutates it, so one
instance may be yielded many times: the middleware builds the requests
that carry no per-yield value once (its mutex, condvar and signal-mask
requests, and one shared :class:`GetTime`).
"""


class SyscallRequest:
    """Base class; exists so the kernel can type-check yields."""

    __slots__ = ()


class Compute(SyscallRequest):
    """Burn ``work`` nanoseconds of CPU time (at nominal core speed).

    Compute is the only *divisible* request: it can be preempted by a
    higher-priority thread, slowed by SMT sharing, and interrupted by
    signal delivery (which is how optional parts get terminated mid-work).
    ``tag`` labels the work for tracing.
    """

    __slots__ = ("work", "tag")

    def __init__(self, work, tag=None):
        if work < 0:
            raise ValueError(f"negative work: {work}")
        self.work = float(work)
        self.tag = tag

    def __repr__(self):
        return f"Compute({self.work:.0f}ns, tag={self.tag!r})"


class ClockNanosleep(SyscallRequest):
    """Sleep until absolute simulated time ``until`` (``TIMER_ABSTIME``)."""

    __slots__ = ("until",)

    def __init__(self, until):
        self.until = float(until)

    def __repr__(self):
        return f"ClockNanosleep(until={self.until:.0f})"


class CondWait(SyscallRequest):
    """``pthread_cond_wait``: atomically release ``mutex`` and block.

    The mutex must be held by the calling thread; it is re-acquired before
    the call returns, exactly as POSIX requires (Mesa semantics — callers
    must re-check their predicate).
    """

    __slots__ = ("cond", "mutex")

    def __init__(self, cond, mutex):
        self.cond = cond
        self.mutex = mutex


class CondSignal(SyscallRequest):
    """``pthread_cond_signal``: wake one waiter (FIFO order).

    The paper deliberately uses ``pthread_cond_signal`` rather than
    ``pthread_cond_broadcast`` so that individual parallel optional parts
    can be woken (or left discarded) independently.
    """

    __slots__ = ("cond",)

    def __init__(self, cond):
        self.cond = cond


class CondBroadcast(SyscallRequest):
    """``pthread_cond_broadcast``: wake every waiter.

    Provided for completeness — Section IV-C explains why RT-Seed does
    *not* use it: a broadcast cannot leave individual optional parts
    discarded, so every part would be woken whether or not there is
    time for it.
    """

    __slots__ = ("cond",)

    def __init__(self, cond):
        self.cond = cond


class MutexLock(SyscallRequest):
    """Acquire a mutex, blocking FIFO if contended."""

    __slots__ = ("mutex",)

    def __init__(self, mutex):
        self.mutex = mutex


class MutexUnlock(SyscallRequest):
    """Release a mutex owned by the calling thread."""

    __slots__ = ("mutex",)

    def __init__(self, mutex):
        self.mutex = mutex


class TimerSettime(SyscallRequest):
    """Arm (absolute one-shot) or disarm a :class:`~repro.simkernel.timers.KTimer`.

    ``at=None`` disarms — the ``timer_settime(timer_id, 0, &stop_itval, ...)``
    call in Figure 7.
    """

    __slots__ = ("timer", "at")

    def __init__(self, timer, at):
        self.timer = timer
        self.at = None if at is None else float(at)


class Sigaction(SyscallRequest):
    """Install a disposition for ``signum`` on the calling thread."""

    __slots__ = ("signum", "disposition")

    def __init__(self, signum, disposition):
        self.signum = signum
        self.disposition = disposition


class SetSignalMask(SyscallRequest):
    """Replace the calling thread's blocked-signal set."""

    __slots__ = ("mask",)

    def __init__(self, mask):
        self.mask = frozenset(mask)


class SchedSetScheduler(SyscallRequest):
    """Set the calling thread's policy and SCHED_FIFO priority."""

    __slots__ = ("policy", "priority")

    def __init__(self, policy, priority):
        self.policy = policy
        self.priority = priority


class SchedSetAffinity(SyscallRequest):
    """Pin a thread (the caller, or ``thread`` if given) to one CPU."""

    __slots__ = ("cpu", "thread")

    def __init__(self, cpu, thread=None):
        self.cpu = int(cpu)
        self.thread = thread


class SchedYield(SyscallRequest):
    """Yield the CPU to the tail of the caller's priority level."""

    __slots__ = ()


class GetCpu(SyscallRequest):
    """Return the CPU the calling thread is running on."""

    __slots__ = ()


class GetTime(SyscallRequest):
    """Return the current simulated time (``clock_gettime``)."""

    __slots__ = ()


class Exit(SyscallRequest):
    """Terminate the calling thread immediately."""

    __slots__ = ()


class Spawn(SyscallRequest):
    """Create and start a new kernel thread.

    :param thread: a not-yet-started :class:`~repro.simkernel.thread.KernelThread`.
    """

    __slots__ = ("thread",)

    def __init__(self, thread):
        self.thread = thread
