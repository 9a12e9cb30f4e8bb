"""The user-facing ``Task`` API (Section IV-C).

The paper implements a parallel-extended imprecise task as ``class Task``
with three primary member functions; this module is the Python analog:

* :meth:`Task.exec_mandatory` — the mandatory part,
* :meth:`Task.exec_optional` — one parallel optional part,
* :meth:`Task.exec_windup` — the wind-up part.

Each is a *generator* receiving a :class:`TaskContext` and yielding
simulated-kernel requests (usually ``ctx.compute(...)``).  Optional
parts must be written so that termination at any instant is safe: no
resource reservation, no lock acquisition — pure CPU-bound refinement,
exactly the restriction Section IV-D imposes on
``sigsetjmp``/``siglongjmp`` termination.  The timer-based strategies
cut a part in the middle of a ``Compute``; only the periodic-check
strategy waits for the part's next yield, so how finely a part yields
matters for its publish points and for periodic-check latency, and for
nothing else.

Results flow through :meth:`TaskContext.publish` /
:meth:`TaskContext.collect`: an optional part publishes whatever it has
refined so far; the wind-up part collects whatever the parts managed to
publish before completion or termination.  That is the
imprecise-computation contract — a terminated part contributes its
latest (lower-QoS) published value.
"""

from repro.simkernel.errors import SignalUnwind
from repro.simkernel.syscalls import Compute, GetCpu, GetTime


class TaskContext:
    """Per-job execution context handed to the part generators.

    Wraps the syscall vocabulary for user code and carries the
    publish/collect mailbox connecting optional parts to the wind-up
    part.

    :param any_time_termination: the running termination strategy's
        Table I flag — True when it can cut an optional part at any
        instant, so the part needs no check points.  The real-time
        process sets it from its strategy; the default (False) keeps
        the check points.
    """

    def __init__(self, task, job_index, release, optional_deadline,
                 deadline, any_time_termination=False):
        self.task = task
        self.job_index = job_index
        self.release = release
        self.optional_deadline = optional_deadline
        self.deadline = deadline
        self.any_time_termination = any_time_termination
        self._mailbox = {}
        #: free-form per-job scratch space: the mandatory part stashes
        #: inputs (e.g. the fetched market tick) here for the optional
        #: and wind-up parts.
        self.scratch = {}

    # -- syscall helpers (for readability in user code) ---------------------

    @staticmethod
    def compute(duration, tag=None):
        """CPU-bound work of ``duration`` nanoseconds."""
        return Compute(duration, tag=tag)

    @staticmethod
    def now():
        """Request the current simulated time."""
        return GetTime()

    @staticmethod
    def cpu():
        """Request the CPU id the caller runs on."""
        return GetCpu()

    # -- imprecise-computation mailbox ---------------------------------------

    def publish(self, part_index, value):
        """Record a part's latest (possibly partial) result.

        Safe at any point: assignment is atomic in the simulation, and a
        part terminated right after publishing simply leaves its latest
        value for the wind-up part.
        """
        self._mailbox[part_index] = value

    def collect(self):
        """All published results, keyed by part index (wind-up part)."""
        return dict(self._mailbox)


class Task:
    """A parallel-extended imprecise task (user subclass point).

    :param name: task name.
    :param period: period ``T`` in nanoseconds; ``D = T``.
    :param n_parallel: number of parallel optional parts ``np``.

    Subclasses override the three ``exec_*`` generators.  The default
    implementations do nothing (zero-length parts).

    The real-time process runs a job as a chain of :attr:`n_phases`
    mandatory parts with one stage of ``np`` parallel optional parts
    between consecutive parts, through :meth:`exec_mandatory_part` and
    :meth:`exec_optional_stage`.  The paper's task is the chain
    ``m -> o -> w``: phase 0 is :meth:`exec_mandatory`, phase 1
    :meth:`exec_windup` and stage 0 :meth:`exec_optional`.  Longer
    chains (the practical model) override the two chain hooks instead
    (:class:`~repro.core.practical.PracticalTask`).
    """

    #: mandatory parts per job ``K``; ``K - 1`` optional stages lie
    #: between them.
    n_phases = 2

    def __init__(self, name, period, n_parallel=1):
        if period <= 0:
            raise ValueError(f"{name}: period must be positive")
        if n_parallel < 1:
            raise ValueError(f"{name}: need at least one optional part")
        self.name = name
        self.period = float(period)
        self.deadline = float(period)
        self.n_parallel = n_parallel

    def exec_mandatory(self, ctx):
        """The mandatory part (generator).  Default: no work."""
        return
        yield  # pragma: no cover - makes this a generator

    def exec_optional(self, ctx, part_index):
        """One parallel optional part (generator).  Default: no work.

        Must be safe to terminate at any instant: CPU-bound work only,
        publish partial results via ``ctx.publish``.  A timer-based
        strategy cuts the part mid-``Compute``; the periodic-check
        strategy stops it at its next yield.
        """
        return
        yield  # pragma: no cover - makes this a generator

    def exec_windup(self, ctx):
        """The wind-up part (generator).  Default: no work."""
        return
        yield  # pragma: no cover - makes this a generator

    def exec_mandatory_part(self, ctx, phase):
        """Mandatory part ``phase`` of the chain (generator):
        :meth:`exec_mandatory`, then :meth:`exec_windup`."""
        if phase == 0:
            return self.exec_mandatory(ctx)
        return self.exec_windup(ctx)

    def exec_optional_stage(self, ctx, stage, part_index):
        """One optional part of ``stage`` (generator):
        :meth:`exec_optional` in the paper's single stage."""
        return self.exec_optional(ctx, part_index)

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.name!r} T={self.period:.0f} "
            f"np={self.n_parallel}>"
        )


def checked_chunk(name, chunk):
    """Validate a task's ``chunk`` argument: ``None`` or positive."""
    if chunk is None:
        return None
    chunk = float(chunk)
    if not chunk > 0:  # also refuses NaN
        raise ValueError(f"{name}: chunk must be positive, got {chunk}")
    return chunk


def refine(ctx, key, length, chunk, default_chunk, tag):
    """Issue ``length`` of optional work, publishing progress under ``key``.

    With ``chunk=None`` under a strategy that can cut the part at any
    instant (``ctx.any_time_termination``) the work is one ``Compute``:
    nothing needs a check point, and a terminated part publishes the
    work the kernel executed before the unwind.  Otherwise the work is
    issued in ``chunk`` steps (``default_chunk`` when ``chunk`` is
    ``None``), each a check point for the periodic-check strategy and a
    publish point; work in flight at termination is lost.
    """
    if chunk is None:
        if ctx.any_time_termination:
            if length > 0:
                try:
                    yield Compute(length, tag=tag)
                except SignalUnwind as unwind:
                    ctx.publish(key, length - unwind.abandoned)
                    raise
                ctx.publish(key, length)
            return
        chunk = default_chunk
    remaining = length
    progress = 0.0
    publish = ctx.publish
    while remaining > 0:
        step = chunk if chunk < remaining else remaining
        yield Compute(step, tag=tag)
        remaining -= step
        progress += step
        publish(key, progress)


class WorkloadTask(Task):
    """A synthetic task with fixed part lengths — the evaluation workload.

    Section V-A: ``m = 250 ms``, ``o = 1 s`` (every optional part always
    overruns), ``w = 250 ms``, ``T = 1 s``.  With the default
    ``chunk=None`` each optional part is one ``Compute`` when the
    termination strategy can cut it at any instant (sigsetjmp,
    try-catch), and ``optional / 100`` chunks otherwise, so the
    periodic-check strategy has check points.  An explicit ``chunk`` is
    a refinement step under every strategy: progress is published after
    each step (see :func:`refine`).

    :param mandatory: mandatory WCET (ns).
    :param optional: per-part optional execution time (ns).
    :param windup: wind-up WCET (ns).
    :param chunk: optional refinement step (ns), or ``None``.
    """

    def __init__(self, name, mandatory, optional, windup, period,
                 n_parallel=1, chunk=None):
        super().__init__(name, period, n_parallel=n_parallel)
        if mandatory <= 0 or windup <= 0:
            raise ValueError(f"{name}: mandatory/wind-up must be positive")
        if optional < 0:
            raise ValueError(f"{name}: optional must be >= 0")
        self.mandatory = float(mandatory)
        self.optional = float(optional)
        self.windup = float(windup)
        self.chunk = checked_chunk(name, chunk)

    def exec_mandatory(self, ctx):
        yield ctx.compute(self.mandatory, tag="mandatory")

    def exec_optional(self, ctx, part_index):
        return refine(ctx, part_index, self.optional, self.chunk,
                      max(self.optional / 100.0, 1.0),
                      f"optional[{part_index}]")

    def exec_windup(self, ctx):
        yield ctx.compute(self.windup, tag="windup")

    def to_model(self):
        """The analytic model of this task (for OD/schedulability)."""
        from repro.model.task_model import ParallelExtendedImpreciseTask

        return ParallelExtendedImpreciseTask(
            self.name,
            self.mandatory,
            [self.optional] * self.n_parallel,
            self.windup,
            self.period,
        )
