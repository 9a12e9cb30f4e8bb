"""Periodic and imprecise-computation task models (Section II).

All times are in the same unit as the simulated kernel (nanoseconds by
convention), but the models are unit-agnostic — analysis only relies on
ratios and comparisons.
"""


class PeriodicTask:
    """Liu & Layland periodic task: WCET ``C`` every period ``T``.

    :param name: identifier.
    :param wcet: worst-case execution time ``C``.
    :param period: period ``T`` (implicit deadline ``D = T`` by default).
    :param deadline: relative deadline ``D`` (constrained: ``D <= T``).
    """

    def __init__(self, name, wcet, period, deadline=None):
        if wcet <= 0:
            raise ValueError(f"{name}: WCET must be positive, got {wcet}")
        if period <= 0:
            raise ValueError(f"{name}: period must be positive, got {period}")
        deadline = period if deadline is None else deadline
        if not 0 < deadline <= period:
            raise ValueError(
                f"{name}: deadline {deadline} must be in (0, period={period}]"
            )
        if wcet > deadline:
            raise ValueError(
                f"{name}: WCET {wcet} exceeds deadline {deadline}"
            )
        self.name = name
        self.wcet = float(wcet)
        self.period = float(period)
        self.deadline = float(deadline)

    @property
    def utilization(self):
        """``U = C / T``."""
        return self.wcet / self.period

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.name!r}, C={self.wcet}, "
            f"T={self.period})"
        )


class ImpreciseTask(PeriodicTask):
    """Classic imprecise computation model: mandatory + optional.

    The mandatory part affects correctness; the optional part only
    affects QoS and runs after the mandatory part.  There is no wind-up
    part, which is why the model is impractical: terminating the optional
    part at an arbitrary point leaves no guaranteed time to produce a
    usable result (Section I).

    Only the mandatory part counts toward :attr:`utilization` (the
    optional part is not real-time work).
    """

    def __init__(self, name, mandatory, optional, period, deadline=None):
        if optional < 0:
            raise ValueError(f"{name}: optional time must be >= 0")
        super().__init__(name, mandatory, period, deadline)
        self.mandatory = float(mandatory)
        self.optional = float(optional)

    @property
    def optional_utilization(self):
        """``U^o = o / T`` — QoS demand, excluded from ``U``."""
        return self.optional / self.period


class ExtendedImpreciseTask(PeriodicTask):
    """Extended imprecise computation model: mandatory + optional + wind-up.

    ``C = m + w``; the optional part is non-real-time and excluded from
    the WCET.  The wind-up part is released when the optional part
    completes or is terminated at the optional deadline, and must finish
    by the deadline.

    :param mandatory: WCET ``m`` of the mandatory part.
    :param optional: execution time ``o`` of the optional part (its QoS
        demand; actual execution may be cut short).
    :param windup: WCET ``w`` of the wind-up part.
    """

    def __init__(self, name, mandatory, optional, windup, period,
                 deadline=None):
        if mandatory <= 0:
            raise ValueError(f"{name}: mandatory WCET must be positive")
        if windup <= 0:
            raise ValueError(f"{name}: wind-up WCET must be positive")
        if optional < 0:
            raise ValueError(f"{name}: optional time must be >= 0")
        super().__init__(name, mandatory + windup, period, deadline)
        self.mandatory = float(mandatory)
        self.optional = float(optional)
        self.windup = float(windup)

    @property
    def optional_utilization(self):
        """``U^o = o / T``."""
        return self.optional / self.period

    def as_parallel(self, n_parallel=1):
        """Lift into the parallel-extended model with ``n_parallel`` equal
        optional parts (each of the full optional length, matching the
        paper's evaluation where every ``o_{1,k}`` equals ``o_1``)."""
        return ParallelExtendedImpreciseTask(
            self.name,
            self.mandatory,
            [self.optional] * n_parallel,
            self.windup,
            self.period,
            self.deadline,
        )


class ParallelExtendedImpreciseTask(PeriodicTask):
    """The paper's parallel-extended imprecise computation model.

    ``np_i`` parallel optional parts execute between the mandatory and
    wind-up parts; each is completed, terminated, or discarded
    independently.  With a single optional part the model degenerates to
    :class:`ExtendedImpreciseTask` (Section II-A).

    :param optionals: sequence of per-part execution times ``o_{i,k}``.
    """

    def __init__(self, name, mandatory, optionals, windup, period,
                 deadline=None):
        if mandatory <= 0:
            raise ValueError(f"{name}: mandatory WCET must be positive")
        if windup <= 0:
            raise ValueError(f"{name}: wind-up WCET must be positive")
        optionals = [float(o) for o in optionals]
        if not optionals:
            raise ValueError(f"{name}: need at least one optional part")
        if any(o < 0 for o in optionals):
            raise ValueError(f"{name}: optional times must be >= 0")
        super().__init__(name, mandatory + windup, period, deadline)
        self.mandatory = float(mandatory)
        self.optionals = optionals
        self.windup = float(windup)

    @property
    def n_parallel(self):
        """``np_i`` — the number of parallel optional parts."""
        return len(self.optionals)

    @property
    def optional_utilization(self):
        """``U^o_i = sum_k o_{i,k} / T_i`` (Section II-A)."""
        return sum(self.optionals) / self.period

    def as_extended(self):
        """Collapse to the extended model (serialized optional work).

        Used by Theorem 1/2 property tests: mandatory/wind-up schedules
        must be identical between the two models.
        """
        return ExtendedImpreciseTask(
            self.name,
            self.mandatory,
            sum(self.optionals),
            self.windup,
            self.period,
            self.deadline,
        )


class TaskSet:
    """An ordered collection of tasks on ``n_processors`` processors.

    The paper assumes a synchronous task set (all tasks released at time
    zero) of ``n`` periodic independent tasks on ``M`` identical
    processors; the system utilization is ``U = (1/M) * sum U_i``.
    """

    def __init__(self, tasks, n_processors=1):
        tasks = list(tasks)
        if not tasks:
            raise ValueError("task set must not be empty")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names: {names}")
        if n_processors < 1:
            raise ValueError("need at least one processor")
        self.tasks = tasks
        self.n_processors = n_processors

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self):
        return len(self.tasks)

    def __getitem__(self, index):
        return self.tasks[index]

    @property
    def total_utilization(self):
        """``sum_i U_i`` (not divided by M)."""
        return sum(t.utilization for t in self.tasks)

    @property
    def system_utilization(self):
        """``U = (1/M) * sum_i U_i``."""
        return self.total_utilization / self.n_processors

    @property
    def hyperperiod(self):
        """Least common multiple of periods (periods must be integral)."""
        from math import lcm

        periods = []
        for task in self.tasks:
            if task.period != int(task.period):
                raise ValueError(
                    f"{task.name}: hyperperiod needs integral periods "
                    f"(got {task.period})"
                )
            periods.append(int(task.period))
        return float(lcm(*periods))

    def __repr__(self):
        return (
            f"TaskSet({len(self.tasks)} tasks, M={self.n_processors}, "
            f"U={self.system_utilization:.3f})"
        )
