"""Seeded scenario generation for the differential checker.

A :class:`Scenario` is pure data: a machine size, a list of
:class:`ScenarioTask` entries (part lengths, CPU placement, job count,
explicit optional deadline) and an optional fault plan.  It is
JSON-round-trippable, so a failing scenario — usually one the shrinker
minimized — can be committed as a replayable repro artifact.

Generation reuses the repo's existing machinery end to end:

* :class:`repro.model.generator.TaskSetGenerator` draws random
  parallel-extended task sets (UUniFast utilizations, harmonic periods
  so hyperperiods stay small);
* :meth:`repro.sched.rmwp.RMWP.is_schedulable` filters each per-CPU
  partition, so generated scenarios meet every deadline on both the
  theory simulator and the middleware — any miss is a finding, not
  noise;
* :func:`repro.model.optional_deadline.optional_deadlines_rmwp` fixes
  the per-task optional deadlines *once at generation time*.  Both
  execution backends consume the stored values, which keeps a shrunk
  scenario (fewer tasks => laxer ODs) byte-comparable to its parent.

Two structural rules keep the middleware lock-steppable against theory
(both rooted in EXPERIMENTS.md §Deviations — the Figure 6 protocol
starts the wind-up when every optional part *ends*, while RMWP pegs it
to the OD):

* **Overrun clamping.**  Multi-task scenarios clamp every optional
  part to at least the task's OD, so parts never complete early and
  both backends wind up exactly at the OD.  Single-task scenarios may
  draw early-completing parts, where the differ applies the documented
  early-wind-up tolerance instead (:mod:`repro.check.differential`).
* **Task-owned optional CPUs.**  Every optional CPU hosts parts of
  exactly one task and no task's RT-band work.  The middleware arms a
  part's termination timer only once the part thread first gets the
  CPU (Figure 6 calls ``timer_settime`` *inside* the optional thread);
  a part starved past its OD by *another task* therefore wakes
  arbitrarily late and delays the wind-up, while the theory simulator
  discards it at the OD — deadline outcomes genuinely differ.  On a
  task-owned CPU the only contention is between sibling parts of one
  job: the starved sibling is freed exactly at the OD (when the
  running sibling is terminated) and dies instantly, which both
  backends canonicalize to the same ``part_dead`` event — and *which*
  sibling runs first stays sensitive to the kernel's FIFO tie-break,
  so ordering bugs remain observable.  Cross-task interference is
  still exercised where the theory is exact: the mandatory/wind-up RT
  band on the shared RT CPUs.
"""

import numpy as np

from repro.core.task import Task
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hardware.xeonphi import XEON_PHI_3120A
from repro.model.generator import TaskSetGenerator
from repro.model.optional_deadline import optional_deadlines_rmwp
from repro.model.task_model import ParallelExtendedImpreciseTask
from repro.sched.rmwp import RMWP
from repro.simkernel.time_units import MSEC

SCHEMA = "repro-check/1"

#: Harmonic period menu (ns): small hyperperiods, mixed rates.
PERIOD_MENU = (50 * MSEC, 100 * MSEC, 200 * MSEC, 400 * MSEC)

#: Kernel-side fault sites that are safe for oracle-only runs: they
#: perturb timing (late terminations, spurious wakeups) but never break
#: the scheduling invariants the oracles assert.
FAULT_SITE_MENU = ("signal_delay", "timer_drift", "spurious_wakeup")

def derive_run_seed(base_seed, index):
    """Independent scenario seed for run ``index`` of a batch.

    Batches used to seed run ``k`` with ``base_seed + k``: adjacent
    batches overlapped almost entirely (base 5 and base 6 share 49 of
    50 scenario streams) and a run's identity leaked out of its own
    index.  Deriving through ``SeedSequence(entropy=base_seed,
    spawn_key=(index,))`` makes run ``k``'s stream a pure, well-mixed
    function of ``(base_seed, index)`` — equivalent to
    ``SeedSequence(base_seed).spawn(n)[k]`` but computable for any
    ``k`` in isolation, which is what lets the farm hand indices to
    workers in any partition without perturbing a single scenario
    (``docs/FARM.md``).  Pinned by ``tests/farm/test_seeds.py``.
    """
    sequence = np.random.SeedSequence(entropy=int(base_seed),
                                      spawn_key=(int(index),))
    return int(sequence.generate_state(1, np.uint32)[0])


class ScenarioTask:
    """One parallel-extended task of a scenario (data only).

    All times are simulated nanoseconds; ``optional_deadline`` is
    relative to the release, as in the task model.
    """

    __slots__ = ("name", "mandatory", "optionals", "windup", "period",
                 "cpu", "optional_cpus", "n_jobs", "optional_deadline")

    def __init__(self, name, mandatory, optionals, windup, period, cpu,
                 optional_cpus, n_jobs, optional_deadline):
        if len(optional_cpus) != len(optionals):
            raise ValueError(
                f"{name}: {len(optional_cpus)} optional CPUs for "
                f"{len(optionals)} parts"
            )
        if n_jobs < 1:
            raise ValueError(f"{name}: need at least one job")
        self.name = name
        self.mandatory = float(mandatory)
        self.optionals = [float(o) for o in optionals]
        self.windup = float(windup)
        self.period = float(period)
        self.cpu = int(cpu)
        self.optional_cpus = [int(c) for c in optional_cpus]
        self.n_jobs = int(n_jobs)
        self.optional_deadline = float(optional_deadline)

    @property
    def n_parallel(self):
        return len(self.optionals)

    def to_model(self):
        return ParallelExtendedImpreciseTask(
            self.name, self.mandatory, self.optionals, self.windup,
            self.period,
        )

    def to_dict(self):
        return {
            "name": self.name,
            "mandatory": self.mandatory,
            "optionals": list(self.optionals),
            "windup": self.windup,
            "period": self.period,
            "cpu": self.cpu,
            "optional_cpus": list(self.optional_cpus),
            "n_jobs": self.n_jobs,
            "optional_deadline": self.optional_deadline,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def __repr__(self):
        return (
            f"<ScenarioTask {self.name!r} m={self.mandatory:.0f} "
            f"np={self.n_parallel} T={self.period:.0f} "
            f"cpu={self.cpu} jobs={self.n_jobs}>"
        )


class Scenario:
    """A complete differential-check input (data only).

    :param seed: the generator seed this scenario came from (``None``
        for hand-written or shrunk scenarios — provenance only).
    :param n_cpus: machine width (single-thread cores, uniform share).
    :param start_time: absolute first release, identical for every task
        so middleware time minus ``start_time`` equals simulator time.
    :param tasks: list of :class:`ScenarioTask`.
    :param fault_plan: optional fault-plan dict
        (:meth:`repro.faults.plan.FaultPlan.to_dict` shape).  Faulted
        scenarios run oracle checks only — injected timing faults make
        the theory simulator an invalid reference — and so do scenarios
        without :attr:`task_owned_optional_cpus`.
    """

    __slots__ = ("seed", "n_cpus", "start_time", "tasks", "fault_plan")

    def __init__(self, n_cpus, start_time, tasks, seed=None,
                 fault_plan=None):
        self.seed = seed
        self.n_cpus = int(n_cpus)
        self.start_time = float(start_time)
        self.tasks = list(tasks)
        self.fault_plan = fault_plan
        names = [task.name for task in self.tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names: {names}")
        for task in self.tasks:
            cpus = [task.cpu, *task.optional_cpus]
            if any(not 0 <= cpu < self.n_cpus for cpu in cpus):
                raise ValueError(
                    f"{task.name}: CPU out of range for {self.n_cpus} CPUs"
                )

    @property
    def has_faults(self):
        return bool(self.fault_plan and self.fault_plan.get("specs"))

    @property
    def task_owned_optional_cpus(self):
        """The theory differential's precondition (module docstring):
        every optional CPU hosts parts of one task only and no task's
        RT-band work."""
        rt_cpus = {task.cpu for task in self.tasks}
        owners = {}
        for task in self.tasks:
            for cpu in task.optional_cpus:
                if (cpu in rt_cpus
                        or owners.setdefault(cpu, task.name) != task.name):
                    return False
        return True

    def build_fault_plan(self):
        """The live :class:`~repro.faults.plan.FaultPlan` (or ``None``)."""
        if not self.has_faults:
            return None
        return FaultPlan.from_dict(self.fault_plan)

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "n_cpus": self.n_cpus,
            "start_time": self.start_time,
            "tasks": [task.to_dict() for task in self.tasks],
            "fault_plan": self.fault_plan,
        }

    @classmethod
    def from_dict(cls, data):
        schema = data.get("schema", SCHEMA)
        if schema != SCHEMA:
            raise ValueError(f"unknown scenario schema {schema!r}")
        return cls(
            n_cpus=data["n_cpus"],
            start_time=data["start_time"],
            tasks=[ScenarioTask.from_dict(t) for t in data["tasks"]],
            seed=data.get("seed"),
            fault_plan=data.get("fault_plan"),
        )

    def __repr__(self):
        fault = " faults" if self.has_faults else ""
        return (
            f"<Scenario seed={self.seed} cpus={self.n_cpus} "
            f"tasks={len(self.tasks)}{fault}>"
        )


class CheckTask(Task):
    """Runtime form of a :class:`ScenarioTask` for the middleware.

    Unlike :class:`repro.core.task.WorkloadTask` the optional parts have
    *heterogeneous* lengths.  Each part is issued as a single compute
    chunk: the fuzzer always runs the sigsetjmp strategy, which
    terminates mid-compute, so finer chunking would only inflate the
    event count.
    """

    def __init__(self, spec):
        super().__init__(spec.name, spec.period,
                         n_parallel=spec.n_parallel)
        self.spec = spec

    def exec_mandatory(self, ctx):
        yield ctx.compute(self.spec.mandatory, tag="mandatory")

    def exec_optional(self, ctx, part_index):
        length = self.spec.optionals[part_index]
        if length > 0:
            yield ctx.compute(length, tag=f"optional[{part_index}]")
            ctx.publish(part_index, length)

    def exec_windup(self, ctx):
        yield ctx.compute(self.spec.windup, tag="windup")

    def to_model(self):
        return self.spec.to_model()


def _assign_partitions(rng, models, rt_cpus, max_attempts=64):
    """Random task -> RT-CPU map with every partition RMWP-schedulable."""
    for _ in range(max_attempts):
        assignment = {
            model.name: int(rng.choice(rt_cpus)) for model in models
        }
        by_cpu = {}
        for model in models:
            by_cpu.setdefault(assignment[model.name], []).append(model)
        if all(RMWP.is_schedulable(group) for group in by_cpu.values()):
            return assignment
    return None


def generate_scenario(seed, fault_rate=0.0, fault_sites=FAULT_SITE_MENU):
    """Draw one random scenario from ``seed`` (deterministically).

    :param fault_rate: probability the scenario carries a fault plan
        (such scenarios run oracle checks only, not the differential).
    :param fault_sites: menu the fault plan draws from (default
        :data:`FAULT_SITE_MENU`, the oracle-safe kernel sites).
    """
    rng = np.random.default_rng(seed)
    for attempt in range(128):
        scenario = _try_generate(rng, seed, fault_rate, fault_sites)
        if scenario is not None:
            return scenario
    raise RuntimeError(f"seed {seed}: no schedulable scenario in 128 draws")


def _try_generate(rng, seed, fault_rate, fault_sites=FAULT_SITE_MENU):
    n_cpus = int(rng.integers(2, 5))
    # RT band on the low CPUs, one dedicated CPU per optional part on
    # the rest (see module docstring).  Bias toward a single shared RT
    # CPU: that is where cross-task interference lives.
    if n_cpus > 2 and rng.random() >= 0.6:
        n_rt = int(rng.integers(1, n_cpus - 1)) + 1
    else:
        n_rt = 1
    rt_cpus = list(range(n_rt))
    nrt_cpus = list(range(n_rt, n_cpus))

    # every task needs >= 1 part and every part its own CPU
    n_tasks = int(rng.integers(1, len(nrt_cpus) + 1))
    early_mode = n_tasks == 1 and rng.random() < 0.3
    # high enough that releases land mid-execution (preemption
    # pressure); the schedulability filter rejects overloaded draws
    total_utilization = float(rng.uniform(0.3, 0.65)) * min(
        n_tasks, n_rt
    )

    generator = TaskSetGenerator(
        seed=int(rng.integers(0, 2**31)),
        harmonic_periods=PERIOD_MENU,
    )
    base = generator.extended_task_set(
        n_tasks, total_utilization, n_processors=n_rt,
    )

    # hand each task 1-3 of the optional CPUs; a task may then run TWO
    # parts on one of its CPUs (tie-break-sensitive sibling contention)
    spare = len(nrt_cpus) - n_tasks
    own_counts = []
    n_parts = []
    for _ in base:
        extra = int(rng.integers(0, min(spare, 2) + 1))
        spare -= extra
        own = 1 + extra
        own_counts.append(own)
        shared = 1 if own < 3 and rng.random() < 0.35 else 0
        n_parts.append(own + shared)

    models = []
    for task, n_parallel in zip(base, n_parts):
        models.append(ParallelExtendedImpreciseTask(
            task.name,
            task.mandatory,
            [task.optional / n_parallel] * n_parallel,
            task.windup,
            task.period,
        ))

    assignment = _assign_partitions(rng, models, rt_cpus)
    if assignment is None:
        return None

    by_cpu = {}
    for model in models:
        by_cpu.setdefault(assignment[model.name], []).append(model)
    deadlines = {}
    for group in by_cpu.values():
        deadlines.update(optional_deadlines_rmwp(group))

    max_period = max(model.period for model in models)
    horizon = max_period * int(rng.integers(1, 3))

    cpu_pool = list(nrt_cpus)
    rng.shuffle(cpu_pool)
    tasks = []
    for model, own in zip(models, own_counts):
        own_cpus = [cpu_pool.pop() for _ in range(own)]
        od = deadlines[model.name]
        optionals = []
        for length in model.optionals:
            length *= float(rng.uniform(0.7, 1.4))
            if early_mode:
                # draw around the uninterfered slack (od - m) so parts
                # both complete early and overrun across jobs
                length = float(rng.uniform(0.2, 1.5)) * max(
                    od - model.mandatory, 1.0
                )
            else:
                # clamp to always overrun: the early-wind-up deviation
                # tolerance is only sound without cross-task interference
                length = max(length, od)
            optionals.append(length)
        # parts beyond the task's own CPUs double up on its first CPU
        optional_cpus = [
            own_cpus[index] if index < own else own_cpus[0]
            for index in range(len(optionals))
        ]
        tasks.append(
            ScenarioTask(
                name=model.name,
                mandatory=model.mandatory,
                optionals=optionals,
                windup=model.windup,
                period=model.period,
                cpu=assignment[model.name],
                optional_cpus=optional_cpus,
                n_jobs=max(1, int(round(horizon / model.period))),
                optional_deadline=od,
            )
        )

    fault_plan = None
    if fault_rate > 0 and rng.random() < fault_rate:
        fault_plan = _draw_fault_plan(rng, seed, max_period, fault_sites)

    return Scenario(
        n_cpus=n_cpus,
        start_time=max_period,
        tasks=tasks,
        seed=int(seed),
        fault_plan=fault_plan,
    )


def generate_core_scenario(seed,
                           threads_per_core=XEON_PHI_3120A.threads_per_core,
                           n_tasks=8, utilization=0.5, horizon_periods=2):
    """One *core* of the paper's platform (deterministic).

    Core-shaped check batches (``repro check --tasks-per-core K``)
    exploit what partitioned RMWP guarantees by construction: cores
    are independent once the per-core partitions are schedulable, so
    a 57-core machine is 57 of these scenarios with independent seeds.
    The layout maps one core's hardware threads the way the paper pins
    the middleware: CPU 0 is the RT hardware thread (every
    mandatory/wind-up part), CPUs ``1..threads_per_core-1`` are the
    NRT band where the optional parts run (with ``threads_per_core ==
    1`` the optional parts share CPU 0 — legal, the NRT band just sits
    under the RT priorities).

    Unlike :func:`generate_scenario` the optional CPUs are *shared
    across tasks* once a core holds more tasks than NRT threads, and
    then the scenario lacks :attr:`Scenario.task_owned_optional_cpus`
    and runs oracle-only; the kernel-trace/protocol/final-state
    oracles remain exact.  Optional lengths are clamped to always
    overrun, which keeps per-job work independent of NRT contention.

    The draw is retried until the core's task group passes
    :meth:`RMWP.is_schedulable`; callers may assert admissibility but
    never need to filter.
    """
    if threads_per_core < 1:
        raise ValueError(f"threads_per_core must be >= 1, "
                         f"got {threads_per_core}")
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    rng = np.random.default_rng(seed)
    for _attempt in range(128):
        scenario = _try_generate_core(rng, seed, threads_per_core,
                                      n_tasks, utilization,
                                      horizon_periods)
        if scenario is not None:
            return scenario
    raise RuntimeError(
        f"seed {seed}: no RMWP-schedulable {n_tasks}-task core "
        f"scenario in 128 draws (utilization {utilization})"
    )


def _try_generate_core(rng, seed, threads_per_core, n_tasks,
                       utilization, horizon_periods):
    generator = TaskSetGenerator(
        seed=int(rng.integers(0, 2**31)),
        harmonic_periods=PERIOD_MENU,
    )
    base = generator.extended_task_set(n_tasks, float(utilization),
                                       n_processors=1)
    models = [
        ParallelExtendedImpreciseTask(
            task.name, task.mandatory, [task.optional], task.windup,
            task.period,
        )
        for task in base
    ]
    if not RMWP.is_schedulable(models):
        return None
    deadlines = optional_deadlines_rmwp(models)

    max_period = max(model.period for model in models)
    horizon = max_period * max(1, int(horizon_periods))
    nrt_cpus = (list(range(1, threads_per_core))
                if threads_per_core > 1 else [0])

    tasks = []
    for index, model in enumerate(models):
        od = deadlines[model.name]
        # always overrun (see docstring): executed length >= OD
        length = max(model.optionals[0], od)
        tasks.append(
            ScenarioTask(
                name=model.name,
                mandatory=model.mandatory,
                optionals=[length],
                windup=model.windup,
                period=model.period,
                cpu=0,
                optional_cpus=[nrt_cpus[index % len(nrt_cpus)]],
                n_jobs=max(1, int(round(horizon / model.period))),
                optional_deadline=od,
            )
        )
    return Scenario(
        n_cpus=threads_per_core,
        start_time=max_period,
        tasks=tasks,
        seed=int(seed),
    )


def _draw_fault_plan(rng, seed, max_period, sites=FAULT_SITE_MENU):
    specs = []
    for site in sites:
        if rng.random() < 0.5:
            continue
        params = {}
        end = None
        if site == "signal_delay":
            params["delay"] = float(rng.uniform(0.1, 2.0) * MSEC)
        elif site == "timer_drift":
            params["skew"] = float(rng.uniform(0.1, 2.0) * MSEC)
        elif site == "cpu_stall":
            params["factor"] = float(rng.uniform(1.2, 3.0))
        elif site == "core_throttle":
            params["factor"] = float(rng.uniform(0.3, 0.9))
            params["cores"] = [0]
            # a bounded window so the restore path (set_core_speed back
            # to the original rate mid-run) is exercised too
            end = float(rng.uniform(2.0, 6.0)) * max_period
        specs.append(
            FaultSpec(
                site,
                start=0.0,
                end=end,
                probability=float(rng.uniform(0.2, 0.8)),
                **params,
            ).to_dict()
        )
    if not specs:
        return None
    return FaultPlan(
        specs, seed=int(rng.integers(0, 2**31)),
        name=f"check-{seed}",
    ).to_dict()
