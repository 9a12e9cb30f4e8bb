"""RT-Seed: the middleware runner (Section IV).

``RTSeed`` is the public entry point a trading application uses:

.. code-block:: python

    from repro.core import RTSeed, WorkloadTask
    from repro.simkernel.time_units import MSEC, SEC

    seed = RTSeed()                                  # Xeon Phi, no load
    task = WorkloadTask("tau1", 250 * MSEC, 1 * SEC, 250 * MSEC, 1 * SEC,
                        n_parallel=57)
    seed.add_task(task, n_jobs=100, policy="one_by_one")
    result = seed.run()
    print(result.tasks["tau1"].mean_delta_us("e"))

It owns the offline work the paper assigns to the middleware: computing
RM priorities inside the RTQ band (plus the HPQ for RM-US-heavy tasks),
per-partition optional deadlines via the P-RMWP plan (per-stage ones
for the practical model's longer chains), and parallel optional part
placement via the Figure 8 assignment policies.  At run time it merely
sets POSIX scheduling attributes and lets the (simulated) kernel
schedule — exactly the "no kernel modifications" claim.
"""

from repro.core.policies import AssignmentPolicy, get_policy
from repro.core.process import RealTimeProcess
from repro.core.task import Task
from repro.engine.classes import HPQ_PRIORITY, get_sched_class, rtq_priority
from repro.hardware.loads import BackgroundLoad, apply_load
from repro.hardware.overheads import XeonPhiCostModel
from repro.hardware.xeonphi import xeon_phi_topology
from repro.model.optional_deadline import windup_optional_deadline
from repro.model.practical import (
    PracticalImpreciseTask,
    practical_optional_deadlines,
)
from repro.sched.rmus import rm_us_threshold
from repro.simkernel.costmodel import ZeroCostModel
from repro.simkernel.kernel import Kernel


class TaskResult:
    """Per-task outcome of a middleware run."""

    def __init__(self, process):
        self.task = process.task
        self.process = process
        self.probes = process.probes

    def deltas_us(self, which):
        return self.process.deltas_us(which)

    def mean_delta_us(self, which):
        values = self.deltas_us(which)
        return sum(values) / len(values) if values else None

    def max_delta_us(self, which):
        values = self.deltas_us(which)
        return max(values) if values else None

    @property
    def deadline_misses(self):
        return self.process.deadline_misses

    @property
    def all_deadlines_met(self):
        return not self.deadline_misses

    @property
    def total_optional_time(self):
        return self.process.total_optional_time

    @property
    def fates(self):
        """Count of completed / terminated / discarded optional parts."""
        counts = {"completed": 0, "terminated": 0, "discarded": 0}
        for probe in self.probes:
            for fates in probe.stage_fates:
                for fate in fates:
                    counts[fate] += 1
        return counts


class RTSeedResult:
    """Outcome of :meth:`RTSeed.run`: per-task results plus kernel stats."""

    def __init__(self, tasks, kernel):
        self.tasks = tasks
        self.kernel = kernel

    @property
    def all_deadlines_met(self):
        return all(t.all_deadlines_met for t in self.tasks.values())

    def __repr__(self):
        met = "all deadlines met" if self.all_deadlines_met else "MISSES"
        return f"<RTSeedResult tasks={sorted(self.tasks)} {met}>"


class RTSeed:
    """The middleware.

    :param topology: machine to run on (default: Xeon Phi 3120A).
    :param load: background load condition (Section V-B).
    :param cost_model: overhead model; ``"xeonphi"`` (default) installs
        the calibrated model for ``load``, ``"zero"`` runs overhead-free
        (for functional tests), or pass any
        :class:`~repro.simkernel.costmodel.CostModel`.
    :param seed: noise seed for the calibrated model.
    :param use_hpq: reserve priority 99 for tasks whose utilization
        exceeds the RM-US threshold (footnote 1).
    :param watchdog: optional
        :class:`~repro.core.resilience.OverrunWatchdog` shared by every
        process; force-discards optional parts whose termination
        strategy fails to stop them.
    :param degrade: optional
        :class:`~repro.core.resilience.DegradedModeController` shared by
        every process — system-wide optional-part shedding under
        sustained deadline misses.
    """

    def __init__(self, topology=None, load=BackgroundLoad.NONE,
                 cost_model="xeonphi", seed=0, use_hpq=False,
                 watchdog=None, degrade=None):
        self.topology = topology if topology is not None \
            else xeon_phi_topology()
        self.load = load
        apply_load(self.topology, load)
        if cost_model == "xeonphi":
            cost_model = XeonPhiCostModel(self.topology, load, seed=seed)
        elif cost_model == "zero":
            cost_model = ZeroCostModel()
        self.kernel = Kernel(self.topology, cost_model=cost_model)
        self.use_hpq = use_hpq
        self.watchdog = watchdog
        self.degrade = degrade
        if degrade is not None and degrade.probes is None:
            degrade.probes = self.kernel.probes
        self._entries = []
        self._ran = False

    @property
    def probes(self):
        """The kernel's probe bus — subscribe tracers, metrics
        collectors, or trace exporters here before :meth:`run`."""
        return self.kernel.probes

    def add_task(self, task, n_jobs, cpu=0, policy="one_by_one",
                 optional_cpus=None, optional_deadline=None, model=None,
                 strategy=None, start_time=None):
        """Register a task.

        :param task: a :class:`repro.core.task.Task`.
        :param n_jobs: jobs to execute before the process retires.
        :param cpu: CPU for the mandatory thread.
        :param policy: assignment-policy name or instance for the
            parallel optional parts (ignored when ``optional_cpus``
            given).
        :param optional_cpus: explicit per-part CPU list.
        :param optional_deadline: relative OD, or the ``K - 1`` stage
            ODs of a task with ``n_phases = K``; computed from the task
            model when omitted (RMWP Theorem 2 per partition, and
            :func:`~repro.model.practical.practical_optional_deadlines`
            for a practical model).
        :param model: analytic task model; taken from ``task.to_model()``
            when available.
        :param strategy: termination strategy (default sigsetjmp).
        """
        if self._ran:
            raise RuntimeError("middleware already ran")
        if not isinstance(task, Task):
            raise TypeError(f"expected a core.Task, got {type(task).__name__}")
        if any(entry["task"].name == task.name for entry in self._entries):
            raise ValueError(f"duplicate task name {task.name!r}")
        if optional_cpus is None:
            if isinstance(policy, AssignmentPolicy):
                policy_obj = policy
            else:
                policy_obj = get_policy(policy)
            optional_cpus = policy_obj.assign(self.topology,
                                              task.n_parallel)
        if model is None and hasattr(task, "to_model"):
            model = task.to_model()
        if model is None and optional_deadline is None:
            raise ValueError(
                f"{task.name}: need either a task model or an explicit "
                f"optional deadline"
            )
        self._entries.append(
            {
                "task": task,
                "n_jobs": n_jobs,
                "cpu": cpu,
                "optional_cpus": list(optional_cpus),
                "optional_deadline": optional_deadline,
                "model": model,
                "strategy": strategy,
                "start_time": start_time,
            }
        )

    def _plan(self):
        """Offline planning: RM priorities per CPU + optional deadlines.

        The order is the RMWP band scheduling class's
        (:class:`repro.engine.classes.RMWPBandClass`, the same object the
        theory simulator keys its ready queues by) and the levels are
        Figure 5's (:func:`repro.engine.classes.rtq_priority`), so
        "shortest period first, name breaks ties" and the rank-to-level
        mapping exist exactly once.  Each task's optional deadlines
        follow from its model and the models above it in that order;
        every model is checked, also when its deadlines are given.
        """
        sched_class = get_sched_class("rmwp")
        by_cpu = {}
        for entry in self._entries:
            by_cpu.setdefault(entry["cpu"], []).append(entry)

        threshold = rm_us_threshold(self.topology.n_cpus) \
            if self.use_hpq else None

        for entries in by_cpu.values():
            ordered = sorted(
                entries,
                key=lambda e: sched_class.task_sort_key(e["task"]),
            )
            higher = []
            rank = 0
            for entry in ordered:
                model = entry["model"]
                if (threshold is not None and model is not None
                        and model.utilization > threshold):
                    entry["priority"] = HPQ_PRIORITY
                else:
                    entry["priority"] = rtq_priority(rank)
                    rank += 1
                if model is None:
                    continue
                if isinstance(model, PracticalImpreciseTask):
                    planned = practical_optional_deadlines(model, higher)
                else:
                    planned = windup_optional_deadline(model, higher)
                higher.append(model)
                if entry["optional_deadline"] is None:
                    entry["optional_deadline"] = planned

    def start(self):
        """Plan and spawn every process without running the kernel.

        The snapshot layer (:mod:`repro.snapshot`) uses this split to
        drive the engine partially (``kernel.engine.run(max_events=N)``
        up to a barrier, then :meth:`finish`); :meth:`run` is the
        one-shot composition everybody else calls.
        """
        if not self._entries:
            raise RuntimeError("no tasks registered")
        if self._ran:
            raise RuntimeError("middleware already ran")
        self._ran = True
        self._plan()
        results = {}
        for entry in self._entries:
            process = RealTimeProcess(
                self.kernel,
                entry["task"],
                priority=entry["priority"],
                cpu=entry["cpu"],
                optional_cpus=entry["optional_cpus"],
                optional_deadline=entry["optional_deadline"],
                n_jobs=entry["n_jobs"],
                strategy=entry["strategy"],
                start_time=entry["start_time"],
                watchdog=self.watchdog,
                degrade=self.degrade,
            ).spawn()
            results[entry["task"].name] = TaskResult(process)
        self._results = results
        return results

    def finish(self, max_events=None):
        """Drain the kernel to completion and build the result
        (requires :meth:`start`)."""
        self.kernel.run_to_completion(max_events=max_events)
        if self.degrade is not None:
            self.degrade.close(self.kernel.now)
        return RTSeedResult(self._results, self.kernel)

    def run(self, max_events=None):
        """Plan, spawn every process, and run the kernel to completion."""
        self.start()
        return self.finish(max_events=max_events)
