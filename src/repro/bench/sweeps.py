"""The one sweep definition: the Figures 10-13 grid and the three
ablations as flat, farmable point lists.

The Figures 10-13 configurations (policy x load x np) and the three
ablation studies (schedulability, QoS-vs-policy,
global-vs-partitioned) are all grids of independent measurements; this
module flattens them into JSON item dicts so the scale layer
(:func:`repro.scale.farm_scale_sweep`, ``repro scale --what sweep``)
can shard them across farm workers, and :mod:`repro.bench.claims`
checks the paper's shapes on the merged points.  Every payload is a
pure function of its item — simulated outcomes only, no wall-clock —
which is what keeps the merged sweep document byte-identical at any
worker count.

``run_sweep_item`` dispatches on the item's ``kind``:

* ``figure`` — one ``run_overhead_experiment`` configuration
  (policy x load x np): mean/std/max of the four overheads plus the
  optional-part fates;
* ``ablation_schedulability`` — one utilization point of the
  acceptance-ratio study: RM (Liu-Layland bound and exact RTA), RMWP,
  P-RMWP (first-fit, worst-fit) and G-RMWP over seeded random
  extended-imprecise task sets;
* ``ablation_qos`` — one (policy, np) point of the SMT QoS study:
  optional work completed per job under the SMT-accurate share curve;
* ``ablation_global_vs_partitioned`` — one utilization point of the
  migration-overhead study: the same random task sets scheduled
  globally and P-RMWP-partitioned on 4 CPUs.
"""

from repro.bench.overheads import PARALLEL_COUNTS

#: The three assignment policies, in the figures' order.
SWEEP_POLICIES = ("one_by_one", "two_by_two", "all_by_all")

#: The three background loads, by value.
SWEEP_LOADS = ("none", "cpu", "cpu_memory")

#: Ablation axes.
SCHEDULABILITY_UTILIZATIONS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
QOS_COUNTS = (16, 32, 57, 114)
GLOBAL_UTILIZATIONS = (0.4, 0.5, 0.6)


def figure_items(counts=PARALLEL_COUNTS, policies=SWEEP_POLICIES,
                 loads=SWEEP_LOADS, n_jobs=5, seed=0):
    """The Figures 10-13 grid as one item per configuration."""
    return [
        {"kind": "figure", "policy": policy, "load": load,
         "np": int(count), "jobs": int(n_jobs), "seed": int(seed)}
        for load in loads
        for policy in policies
        for count in counts
    ]


def ablation_items():
    """Every ablation point."""
    items = [
        {"kind": "ablation_schedulability",
         "utilization": float(utilization), "trials": 40}
        for utilization in SCHEDULABILITY_UTILIZATIONS
    ]
    items.extend(
        {"kind": "ablation_qos", "policy": policy, "np": int(count),
         "jobs": 3}
        for count in QOS_COUNTS
        for policy in SWEEP_POLICIES
    )
    items.extend(
        {"kind": "ablation_global_vs_partitioned",
         "utilization": float(utilization), "trials": 25}
        for utilization in GLOBAL_UTILIZATIONS
    )
    return items


def sweep_items(seed=0):
    """The full farmable sweep: figure grid + every ablation point."""
    return figure_items(seed=seed) + ablation_items()


def run_sweep_item(item):
    """Execute one sweep point; the payload is a pure function of
    ``item`` (farm-shardable)."""
    kind = item["kind"]
    if kind == "figure":
        return _figure_point(item)
    if kind == "ablation_schedulability":
        return _schedulability_point(item)
    if kind == "ablation_qos":
        return _qos_point(item)
    if kind == "ablation_global_vs_partitioned":
        return _global_vs_partitioned_point(item)
    raise ValueError(f"unknown sweep item kind {kind!r}")


def _figure_point(item):
    from repro.bench.overheads import run_overhead_experiment
    from repro.hardware.loads import BackgroundLoad

    sample = run_overhead_experiment(
        item["np"],
        policy=item["policy"],
        load=BackgroundLoad[item["load"].upper()],
        n_jobs=item["jobs"],
        seed=item["seed"],
    )
    overheads = {}
    for which in "mbse":
        mean = sample.mean(which)
        overheads[which] = {
            "mean_us": None if mean is None else round(mean, 3),
            "std_us": round(sample.std(which), 3),
            "max_us": (None if sample.max(which) is None
                       else round(sample.max(which), 3)),
        }
    return {"overheads_us": overheads, "fates": dict(sample.fates)}


def _schedulability_point(item):
    from repro.model import TaskSet, TaskSetGenerator
    from repro.sched import GRMWP, PRMWP, RMWP, RateMonotonic

    n_tasks, n_cpus = 6, 4
    algorithms = {
        "RM-LL": lambda ts: RateMonotonic(exact=False).is_schedulable(
            ts.tasks
        ),
        "RM-RTA": lambda ts: RateMonotonic(exact=True).is_schedulable(
            ts.tasks
        ),
        "RMWP": lambda ts: RMWP.is_schedulable(ts.tasks),
        "P-RMWP-FF": lambda ts: PRMWP(
            heuristic="first_fit"
        ).is_schedulable(TaskSet(ts.tasks, n_processors=n_cpus)),
        "P-RMWP-WF": lambda ts: PRMWP(
            heuristic="worst_fit"
        ).is_schedulable(TaskSet(ts.tasks, n_processors=n_cpus)),
        "G-RMWP": lambda ts: GRMWP.is_schedulable(
            TaskSet(ts.tasks, n_processors=n_cpus)
        ),
    }
    utilization = item["utilization"]
    trials = item["trials"]
    counts = {name: 0 for name in algorithms}
    for trial in range(trials):
        generator = TaskSetGenerator(
            seed=trial * 7919 + int(utilization * 1000)
        )
        taskset = generator.extended_task_set(n_tasks, utilization)
        for name, accept in algorithms.items():
            if accept(taskset):
                counts[name] += 1
    return {
        "trials": trials,
        "acceptance_ratio": {
            name: round(count / trials, 4)
            for name, count in counts.items()
        },
    }


def _qos_point(item):
    from repro.core import RTSeed, WorkloadTask
    from repro.hardware.xeonphi import xeon_phi_topology
    from repro.simkernel.time_units import MSEC, SEC

    middleware = RTSeed(
        topology=xeon_phi_topology(smt_accurate=True),
        cost_model="zero",
    )
    task = WorkloadTask(
        "tau1",
        mandatory=100 * MSEC,
        optional=2 * SEC,  # always overruns
        windup=100 * MSEC,
        period=1 * SEC,
        n_parallel=item["np"],
        chunk=10 * MSEC,
    )
    middleware.add_task(task, n_jobs=item["jobs"],
                        policy=item["policy"],
                        optional_deadline=850 * MSEC)
    result = middleware.run()
    task_result = result.tasks["tau1"]
    total = 0.0
    for probe in task_result.probes:
        total += sum(probe.results.values())
    per_job = total / len(task_result.probes) / SEC
    return {"qos_work_seconds_per_job": round(per_job, 4)}


def _global_vs_partitioned_point(item):
    from repro.model import TaskSetGenerator
    from repro.sched import PRMWP, ScheduleSimulator
    from repro.sched.partition import PartitioningError

    n_cpus = 4
    period_menu = [10.0, 20.0, 40.0, 80.0]
    utilization = item["utilization"]
    trials = item["trials"]
    totals = {
        "global": {"migrations": 0, "misses": 0, "sets": 0},
        "partitioned": {"migrations": 0, "misses": 0, "sets": 0},
    }
    for trial in range(trials):
        generator = TaskSetGenerator(
            seed=trial * 613 + int(utilization * 100),
            harmonic_periods=period_menu,
        )
        taskset = generator.extended_task_set(
            8, utilization * n_cpus, n_processors=n_cpus
        )
        global_result = ScheduleSimulator(
            taskset, policy="rm", global_sched=True
        ).run(until=taskset.hyperperiod)
        totals["global"]["migrations"] += global_result.migrations
        totals["global"]["misses"] += len(
            global_result.deadline_misses
        )
        totals["global"]["sets"] += 1
        try:
            partitions = PRMWP(heuristic="first_fit").partition(taskset)
        except PartitioningError:
            continue
        assignment = {}
        for cpu, tasks in enumerate(partitions):
            for task in tasks:
                assignment[task.name] = cpu
        part_result = ScheduleSimulator(
            taskset, policy="rm", assignment=assignment
        ).run(until=taskset.hyperperiod)
        totals["partitioned"]["migrations"] += part_result.migrations
        totals["partitioned"]["misses"] += len(
            part_result.deadline_misses
        )
        totals["partitioned"]["sets"] += 1
    return totals
