"""The benchmark's three workloads.

A workload builds its inputs from the seed and offers:

``run_op(tracer=None)``
    one repetition — the operation the benchmark times — returning an
    :func:`outcome` whose digest must equal the first repetition's;
``restore_op(tracer, calibration)``
    snapshot the workload's program mid-run, time
    ``repro.snapshot.restore`` (rebuild + replay + state attestation) and
    resume the restored run to the end, which must reproduce the
    uninterrupted run;
``first_event()``
    build the workload from scratch and stop at its first simulated
    event (the set-up probe, run in a fresh interpreter).

The ``repro`` imports are local to each workload so that a set-up probe
imports what its workload uses and nothing more.
"""

import hashlib
import json
import statistics
import time
from contextlib import nullcontext

from tracing import SpanProfile, TimedAnalyzer, TimedCostModel

#: Run sizes.  ``full`` is the benchmark; ``tiny`` is for the self-tests.
SIZES = {
    "full": {"fig10_jobs": 60, "fig10_restore_jobs": 20,
             "trade_seconds": 120, "check_runs": 1000,
             "check_restore_scenarios": 20, "restores": 9},
    "tiny": {"fig10_jobs": 2, "fig10_restore_jobs": 2, "trade_seconds": 4,
             "check_runs": 4, "check_restore_scenarios": 2, "restores": 1},
}

#: Payload key under which a traced farm item ships its spans home.
TRACE_KEY = "perfbench_trace"


def digest(value):
    """SHA-256 of a JSON value (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(jobs, scenarios, digest_hex, failures=(), sim=None):
    return {"jobs": jobs, "scenarios": scenarios, "digest": digest_hex,
            "failures": list(failures), "sim": sim}


def _span(tracer, name, layer):
    return nullcontext() if tracer is None else tracer.span(name, layer)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[int(rank) - 1]


def summarize(values):
    """Median plus the tail at the highest whole percentile that keeps at
    least ten samples beyond it (``None`` below twenty samples)."""
    n = len(values)
    pct = 100 * (n - 10) // n if n >= 20 else None
    return {
        "median": statistics.median(values) if values else None,
        "tail": percentile(values, pct) if pct is not None else None,
        "tail_pct": pct,
        "n": n,
    }


def job_rows(task_result):
    """Per-job simulated outcome: overheads, fates, QoS, completion."""
    return [
        [p.job_index, p.release, p.delta_m, p.delta_b, p.delta_s,
         p.delta_e, p.windup_end, p.deadline_met, list(p.optional_fate),
         p.optional_time_executed]
        for p in task_result.probes
    ]


def sim_stats(task_result):
    """The ``sim_*`` metrics of one run, in simulated time."""
    from repro.simkernel.time_units import MSEC, NSEC_PER_USEC

    probes = task_result.probes
    response = [(p.windup_end - p.release) / NSEC_PER_USEC
                for p in probes if p.windup_end is not None]
    overhead = [sum(v for v in map(p.delta_us, "mbse") if v is not None)
                for p in probes]
    response_summary = summarize(response)
    overhead_summary = summarize(overhead)
    return {
        "sim_response_p50_us": response_summary["median"],
        "sim_response_tail_us": response_summary["tail"],
        "sim_response_tail_pct": response_summary["tail_pct"],
        "sim_overhead_p50_us": overhead_summary["median"],
        "sim_overhead_tail_us": overhead_summary["tail"],
        "sim_overhead_tail_pct": overhead_summary["tail_pct"],
        "sim_deadline_miss_ratio":
            len(task_result.deadline_misses) / len(probes),
        "sim_qos_ms": statistics.fmean(
            p.optional_time_executed for p in probes) / MSEC,
        "sim_jobs": len(probes),
    }


def restore_program(spec, barrier, restores, tracer, calibration):
    """Snapshot ``spec``'s program at ``barrier`` events, restore it
    ``restores`` times and resume the last restore (``"run"``) to the end,
    which must reproduce the uninterrupted run.  A failed attestation
    raises ``repro.snapshot.SnapshotMismatchError``."""
    from repro.snapshot import build_program, render_snapshot, restore, \
        snapshot

    run = build_program(spec).start()
    run.run_to_events(barrier)
    with _span(tracer, "snapshot.capture", "snapshot"):
        document = snapshot(run)
    expected = run.finish()
    seconds = []
    for _ in range(restores):
        with _span(tracer, "snapshot.restore", "snapshot"):
            restored, elapsed, speed = calibration.measure(restore,
                                                           document)
        seconds.append((elapsed * speed, elapsed))
    failures = []
    if restored.finish() != expected:
        failures.append(f"{spec['kind']}: resumed payload differs from "
                        f"the uninterrupted run")
    return {"seconds": [reference for reference, _ in seconds],
            "host_seconds": [host for _, host in seconds],
            "bytes": len(render_snapshot(document)),
            "replayed_events": barrier * restores,
            "failures": failures, "digest": None, "run": restored}


def kernel_counters(tracer):
    """``after`` hook for ``Kernel.run_to_completion``: fold the public
    engine, thread and probe-bus counters of the finished kernel."""
    def after(args, _result):
        kernel = args[0]
        counters = kernel.engine.counters()
        tracer.count("engine.events", counters["events_processed"])
        tracer.count("engine.scheduled", counters["events_scheduled"])
        tracer.count("engine.cancelled", counters["events_cancelled"])
        tracer.peak("engine.peak_heap.max", counters["peak_heap_size"])
        tracer.count("simkernel.dispatches",
                     sum(t.dispatches for t in kernel.threads))
        tracer.count("simkernel.preemptions",
                     sum(t.preemptions for t in kernel.threads))
        tracer.count("obs.published", kernel.probes.published)
    return after


def instrument_run(tracer):
    """Spans around middleware set-up and the kernel run, and the traced
    farm task in place of ``farm_check``'s per-item task (undo with
    ``tracer.unwrap()``)."""
    import repro.farm.jobs as farm_jobs
    from repro.core.middleware import RTSeed
    from repro.simkernel.kernel import Kernel

    tracer.wrap(RTSeed, "__init__", "core.init", "core")
    tracer.wrap(RTSeed, "add_task", "core.add_task", "core")
    tracer.wrap(RTSeed, "start", "core.start", "core")
    tracer.wrap(Kernel, "run_to_completion", "simkernel.run", "simkernel",
                after=kernel_counters(tracer))
    # farm_check looks the task up as a module global on every call, and
    # forked workers inherit the patch
    tracer.patch(farm_jobs, "_check_item", _TracedCheckItem(tracer))


def instrument_snapshot(tracer):
    """Spans inside ``repro.snapshot.restore``: replay and attestation."""
    import repro.snapshot.resume as resume
    from repro.snapshot.programs import ProgramRun

    tracer.wrap(ProgramRun, "run_to_events", "snapshot.replay", "snapshot")
    tracer.wrap(resume, "capture_state", "snapshot.attest", "snapshot")
    tracer.wrap(resume, "state_digest", "snapshot.attest", "snapshot")


def _xeonphi_parts(load, seed, tracer):
    """Topology and cost model as ``RTSeed(cost_model="xeonphi")`` builds
    them, with the cost model behind a timing proxy when traced."""
    from repro.engine.backend import get_backend
    from repro.hardware.overheads import XeonPhiCostModel
    from repro.hardware.xeonphi import xeon_phi_topology

    topology = xeon_phi_topology()
    if tracer is None:
        return topology, "xeonphi"
    inner = XeonPhiCostModel(topology, load, seed=seed,
                             noise=get_backend(None).noise_mode)
    return topology, TimedCostModel(inner, tracer)


class Fig10:
    """Section V-A evaluation task: np=57 always-overrunning optional
    parts, one_by_one assignment, CPU_MEMORY background load."""

    name = "fig10_np57"
    n_parallel = 57
    load = "CPU_MEMORY"
    policy = "one_by_one"

    def __init__(self, seed, size):
        self.seed = seed
        self.jobs = size["fig10_jobs"]
        self.restore_jobs = size["fig10_restore_jobs"]
        self.restores = size["restores"]
        self.events = None

    def _build(self, tracer=None):
        from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
        from repro.core.middleware import RTSeed
        from repro.hardware.loads import BackgroundLoad

        load = BackgroundLoad[self.load]
        topology, cost_model = _xeonphi_parts(load, self.seed, tracer)
        middleware = RTSeed(topology=topology, load=load,
                            cost_model=cost_model, seed=self.seed)
        middleware.add_task(make_eval_task(self.n_parallel),
                            n_jobs=self.jobs, cpu=0, policy=self.policy,
                            optional_deadline=OPTIONAL_DEADLINE)
        return middleware

    def prepare(self):
        pass

    def first_event(self):
        middleware = self._build()
        middleware.start()
        middleware.kernel.run(max_events=1)
        return time.monotonic_ns()

    def _outcome(self, result):
        task_result = result.tasks["tau1"]
        return outcome(self.jobs, 1, digest(job_rows(task_result)),
                       sim=sim_stats(task_result))

    def run_op(self, tracer=None):
        middleware = self._build(tracer)
        result = middleware.run()
        self.events = middleware.kernel.engine.events_processed
        return self._outcome(result)

    def restore_op(self, tracer, calibration):
        """Restore a shorter run of the same task (replaying 60 jobs nine
        times would take most of a run's time); its resumed payload must
        equal the uninterrupted one."""
        jobs = self.restore_jobs
        spec = {"kind": "overheads", "np": self.n_parallel, "jobs": jobs,
                "load": self.load, "policy": self.policy, "seed": self.seed}
        barrier = self.events * jobs // self.jobs // 2
        return restore_program(spec, barrier, self.restores, tracer,
                               calibration)


class TradeRun:
    """``RealTimeTradingSystem`` with the default five-analyzer panel
    under CPU_MEMORY load; one job per simulated second."""

    name = "trade_run"
    load = "CPU_MEMORY"

    def __init__(self, seed, size):
        self.seed = seed
        self.seconds = size["trade_seconds"]
        self.restores = size["restores"]
        self.events = None

    def _build(self, tracer=None):
        from repro.hardware.loads import BackgroundLoad
        from repro.trading.system import (
            RealTimeTradingSystem,
            default_analyzers,
        )

        load = BackgroundLoad[self.load]
        topology, cost_model = _xeonphi_parts(load, self.seed, tracer)
        analyzers = None
        if tracer is not None:
            analyzers = [TimedAnalyzer(analyzer, tracer)
                         for analyzer in default_analyzers(self.seed)]
        return RealTimeTradingSystem(
            n_seconds=self.seconds, seed=self.seed, load=load,
            topology=topology, cost_model=cost_model, analyzers=analyzers)

    def prepare(self):
        pass

    def first_event(self):
        system = self._build()
        system.start()
        system.middleware.kernel.run(max_events=1)
        return time.monotonic_ns()

    def _outcome(self, report):
        decisions = [
            [job, decision.kind.name, decision.confidence,
             None if order is None
             else [order.side.name, order.units, order.price, order.time]]
            for job, decision, order in report.decisions
        ]
        rows = [job_rows(report.task_result), decisions, report.summary()]
        return outcome(self.seconds, 1, digest(rows),
                       sim=sim_stats(report.task_result))

    def run_op(self, tracer=None):
        system = self._build(tracer)
        report = system.run()
        self.events = system.middleware.kernel.engine.events_processed
        return self._outcome(report)

    def restore_op(self, tracer, calibration):
        spec = {"kind": "trade", "seconds": self.seconds,
                "load": self.load, "seed": self.seed}
        restored = restore_program(spec, self.events // 2, self.restores,
                                   tracer, calibration)
        # finish() is idempotent once the kernel drained: it hands back
        # the report the resumed payload was built from, whose digest
        # must equal the straight run's
        report = restored["run"].system.finish()
        restored["digest"] = self._outcome(report)["digest"]
        return restored


class _TracedCheckItem:
    """Farm task of the traced check batch: one conformance run with its
    phases recorded as spans, shipped home inside the payload."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __call__(self, item):
        from repro.check.runner import run_fuzz_index

        tracer = self.tracer
        tracer.take()  # drop what the parent recorded before the fork
        with tracer.span("farm.item", "farm"):
            payload = run_fuzz_index(
                item["base_seed"], item["index"],
                fault_rate=item["fault_rate"], shrink=item["shrink"],
                profile=SpanProfile(tracer))
        payload[TRACE_KEY] = tracer.take()
        return payload


class CheckFarm:
    """``farm_check`` of clean generated scenarios, shrink off, two
    workers."""

    name = "check_farm"
    workers = 2
    max_failures = 5

    def __init__(self, seed, size):
        self.seed = seed
        self.runs = size["check_runs"]
        self.restore_scenarios = size["check_restore_scenarios"]
        self.restores = size["restores"]
        self.jobs = None

    def _scenario(self, index):
        from repro.check.scenario import derive_run_seed, generate_scenario

        return generate_scenario(derive_run_seed(self.seed, index))

    def prepare(self):
        """Simulated jobs per batch (every job of every scenario runs to
        completion on a clean batch) and the scenarios restore_op uses:
        the batch's largest, whose size hardly depends on the seed."""
        tasks = [self._scenario(index).tasks for index in range(self.runs)]
        self.jobs = sum(task.n_jobs for group in tasks for task in group)
        size = [sum(task.n_jobs * (1 + len(task.optional_cpus))
                    for task in group) for group in tasks]
        self.restore_indices = sorted(
            range(self.runs), key=lambda index: (-size[index], index),
        )[:self.restore_scenarios]

    def first_event(self):
        from repro.farm import farm_check

        stamp = []

        def on_event(topic, _data):
            if topic == "farm.item_start" and not stamp:
                stamp.append(time.monotonic_ns())

        farm_check(self.workers, seed=self.seed, shrink=False,
                   workers=self.workers, on_event=on_event)
        return stamp[0]

    def _outcome(self, document, farm_result):
        from repro.farm import render_check_report

        failures = []
        if document["total_failures"]:
            failures.append(f"{document['total_failures']} check "
                            f"failure(s)")
        if document["errors"]:
            failures.append(f"{len(document['errors'])} item error(s)")
        if document["quarantined"]:
            failures.append(f"{len(document['quarantined'])} quarantined "
                            f"shard(s)")
        if farm_result.retries:
            failures.append(f"{farm_result.retries} worker retr(ies)")
        return outcome(self.jobs, self.runs,
                       digest(render_check_report(document)), failures)

    def run_op(self, tracer=None, workers=None):
        """One ``farm_check`` batch.  Traced, its items run the
        :class:`_TracedCheckItem` task that :func:`instrument_run`
        patches in, and their spans are taken out of the payloads."""
        from repro.farm import farm_check

        with _span(tracer, "farm.batch", "farm"):
            document, farm_result = farm_check(
                self.runs, seed=self.seed, shrink=False,
                workers=workers or self.workers,
                max_failures=self.max_failures)
        if tracer is not None:
            for payload in farm_result.results.values():
                tracer.merge(*payload.pop(TRACE_KEY, ([], {})))
            tracer.count("farm.retries", farm_result.retries)
            tracer.count("farm.quarantined", len(farm_result.quarantined))
        return self._outcome(document, farm_result)

    def reference(self):
        """The same batch in-process (``workers=1``): the report must be
        byte-identical to the farmed one."""
        return self.run_op(workers=1)

    def restore_op(self, tracer, calibration):
        """Restore the check program of the batch's largest scenarios;
        one sample is the summed restore time over those scenarios."""
        from repro.snapshot import build_program

        total = {"seconds": [0.0] * self.restores,
                 "host_seconds": [0.0] * self.restores,
                 "bytes": 0, "replayed_events": 0, "failures": [],
                 "digest": None}
        for index in self.restore_indices:
            scenario = self._scenario(index)
            spec = {"kind": "check", "scenario": scenario.to_dict(),
                    "seed": scenario.seed}
            events = build_program(spec).start().finish()["events_processed"]
            one = restore_program(spec, events // 2, self.restores, tracer,
                                  calibration)
            for key in ("seconds", "host_seconds"):
                total[key] = [a + b for a, b in zip(total[key], one[key])]
            for key in ("bytes", "replayed_events", "failures"):
                total[key] += one[key]
        total["bytes"] /= len(self.restore_indices)
        return total


WORKLOADS = {cls.name: cls for cls in (Fig10, TradeRun, CheckFarm)}
