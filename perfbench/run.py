"""RT-Seed benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fig10_np57 --seed 0 --seconds 22 --trace 0

Runs from the repository root and imports the program from ``src/``.
Times are in reference seconds (see ``calibration.py``).  The first
repetition is a warm-up whose outcome digest every later repetition
must match.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` spends half the time untraced and half
traced, reports the per-layer metrics plus the tracing overhead, and
writes the spans as trace-event JSON under ``.perfbench/``.

Output: a detail line (host record, medians with tails and sample
counts, ``sim_*`` metrics, digests, failures), then as the last line
``{"correct", "attempted", "failed", "metrics"}``.  Any failed check
makes the exit code 1.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import Calibration
from tracing import Tracer
from workloads import (
    SIZES,
    WORKLOADS,
    instrument_run,
    instrument_snapshot,
    summarize,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = {"full": 15, "tiny": 1}


class Ledger:
    """Attempted and failed operations, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def run(self, label, fn, *args, expect=None):
        """Run one operation; a raised exception, a reported failure or
        a digest other than ``expect`` fails it."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc()}")
            return None
        problems = list(result.get("failures", ()))
        got = result.get("digest")
        if expect is not None and got is not None and got != expect:
            problems.append(f"digest {got} differs from the first "
                            f"repetition's {expect}")
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return result


def host_record(seed):
    import numpy
    from repro.engine.backend import get_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "backend": get_backend(None).name,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def repeat(workload, ledger, seconds, expect, calibration, tracer=None):
    """Repeat the workload's operation for ``seconds`` (at least once);
    returns ``(reference seconds, host seconds, outcome)`` per successful
    repetition."""
    samples = []
    begin = time.perf_counter()
    while not samples or time.perf_counter() - begin < seconds:
        label = f"repetition {len(samples) + 1}"

        def operation():
            if tracer is None:
                return ledger.run(label, workload.run_op, expect=expect)
            tracer.op = len(samples) + 1
            with tracer.span("op", "workload"):
                return ledger.run(label, workload.run_op, tracer,
                                  expect=expect)

        result, elapsed, speed = calibration.measure(operation)
        if result is None:
            break
        samples.append((elapsed * speed, elapsed, result))
    return samples


def rates(samples, key, host=False):
    """Per-repetition ``key`` per reference (or host) second."""
    return [outcome[key] / (elapsed if host else reference)
            for reference, elapsed, outcome in samples]


def setup_probe(name, seed, size):
    """Seconds from launching a fresh interpreter to the workload's first
    simulated event."""
    start = time.monotonic_ns()
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         size],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe exited {probe.returncode}: "
                           f"{probe.stderr[-2000:]}")
    stamp = json.loads(probe.stdout.splitlines()[-1])["first_event_ns"]
    return {"seconds": (stamp - start) / 1e9}


def peak_rss_mb(workers):
    """This process's peak RSS plus ``workers`` times the largest child
    peak: an upper bound on the process tree, since forked workers share
    pages with their parent."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024


def end_to_end(workload, ledger, seconds, expect, size):
    """End-to-end metrics, timed in reference seconds (see
    ``calibration.py``); the detail keeps the host-second figures."""
    calibration = Calibration()
    marks = [("start", time.perf_counter())]
    samples = repeat(workload, ledger, seconds, expect, calibration)
    # before the restore and the reference run: the peak covers the
    # warm-up and the repetitions only
    rss = peak_rss_mb(getattr(workload, "workers", 0))
    marks.append(("repetitions", time.perf_counter()))
    restored = ledger.run("restore", workload.restore_op, None,
                          calibration, expect=expect)
    marks.append(("restore", time.perf_counter()))
    if hasattr(workload, "reference"):
        ledger.run("workers=1 reference", workload.reference, expect=expect)
    marks.append(("reference", time.perf_counter()))
    setup_seconds = []
    for _ in range(SETUP_PROBES[size]):
        probe, _elapsed, speed = calibration.measure(
            ledger.run, "set-up probe", setup_probe, workload.name,
            workload.seed, size)
        if probe is not None:
            setup_seconds.append((probe["seconds"] * speed,
                                  probe["seconds"]))
    marks.append(("setup_probes", time.perf_counter()))
    values = {
        "jobs_per_s": statistics.median(rates(samples, "jobs")),
        "scenarios_per_s": statistics.median(rates(samples, "scenarios")),
        "setup_s": statistics.median(s for s, _ in setup_seconds),
        "peak_rss_mb": rss,
        "restore_s": statistics.median(restored["seconds"]),
    }
    detail = {
        "host_seconds": {
            "jobs_per_s": statistics.median(rates(samples, "jobs", True)),
            "scenarios_per_s":
                statistics.median(rates(samples, "scenarios", True)),
            "setup_s": statistics.median(h for _, h in setup_seconds),
            "restore_s": statistics.median(restored["host_seconds"]),
        },
        "calibration_loop_s": summarize(calibration.samples),
        "phase_s": {name: at - before
                    for (name, at), (_, before) in zip(marks[1:], marks)},
        "op_s": summarize([reference for reference, _, _ in samples]),
        "setup_s": summarize([s for s, _ in setup_seconds]),
        "restore_s": summarize(restored["seconds"]),
    }
    return values, detail


def _per(amount, base):
    return amount / base if base else 0.0


def layer_metrics(tracer, traced, untraced, restored, workers):
    """The per-layer metrics of a traced run (0 where the workload does
    not exercise the layer)."""
    counters = tracer.counters.get
    jobs = sum(outcome["jobs"] for _, _, outcome in traced)
    scenarios = sum(outcome["scenarios"] for _, _, outcome in traced)
    wall = tracer.total_ns("op")
    events = counters("engine.events", 0)
    self_ns = tracer.self_ns_by_name()
    setup_ns = sum(tracer.total_ns(name)
                   for name in ("core.init", "core.add_task", "core.start"))
    cost_ns = counters("hardware.ns", 0)
    batches = {op: sum(pids.values())
               for op, pids in tracer.by_op("farm.batch").items()}
    items = tracer.by_op("farm.item")
    busiest = {op: max(items.get(op, {}).values(), default=0)
               for op in batches}
    imbalance = [_per(busiest[op], statistics.fmean(items[op].values()))
                 for op in batches if items.get(op)]
    restores = len(tracer.durations("snapshot.restore"))
    replay_ns = sum(tracer.durations("snapshot.replay",
                                     under="snapshot.restore"))
    captures = tracer.durations("snapshot.capture")
    return {
        "engine.events_per_job": _per(events, jobs),
        "engine.cancelled_ratio": _per(counters("engine.cancelled", 0),
                                       counters("engine.scheduled", 0)),
        "engine.peak_heap": counters("engine.peak_heap.max", 0),
        "simkernel.ns_per_event": _per(self_ns.get("simkernel.run", 0),
                                       events),
        "simkernel.dispatches_per_job":
            _per(counters("simkernel.dispatches", 0), jobs),
        "simkernel.preemptions_per_job":
            _per(counters("simkernel.preemptions", 0), jobs),
        "core.setup_ms": _per(setup_ns / 1e6,
                              len(tracer.durations("core.init"))),
        "hardware.cost_calls_per_job":
            _per(counters("hardware.calls", 0), jobs),
        "hardware.cost_ns_per_call":
            _per(cost_ns, counters("hardware.calls", 0)),
        "hardware.share": _per(cost_ns, wall),
        "obs.publishes_per_job": _per(counters("obs.published", 0), jobs),
        "trading.analyze_ms_per_job":
            _per(counters("trading.ns", 0) / 1e6, jobs),
        "trading.refines_per_job":
            _per(counters("trading.refines", 0), jobs),
        "check.middleware_ms":
            _per(tracer.total_ns("check.middleware") / 1e6, scenarios),
        "check.oracle_ms":
            _per(tracer.total_ns("check.oracles") / 1e6, scenarios),
        "check.compare_ms":
            _per(tracer.total_ns("check.compare") / 1e6, scenarios),
        "sched.simulator_ms":
            _per(tracer.total_ns("check.simulator") / 1e6, scenarios),
        "farm.worker_busy_share": _per(
            sum(sum(pids.values()) for pids in items.values()),
            workers * sum(batches.values())),
        "farm.imbalance": statistics.fmean(imbalance) if imbalance else 0.0,
        "farm.overhead_s": statistics.fmean(
            batches[op] - busiest[op] for op in batches) / 1e9
        if batches else 0.0,
        "farm.retries": counters("farm.retries", 0),
        "farm.quarantined": counters("farm.quarantined", 0),
        "snapshot.capture_ms": statistics.fmean(captures) / 1e6
        if captures else 0.0,
        "snapshot.bytes": restored["bytes"] if restored else 0.0,
        "snapshot.replay_events_per_s":
            _per(restored["replayed_events"], replay_ns / 1e9)
            if restored else 0.0,
        "snapshot.attest_ms":
            _per(tracer.total_ns("snapshot.attest") / 1e6, restores),
        "trace.overhead": statistics.median(rates(untraced, "jobs"))
        / statistics.median(rates(traced, "jobs")) - 1,
    }


def export_trace(tracer, path):
    from repro.obs.export import validate_chrome_trace

    document = tracer.chrome_trace()
    checked = validate_chrome_trace(document)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document))
    return {"events": checked}


def per_layer(workload, ledger, seconds, expect):
    calibration = Calibration()
    untraced = repeat(workload, ledger, seconds / 2, expect, calibration)
    tracer = Tracer()
    instrument_run(tracer)
    try:
        traced = repeat(workload, ledger, seconds / 2, expect, calibration,
                        tracer)
    finally:
        tracer.unwrap()
    tracer.op = len(traced) + 1
    instrument_snapshot(tracer)
    try:
        restored = ledger.run("traced restore", workload.restore_op, tracer,
                              calibration, expect=expect)
    finally:
        tracer.unwrap()
    values = layer_metrics(tracer, traced, untraced, restored,
                           getattr(workload, "workers", 1))
    path = OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
    ledger.run("trace export", export_trace, tracer, path)
    # shares of one CPU: check_farm's add up past 1, its workers run in
    # parallel
    wall = tracer.root_ns() or 1
    detail = {
        "trace_file": str(path),
        "spans": len(tracer.spans),
        "self_share_by_layer": {
            layer: own / wall
            for layer, own in sorted(tracer.self_ns_by_layer().items())
            if layer != "workload"
        },
        "jobs_per_s_untraced": statistics.median(rates(untraced, "jobs")),
        "jobs_per_s_traced": statistics.median(rates(traced, "jobs")),
    }
    return values, detail


def run_benchmark(name, seed, seconds, trace, size="full"):
    """Run one workload at ``size`` (a key of ``SIZES``; the self-tests
    use ``tiny``); returns ``(result line, detail)``."""
    host = host_record(seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    workload = WORKLOADS[name](seed, SIZES[size])
    ledger = Ledger()
    workload.prepare()
    first = ledger.run("warm-up repetition", workload.run_op)
    values, detail = {}, {}
    if first is not None:
        try:
            if trace:
                values, detail = per_layer(workload, ledger, seconds,
                                           first["digest"])
            else:
                values, detail = end_to_end(workload, ledger, seconds,
                                            first["digest"], size)
        except Exception:  # a failed operation left no sample to report
            ledger.failures.append(f"metrics: {traceback.format_exc()}")
            values = {}
    correct = ledger.failed == 0
    metrics = {
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in metric_specs if values
    }
    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    detail.update({
        "workload": name,
        "size": size,
        "trace": trace,
        "host": host,
        "digest": first["digest"] if first else None,
        "sim": first["sim"] if first else None,
        "failed_ratio": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
    })
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        parser.exit(2, f"no program to benchmark: {ROOT / 'src' / 'repro'} "
                       f"is missing\n")
    sys.path.insert(0, str(ROOT / "src"))
    result, detail = run_benchmark(args.workload, args.seed, args.seconds,
                                   args.trace)
    for failure in detail["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
