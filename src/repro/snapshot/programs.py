"""Reconstructible program specs: the ``program`` part of a snapshot.

A snapshot must be resumable *in a fresh process*, but engine events
hold arbitrary Python closures pre-bound onto kernel objects — they
cannot be deserialized from JSON.  The restore model is therefore
**deterministic re-execution with state attestation** (see
``docs/SNAPSHOTS.md``): the snapshot records a *program spec* — the
complete recipe to rebuild the run from scratch (kind, seed, workload
parameters) — and the restore rebuilds it, fast-forwards the
engine to the barrier, and refuses to continue unless the live state
digests to the captured value.

These classes hold the one build and the one drain of each kind, in
three steps: ``build()`` constructs the workload from the spec (no
spawn, no observer), ``spawn()`` plans and spawns every process, and
``drain()`` runs to the end and returns the domain result
(``RTSeedResult``, ``TradingReport``, the scenario's campaign result
dict, or the check crash).  Every run of the four kinds goes through
them, whether single, farmed, replayed or snapshotted: the fault
campaign (:mod:`repro.faults.campaign`) and the check runner
(:mod:`repro.check.runner`) drive these classes and keep no builder
of their own.  The caller attaches its observers between build and
spawn: ``repro run`` only what its emissions need, the snapshot
surface one fixed, *attested* set (the probe-stream hash,
``SchedulerMetrics`` and a ``FlightRecorder``):

``start()``
    ``build()``, the attested observers, ``spawn()``.
``run_to_events(n)``
    Drive the engine to exactly ``n`` processed events.
``finish()``
    ``drain()``, then the program's deterministic JSON payload (the
    byte-identity object CI ``cmp``'s).
``extras()``
    The spec itself plus program-specific state sections merged into
    the capture (resilience controllers, trading feed/broker state, the
    flight ring), so the digest attests the recipe with the state.

Four program kinds cover the robustness surfaces: ``overheads`` (the
Section V-A evaluation workload), ``trade`` (the end-to-end trading
system), ``faults`` (a canned resilience scenario, fault plan active),
and ``check`` (a conformance scenario, judged by
:func:`repro.check.runner.judge_run`).
"""

import hashlib
import json

from repro.snapshot.core import SnapshotError
from repro.snapshot.state import (
    capture_flight,
    capture_resilience,
    capture_trading,
)


#: Events per hashed batch of :class:`_StreamHash`.  Part of the digest's
#: definition, so a constant and not an option.
STREAM_HASH_BATCH = 1024

#: ``json.dumps(obj, sort_keys=True, default=str)`` without building a
#: new encoder per call: the same bytes, once per batch.
_encode_rows = json.JSONEncoder(sort_keys=True, default=str).encode


class _StreamHash:
    """Probe subscriber that folds every event into a SHA-256.

    Subscribing it is what makes "the probe stream is byte-identical"
    a *checkable* payload property: the uninterrupted run and the
    resumed run both carry the hash of every ``(topic, time, payload)``
    triple they published.

    An event's canonical row is ``[topic, time, data]``.  Rows are
    buffered and JSON-encoded (sorted keys, ``default=str``) one batch
    of :data:`STREAM_HASH_BATCH` at a time, and each batch's bytes
    extend the hash.  :meth:`hexdigest` folds the partial batch into a
    copy, so the digest depends on the event sequence alone, not on
    when it is read.  Buffered payloads are held by reference: a
    publisher must not mutate a payload after publishing it.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self._rows = []
        self._batches = 0

    def __call__(self, topic, time, data):
        rows = self._rows
        rows.append((topic, time, data))
        if len(rows) == STREAM_HASH_BATCH:
            self._hash.update(_encode_rows(rows).encode())
            rows.clear()
            self._batches += 1

    @property
    def events(self):
        """Events hashed so far."""
        return self._batches * STREAM_HASH_BATCH + len(self._rows)

    def hexdigest(self):
        digest = self._hash.copy()
        if self._rows:
            digest.update(_encode_rows(self._rows).encode())
        return digest.hexdigest()


class ProgramRun:
    """Base class: the build/spawn/drain steps, engine fast-forward and
    payload plumbing."""

    kind = "abstract"

    def __init__(self, spec):
        self.spec = dict(spec)
        self.spec["kind"] = self.kind
        self.kernel = None
        self.stream = None
        self.metrics = None
        self.recorder = None

    @property
    def seed(self):
        return self.spec.get("seed", 0)

    # subclasses define build() (setting kernel) and spawn(), both
    # returning self, drain(), and payload(result)

    def start(self):
        self.build()
        self.attach_attested()
        return self.spawn()

    def finish(self):
        return self.payload(self.drain())

    def attach_attested(self):
        """The identical observer set on every execution of this
        program — uninterrupted, checkpointed, or resumed.  A program
        whose build already wired a flight recorder keeps that ring."""
        from repro.obs import FlightRecorder, SchedulerMetrics

        self.stream = _StreamHash()
        self.kernel.probes.subscribe(self.stream)
        self.metrics = SchedulerMetrics.attach(self.kernel)
        if self.recorder is None:
            self.recorder = FlightRecorder.attach(self.kernel,
                                                  seed=self.seed)

    def run_to_events(self, barrier):
        """Drive the engine to exactly ``barrier`` processed events."""
        engine = self.kernel.engine
        remaining = barrier - engine.events_processed
        if remaining < 0:
            raise SnapshotError(
                f"engine already past barrier: "
                f"{engine.events_processed} > {barrier}"
            )
        if remaining:
            engine.run(max_events=remaining)
        if engine.events_processed != barrier:
            raise SnapshotError(
                f"run drained at {engine.events_processed} events, "
                f"before the {barrier}-event barrier"
            )

    def extras(self):
        return {"program": dict(self.spec),
                "flight": capture_flight(self.recorder)}

    def run_report(self, metrics=None, profile=None,
                   include_wallclock=False):
        """The drained run's :class:`~repro.obs.report.RunReport`."""
        from repro.obs import RunReport

        return RunReport.collect(self.kernel, metrics=metrics,
                                 profile=profile,
                                 include_wallclock=include_wallclock)

    def _base_payload(self, run_report):
        return {
            "program": dict(self.spec),
            "events_processed": self.kernel.engine.events_processed,
            "final_now": self.kernel.engine.now,
            "probe_events": self.stream.events,
            "probe_stream_sha256": self.stream.hexdigest(),
            "run_report": run_report,
        }


class OverheadsProgram(ProgramRun):
    """The Section V-A evaluation workload: one task, ``np`` parallel
    optional parts, ``jobs`` jobs."""

    kind = "overheads"

    def build(self):
        from repro.bench.overheads import (
            OPTIONAL_DEADLINE,
            make_eval_task,
        )
        from repro.core.middleware import RTSeed
        from repro.hardware.loads import BackgroundLoad

        spec = self.spec
        middleware = RTSeed(
            load=BackgroundLoad[spec.get("load", "NONE")],
            seed=self.seed,
        )
        middleware.add_task(
            make_eval_task(spec.get("np", 8)),
            n_jobs=spec.get("jobs", 5),
            cpu=0,
            policy=spec.get("policy", "one_by_one"),
            optional_deadline=OPTIONAL_DEADLINE,
        )
        self.middleware = middleware
        self.kernel = middleware.kernel
        return self

    def spawn(self):
        self.middleware.start()
        return self

    def drain(self):
        return self.middleware.finish()

    def payload(self, result):
        return self._base_payload(self.run_report(self.metrics).to_dict())


class TradeProgram(ProgramRun):
    """The end-to-end real-time trading system; ``od_ms`` (optional)
    is the relative optional deadline in milliseconds."""

    kind = "trade"

    def build(self):
        from repro.hardware.loads import BackgroundLoad
        from repro.simkernel.time_units import MSEC
        from repro.trading.system import RealTimeTradingSystem

        spec = self.spec
        od_ms = spec.get("od_ms")
        self.system = RealTimeTradingSystem(
            n_seconds=spec.get("seconds", 12),
            seed=self.seed,
            policy=spec.get("policy", "one_by_one"),
            load=BackgroundLoad[spec.get("load", "NONE")],
            optional_deadline=None if od_ms is None else od_ms * MSEC,
        )
        self.kernel = self.system.middleware.kernel
        return self

    def spawn(self):
        self.system.start()
        return self

    def drain(self):
        return self.system.finish()

    def payload(self, report):
        payload = self._base_payload(self.run_report(self.metrics).to_dict())
        payload["trading"] = report.summary()
        return payload

    def extras(self):
        extras = super().extras()
        extras["trading"] = capture_trading(self.system.task,
                                            self.system.broker)
        return extras


class FaultsProgram(ProgramRun):
    """A canned resilience scenario of
    :data:`repro.faults.campaign.SCENARIOS`: fault plan active,
    hardening stack wired.  :meth:`drain` returns the scenario's
    campaign result dict; ``repro faults`` runs one per scenario.

    :param flight_dir: when set, the scenario's flight recorder dumps
        its ring into this directory at every failure edge (invariant
        violation, degraded-mode entry, watchdog fire).  It says where
        the run writes, not what it runs, so it stays out of the spec.
    """

    kind = "faults"

    #: Probe topics the result counts under ``events``.
    COUNTED_TOPICS = (
        "fault.*",
        "degrade.*",
        "rtseed.job_abort",
        "rtseed.discard",
        "trading.fetch_retry",
        "trading.broker_error",
    )

    def __init__(self, spec, flight_dir=None):
        super().__init__(spec)
        self.flight_dir = flight_dir

    @property
    def seconds(self):
        return self.spec.get("seconds", 12)

    def build(self):
        from repro.core.resilience import (
            DegradedModeController,
            OverrunWatchdog,
            RetryPolicy,
        )
        from repro.faults.campaign import SCENARIOS
        from repro.faults.injectors import FaultInjector
        from repro.obs import FlightRecorder
        from repro.simkernel.time_units import MSEC, SEC
        from repro.trading.network import NetworkModel
        from repro.trading.system import RealTimeTradingSystem

        name = self.spec["scenario"]
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r}; valid: {sorted(SCENARIOS)}"
            )
        config = self.config = SCENARIOS[name]
        seed = self.seed
        self.plan = config["plan"](self.seconds * SEC, seed)
        injector = self.injector = FaultInjector(self.plan)

        network = None
        if config.get("network"):
            network = injector.wrap_network(NetworkModel(seed=seed))
        self.retry = RetryPolicy(max_attempts=3, backoff=5 * MSEC,
                                 reserve=100 * MSEC) \
            if config.get("retry") else None
        self.watchdog = OverrunWatchdog(grace=5 * MSEC) \
            if config.get("watchdog") else None
        self.degrade = DegradedModeController(enter_after=3,
                                              exit_after=2) \
            if config.get("degrade") else None

        system = self.system = RealTimeTradingSystem(
            n_seconds=self.seconds, seed=seed, network=network,
            retry_policy=self.retry, watchdog=self.watchdog,
            degrade=self.degrade, **config.get("system", {}),
        )
        task = system.task
        task.feed = injector.wrap_feed(task.feed)
        task.broker = injector.wrap_broker(task.broker)
        kernel = self.kernel = system.middleware.kernel

        counts = self.event_counts = {}

        def count_event(topic, _time, _data):
            counts[topic] = counts.get(topic, 0) + 1

        kernel.probes.subscribe(count_event, topics=self.COUNTED_TOPICS)
        # the attested set rides this ring instead of a second one
        self.recorder = FlightRecorder.attach(
            kernel, dump_dir=self.flight_dir, seed=seed)
        self.recorder.degrade = self.degrade
        injector.attach(kernel)
        return self

    def attach_attested(self):
        self.stream = _StreamHash()
        self.kernel.probes.subscribe(self.stream)

    def spawn(self):
        self.system.start()
        return self

    def drain(self):
        """Run to the end; returns the scenario's result dict (its
        ``run_report`` included)."""
        from repro.simkernel.time_units import MSEC

        report = self.system.finish()
        probes = report.task_result.probes
        misses = len(report.task_result.deadline_misses)
        summary = report.summary()
        result = {
            "scenario": self.spec["scenario"],
            "description": self.config["description"],
            "seed": self.seed,
            "n_seconds": self.seconds,
            "plan": self.plan.to_dict(),
            "injected": dict(self.injector.counts),
            "events": self.event_counts,
            "jobs": len(probes),
            "deadline_misses": misses,
            "miss_ratio": misses / len(probes) if probes else 0.0,
            "aborted_jobs": sum(1 for p in probes if p.aborted),
            "qos_ms": summary["qos_ms"],
            "trades": summary["trades"],
            "rejected": summary["rejected"],
            "equity": summary["equity"],
            "broker_failures": len(self.system.task.broker_failures),
            "run_report": self.run_report().to_dict(),
        }
        if self.watchdog is not None:
            result["watchdog_fires"] = len(self.watchdog.fired)
        degrade = self.degrade
        if degrade is not None:
            result["degraded"] = {
                "episodes": len(degrade.episodes),
                "shed_jobs": degrade.shed_jobs,
                "recovery_latency_ms": [
                    latency / MSEC
                    for latency in degrade.recovery_latencies
                ],
            }
        return result

    def payload(self, result):
        result = dict(result)
        payload = self._base_payload(result.pop("run_report"))
        payload["scenario"] = result
        return payload

    def run_report(self, metrics=None, profile=None,
                   include_wallclock=False):
        from repro.obs import RunReport

        return RunReport.collect(
            self.kernel, metrics=metrics, profile=profile,
            injector=self.injector, watchdog=self.watchdog,
            degrade=self.degrade, include_wallclock=include_wallclock)

    def extras(self):
        extras = super().extras()
        extras.update(
            resilience=capture_resilience(
                retry=self.retry, watchdog=self.watchdog,
                degrade=self.degrade,
            ),
            injected=dict(self.injector.counts),
            trading=capture_trading(self.system.task,
                                    self.system.broker),
        )
        return extras


class CheckProgram(ProgramRun):
    """A conformance-check scenario (``repro check``).  The spec embeds
    the full scenario dict
    (:meth:`repro.check.scenario.Scenario.to_dict`) and may name a
    ``cost_model`` (default ``"zero"``, which the oracles and the
    theory differential need; ``"xeonphi"`` exercises the noisy cost
    path) with its ``noise_seed``.  The drained run carries what
    :func:`repro.check.runner.judge_run` reads: ``scenario``,
    ``events`` (the recorded ``rtseed.*``/``kernel.*`` probes),
    ``kernel`` and ``crash``."""

    kind = "check"

    def build(self):
        from repro.check.runner import EVENT_TOPICS
        from repro.check.scenario import CheckTask, Scenario
        from repro.core.middleware import RTSeed
        from repro.faults.injectors import FaultInjector
        from repro.obs import FlightRecorder
        from repro.simkernel.cpu import Topology, uniform_share

        spec = self.spec
        scenario = self.scenario = Scenario.from_dict(spec["scenario"])
        topology = Topology(scenario.n_cpus, 1, share_fn=uniform_share,
                            background_weight=0.0)
        middleware = self.middleware = RTSeed(
            topology=topology, cost_model=spec.get("cost_model", "zero"),
            seed=spec.get("noise_seed", 0),
        )
        kernel = self.kernel = middleware.kernel

        events = self.events = []
        middleware.probes.subscribe(
            lambda topic, time, data: events.append((topic, time,
                                                     dict(data))),
            topics=EVENT_TOPICS,
        )
        # passive flight recorder: free while the bus is idle, and the
        # subscriber above activates the bus anyway.  A failing run's
        # verdict carries its ring, and the attested set rides it.
        self.recorder = FlightRecorder.attach(kernel, seed=scenario.seed)

        for task in scenario.tasks:
            middleware.add_task(
                CheckTask(task),
                n_jobs=task.n_jobs,
                cpu=task.cpu,
                optional_cpus=task.optional_cpus,
                optional_deadline=task.optional_deadline,
                start_time=scenario.start_time,
            )

        plan = scenario.build_fault_plan()
        if plan is not None:
            FaultInjector(plan).attach(kernel)
        return self

    def spawn(self):
        self.middleware.start()
        return self

    def drain(self):
        """Run to the end, or to the check event budget
        (:data:`repro.check.runner.MAX_KERNEL_EVENTS`); returns the
        crash line, ``None`` for a clean run."""
        from repro.check.runner import MAX_KERNEL_EVENTS
        from repro.simkernel.errors import SimKernelError

        crash = None
        budget = MAX_KERNEL_EVENTS - self.kernel.engine.events_processed
        try:
            self.middleware.finish(max_events=max(budget, 0))
        except SimKernelError as error:
            crash = f"{type(error).__name__}: {error}"
        self.crash = crash
        return crash

    def payload(self, crash):
        payload = self._base_payload(self.run_report(self.metrics).to_dict())
        payload["crash"] = crash
        payload["check_events"] = len(self.events)
        return payload


#: Program registry: spec ``kind`` -> class.
PROGRAMS = {
    OverheadsProgram.kind: OverheadsProgram,
    TradeProgram.kind: TradeProgram,
    FaultsProgram.kind: FaultsProgram,
    CheckProgram.kind: CheckProgram,
}


def build_program(spec):
    """Instantiate (without building) the program a spec describes."""
    kind = spec.get("kind")
    if kind not in PROGRAMS:
        raise SnapshotError(
            f"unknown program kind {kind!r}; valid: {sorted(PROGRAMS)}"
        )
    return PROGRAMS[kind](spec)
