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

These classes are the only code that constructs a run, in three
steps: ``build()`` constructs the workload from the spec (no spawn, no
observer), ``spawn()`` plans and spawns every process, and ``drain()``
runs to the end and returns the domain result (``RTSeedResult``,
``TradingReport``, the scenario dict, or the check crash).  The caller
attaches its observers between build and spawn: ``repro run`` only
what its emissions need, the snapshot surface one fixed, *attested*
set (the probe-stream hash, ``SchedulerMetrics`` and a
``FlightRecorder``):

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
and ``check`` (a conformance scenario, for check-artifact time-travel).
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
    """A canned resilience scenario — fault plan active, hardening
    stack wired (:mod:`repro.faults.campaign`)."""

    kind = "faults"

    def build(self):
        from repro.faults.campaign import prepare_scenario

        spec = self.spec
        self.scenario = prepare_scenario(
            spec["scenario"],
            n_seconds=spec.get("seconds", 12),
            seed=self.seed,
        )
        self.kernel = self.scenario.kernel
        # the scenario wires its own flight recorder; ride it instead
        # of attaching a second ring
        self.recorder = self.scenario.recorder
        return self

    def attach_attested(self):
        self.stream = _StreamHash()
        self.kernel.probes.subscribe(self.stream)

    def spawn(self):
        self.scenario.system.start()
        return self

    def drain(self):
        return self.scenario.finish()

    def payload(self, result):
        result = dict(result)
        payload = self._base_payload(result.pop("run_report"))
        payload["scenario"] = result
        return payload

    def run_report(self, metrics=None, profile=None,
                   include_wallclock=False):
        from repro.obs import RunReport

        scenario = self.scenario
        return RunReport.collect(
            self.kernel, metrics=metrics, profile=profile,
            injector=scenario.injector, watchdog=scenario.watchdog,
            degrade=scenario.degrade, include_wallclock=include_wallclock)

    def extras(self):
        scenario = self.scenario
        extras = super().extras()
        extras.update(
            resilience=capture_resilience(
                retry=scenario.retry, watchdog=scenario.watchdog,
                degrade=scenario.degrade,
            ),
            injected=dict(scenario.injector.counts),
            trading=capture_trading(scenario.system.task,
                                    scenario.system.broker),
        )
        return extras


class CheckProgram(ProgramRun):
    """A conformance-check scenario (``repro check``), for
    check-artifact time-travel: the spec embeds the full scenario dict
    (:meth:`repro.check.scenario.Scenario.to_dict`)."""

    kind = "check"

    def build(self):
        from repro.check.runner import build_middleware

        spec = self.spec
        self.middleware, self.events = build_middleware(
            spec["scenario"],
            cost_model=spec.get("cost_model", "zero"),
            noise_seed=spec.get("noise_seed", 0),
        )
        self.kernel = self.middleware.kernel
        # ride the ring the check stack wires, as the faults program does
        self.recorder = self.kernel.probes.flight
        return self

    def spawn(self):
        self.middleware.start()
        return self

    def drain(self):
        """Run to the end (or the check event budget); returns the
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
