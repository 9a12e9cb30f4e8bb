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

Every program exposes the same four-step surface:

``start()``
    Build the workload and spawn everything (no events run yet).
``run_to_events(n)``
    Drive the engine to exactly ``n`` processed events.
``finish()``
    Drain to completion and return the program's deterministic JSON
    payload (the byte-identity object CI ``cmp``'s).
``extras()``
    Program-specific state sections merged into the capture
    (resilience controllers, trading feed/broker state, the flight
    ring).

Four program kinds cover the robustness surfaces: ``overheads`` (the
fig10-style evaluation workload), ``trade`` (the end-to-end trading
system), ``faults:<scenario>`` (a canned resilience scenario, fault
plan active), and ``check`` (a conformance scenario, for check-artifact
time-travel).
"""

import hashlib
import json

from repro.snapshot.core import SnapshotError
from repro.snapshot.state import (
    capture_flight,
    capture_resilience,
    capture_trading,
)


#: ``json.dumps(obj, sort_keys=True, default=str)`` without building a
#: new encoder per call: the same bytes, once per probe event.
_encode_event = json.JSONEncoder(sort_keys=True, default=str).encode


class _StreamHash:
    """Probe subscriber that folds every event into a SHA-256.

    Subscribing it is what makes "the probe stream is byte-identical"
    a *checkable* payload property: the uninterrupted run and the
    resumed run both carry the hash of every ``(topic, time, payload)``
    triple they published.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self.events = 0

    def __call__(self, topic, time, data):
        self.events += 1
        self._hash.update(
            _encode_event([topic, time, sorted(data.items())]).encode()
        )

    def hexdigest(self):
        return self._hash.hexdigest()


class ProgramRun:
    """Base class: engine fast-forward + payload plumbing."""

    kind = "abstract"

    def __init__(self, spec):
        self.spec = dict(spec)
        self.spec["kind"] = self.kind
        self.kernel = None
        self.stream = _StreamHash()

    @property
    def seed(self):
        return self.spec.get("seed", 0)

    def start(self):
        raise NotImplementedError

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

    def finish(self):
        raise NotImplementedError

    def extras(self):
        return {}

    def _attach_observers(self, kernel):
        """The identical observer set on every execution of this
        program — uninterrupted, checkpointed, or resumed."""
        from repro.obs import FlightRecorder, SchedulerMetrics

        self.kernel = kernel
        kernel.probes.subscribe(self.stream)
        self.metrics = SchedulerMetrics.attach(kernel)
        self.recorder = FlightRecorder.attach(kernel, seed=self.seed)

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
    """The fig10-style evaluation workload (``repro report``'s default
    shape): one task, ``np`` parallel optional parts, ``jobs`` jobs."""

    kind = "overheads"

    def start(self):
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
        self._attach_observers(middleware.kernel)
        middleware.start()
        return self

    def finish(self):
        from repro.obs import RunReport

        self.middleware.finish()
        report = RunReport.collect(self.kernel, metrics=self.metrics,
                                   include_wallclock=False)
        return self._base_payload(report.to_dict())

    def extras(self):
        return {"flight": capture_flight(self.recorder)}


class TradeProgram(ProgramRun):
    """The end-to-end real-time trading system."""

    kind = "trade"

    def start(self):
        from repro.hardware.loads import BackgroundLoad
        from repro.trading.system import RealTimeTradingSystem

        spec = self.spec
        system = RealTimeTradingSystem(
            n_seconds=spec.get("seconds", 12),
            seed=self.seed,
            policy=spec.get("policy", "one_by_one"),
            load=BackgroundLoad[spec.get("load", "NONE")],
        )
        self.system = system
        self._attach_observers(system.middleware.kernel)
        system.start()
        return self

    def finish(self):
        from repro.obs import RunReport

        report = self.system.finish()
        run_report = RunReport.collect(self.kernel,
                                       metrics=self.metrics,
                                       include_wallclock=False)
        payload = self._base_payload(run_report.to_dict())
        payload["trading"] = report.summary()
        return payload

    def extras(self):
        return {
            "trading": capture_trading(self.system.task,
                                       self.system.broker),
            "flight": capture_flight(self.recorder),
        }


class FaultsProgram(ProgramRun):
    """A canned resilience scenario — fault plan active, hardening
    stack wired (:mod:`repro.faults.campaign`)."""

    kind = "faults"

    def start(self):
        from repro.faults.campaign import prepare_scenario

        spec = self.spec
        scenario = prepare_scenario(
            spec["scenario"],
            n_seconds=spec.get("seconds", 12),
            seed=self.seed,
        )
        self.scenario = scenario
        # the scenario wires its own flight recorder; ride it instead
        # of attaching a second ring
        self.kernel = scenario.kernel
        self.kernel.probes.subscribe(self.stream)
        self.recorder = scenario.recorder
        return self

    def finish(self):
        result = self.scenario.finish()
        payload = self._base_payload(result.pop("run_report"))
        payload["scenario"] = result
        return payload

    def extras(self):
        scenario = self.scenario
        return {
            "resilience": capture_resilience(
                retry=scenario.retry, watchdog=scenario.watchdog,
                degrade=scenario.degrade,
            ),
            "injected": dict(scenario.injector.counts),
            "trading": capture_trading(scenario.system.task,
                                       scenario.system.broker),
            "flight": capture_flight(self.recorder),
        }


class CheckProgram(ProgramRun):
    """A conformance-check scenario (``repro check``), for
    check-artifact time-travel: the spec embeds the full scenario dict
    (:meth:`repro.check.scenario.Scenario.to_dict`)."""

    kind = "check"

    def start(self):
        from repro.check.runner import build_middleware

        spec = self.spec
        middleware, events = build_middleware(
            spec["scenario"],
            collect_kernel_events=spec.get("collect_kernel_events",
                                           True),
            cost_model=spec.get("cost_model", "zero"),
            noise_seed=spec.get("noise_seed", 0),
        )
        self.middleware = middleware
        self.events = events
        self._attach_observers(middleware.kernel)
        middleware.start()
        return self

    def finish(self):
        from repro.check.runner import MAX_KERNEL_EVENTS
        from repro.obs import RunReport
        from repro.simkernel.errors import SimKernelError

        crash = None
        budget = MAX_KERNEL_EVENTS - self.kernel.engine.events_processed
        try:
            self.middleware.finish(max_events=max(budget, 0))
        except SimKernelError as error:
            crash = f"{type(error).__name__}: {error}"
        self.crash = crash
        report = RunReport.collect(self.kernel, metrics=self.metrics,
                                   include_wallclock=False)
        payload = self._base_payload(report.to_dict())
        payload["crash"] = crash
        payload["check_events"] = len(self.events)
        return payload

    def extras(self):
        return {"flight": capture_flight(self.recorder)}


#: Program registry: spec ``kind`` -> class.
PROGRAMS = {
    OverheadsProgram.kind: OverheadsProgram,
    TradeProgram.kind: TradeProgram,
    FaultsProgram.kind: FaultsProgram,
    CheckProgram.kind: CheckProgram,
}


def build_program(spec):
    """Instantiate (without starting) the program a spec describes."""
    kind = spec.get("kind")
    if kind not in PROGRAMS:
        raise SnapshotError(
            f"unknown program kind {kind!r}; valid: {sorted(PROGRAMS)}"
        )
    return PROGRAMS[kind](spec)
