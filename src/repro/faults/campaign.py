"""Resilience campaigns: canned fault scenarios + a JSON report.

A *scenario* pairs a :class:`~repro.faults.plan.FaultPlan` with the
hardening configuration under test (retry policy, overrun watchdog,
degraded-mode controller) and runs the end-to-end trading system
(:class:`~repro.trading.system.RealTimeTradingSystem`) under it.  A
*campaign* runs a list of scenarios through the scenario farm
(:func:`repro.farm.farm_campaign`) and :func:`assemble_campaign` folds
the results into one JSON resilience report: deadline misses, QoS,
injected-fault counts, recovery latency.

Everything is seeded and simulated-time only, so a campaign is fully
deterministic: the same scenarios + seed produce a byte-identical
report (CI runs a small campaign twice and compares).
"""

import json

from repro.core.resilience import (
    DegradedModeController,
    OverrunWatchdog,
    RetryPolicy,
)
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.flightrec import FlightRecorder
from repro.obs.report import RunReport
from repro.simkernel.time_units import MSEC, SEC
from repro.trading.network import NetworkModel
from repro.trading.system import RealTimeTradingSystem

#: probe topics the campaign counts per scenario.
_COUNTED_TOPICS = (
    "fault.*",
    "degrade.*",
    "rtseed.job_abort",
    "rtseed.discard",
    "trading.fetch_retry",
    "trading.broker_error",
)


def _signal_storm(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("signal_drop", start=0.25 * horizon,
                      end=0.60 * horizon, probability=0.5),
            FaultSpec("signal_delay", start=0.25 * horizon,
                      end=0.60 * horizon, probability=0.3,
                      delay=3 * MSEC),
            FaultSpec("spurious_wakeup", probability=0.2,
                      delay=0.5 * MSEC),
        ],
        seed=seed, name="signal_storm",
    )


def _timer_drift(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("timer_drift", start=0.2 * horizon,
                      end=0.7 * horizon, probability=0.6,
                      skew=4 * MSEC),
        ],
        seed=seed, name="timer_drift",
    )


def _net_timeouts(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("net_timeout", start=0.2 * horizon,
                      end=0.8 * horizon, probability=0.35,
                      timeout=120 * MSEC),
        ],
        seed=seed, name="net_timeouts",
    )


def _feed_outage(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("feed_gap", start=0.30 * horizon,
                      end=0.50 * horizon, probability=0.5),
            FaultSpec("feed_stale", start=0.50 * horizon,
                      end=0.70 * horizon, probability=0.3),
        ],
        seed=seed, name="feed_outage",
    )


def _broker_flap(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("broker_reject", start=0.2 * horizon,
                      end=0.5 * horizon, probability=0.4),
            FaultSpec("broker_disconnect", start=0.5 * horizon,
                      end=0.8 * horizon, probability=0.4),
        ],
        seed=seed, name="broker_flap",
    )


def _cpu_stall(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("cpu_stall", start=0.3 * horizon,
                      end=0.6 * horizon, factor=3.0),
        ],
        seed=seed, name="cpu_stall",
    )


def _overload_degrade(horizon, seed):
    # Throttle the mandatory thread's core hard enough that jobs blow
    # through their deadlines, driving the controller into degraded
    # mode; the restore at window end lets it recover measurably.
    return FaultPlan(
        [
            FaultSpec("core_throttle", start=0.25 * horizon,
                      end=0.50 * horizon, factor=0.05, cores=[0]),
        ],
        seed=seed, name="overload_degrade",
    )


#: The canned scenario matrix: plan factory + hardening configuration.
SCENARIOS = {
    "baseline": {
        "description": "no faults, no hardening — the parity reference",
        "plan": lambda horizon, seed: FaultPlan([], seed=seed,
                                                name="baseline"),
    },
    "signal_storm": {
        "description": "dropped/late SIGALRMs + spurious wakeups; the "
                       "overrun watchdog backstops lost terminations",
        "plan": _signal_storm,
        "watchdog": True,
        # tight OD so the termination path (and thus SIGALRM traffic)
        # is exercised every job
        "system": {"optional_deadline": 150 * MSEC},
    },
    "timer_drift": {
        "description": "optional-deadline timers fire late",
        "plan": _timer_drift,
        "watchdog": True,
        "system": {"optional_deadline": 150 * MSEC},
    },
    "net_timeouts": {
        "description": "market-data fetch timeouts, retried within the "
                       "deadline budget",
        "plan": _net_timeouts,
        "network": True,
        "retry": True,
    },
    "feed_outage": {
        "description": "feed gaps then stale quotes",
        "plan": _feed_outage,
    },
    "broker_flap": {
        "description": "broker rejects then disconnects",
        "plan": _broker_flap,
    },
    "cpu_stall": {
        "description": "transient 3x micro-cost stall on every CPU",
        "plan": _cpu_stall,
        "watchdog": True,
    },
    "overload_degrade": {
        "description": "core-0 throttle forces deadline misses; "
                       "admission control sheds optional parts and "
                       "recovers after the window",
        "plan": _overload_degrade,
        "watchdog": True,
        "degrade": True,
    },
}


class ScenarioRun:
    """A prepared (not yet run) campaign scenario.

    :func:`prepare_scenario` builds the full system + fault plan +
    hardening stack and wires the campaign's own subscribers, but
    spawns nothing: ``system.start()`` plans and spawns, and
    :meth:`finish` drains the kernel and builds the scenario's report
    dict.  The split exists for the program registry
    (:class:`repro.snapshot.programs.FaultsProgram`), which attaches
    its observers before the spawn and may fast-forward the engine to
    a barrier before the drain; :func:`run_scenario` is the one-shot
    composition the campaign uses.
    """

    def __init__(self, name, config, n_seconds, seed, plan, injector,
                 system, events, retry, watchdog, degrade, recorder):
        self.name = name
        self.config = config
        self.n_seconds = n_seconds
        self.seed = seed
        self.plan = plan
        self.injector = injector
        self.system = system
        self.kernel = system.middleware.kernel
        self.events = events
        self.retry = retry
        self.watchdog = watchdog
        self.degrade = degrade
        self.recorder = recorder

    def finish(self):
        """Drain the kernel; returns the scenario's report dict."""
        report = self.system.finish()
        task = self.system.task
        probes = report.task_result.probes
        misses = len(report.task_result.deadline_misses)
        summary = report.summary()

        result = {
            "scenario": self.name,
            "description": self.config["description"],
            "seed": self.seed,
            "n_seconds": self.n_seconds,
            "plan": self.plan.to_dict(),
            "injected": dict(self.injector.counts),
            "events": self.events,
            "jobs": len(probes),
            "deadline_misses": misses,
            "miss_ratio": misses / len(probes) if probes else 0.0,
            "aborted_jobs": sum(1 for p in probes if p.aborted),
            "qos_ms": summary["qos_ms"],
            "trades": summary["trades"],
            "rejected": summary["rejected"],
            "equity": summary["equity"],
            "broker_failures": len(task.broker_failures),
            "run_report": RunReport.collect(
                self.kernel, injector=self.injector,
                watchdog=self.watchdog, degrade=self.degrade,
                include_wallclock=False,
            ).to_dict(),
        }
        if self.watchdog is not None:
            result["watchdog_fires"] = len(self.watchdog.fired)
        if self.degrade is not None:
            degrade = self.degrade
            result["degraded"] = {
                "episodes": len(degrade.episodes),
                "shed_jobs": degrade.shed_jobs,
                "recovery_latency_ms": [
                    latency / MSEC
                    for latency in degrade.recovery_latencies
                ],
            }
        return result


def prepare_scenario(name, n_seconds=30, seed=0, flight_dir=None,
                     _sabotage=None):
    """Build one canned scenario, not yet spawned; returns a
    :class:`ScenarioRun` (see :func:`run_scenario` for parameters)."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; valid: {sorted(SCENARIOS)}"
        )
    config = SCENARIOS[name]
    horizon = n_seconds * SEC
    plan = config["plan"](horizon, seed)
    injector = FaultInjector(plan)

    network = None
    if config.get("network"):
        network = injector.wrap_network(NetworkModel(seed=seed))
    retry = RetryPolicy(max_attempts=3, backoff=5 * MSEC,
                        reserve=100 * MSEC) if config.get("retry") else None
    watchdog = OverrunWatchdog(grace=5 * MSEC) \
        if config.get("watchdog") else None
    degrade = DegradedModeController(enter_after=3, exit_after=2) \
        if config.get("degrade") else None

    system = RealTimeTradingSystem(
        n_seconds=n_seconds, seed=seed, network=network,
        retry_policy=retry, watchdog=watchdog, degrade=degrade,
        **config.get("system", {}),
    )
    task = system.task
    task.feed = injector.wrap_feed(task.feed)
    task.broker = injector.wrap_broker(task.broker)
    kernel = system.middleware.kernel

    events = {}

    def count_event(topic, _time, _data):
        events[topic] = events.get(topic, 0) + 1

    kernel.probes.subscribe(count_event, topics=_COUNTED_TOPICS)
    recorder = FlightRecorder.attach(kernel, dump_dir=flight_dir,
                                     seed=seed)
    recorder.degrade = degrade
    injector.attach(kernel)
    if _sabotage is not None:
        _sabotage(kernel)

    return ScenarioRun(name, config, n_seconds, seed, plan, injector,
                       system, events, retry, watchdog, degrade,
                       recorder)


def run_scenario(name, n_seconds=30, seed=0, flight_dir=None,
                 _sabotage=None):
    """Run one canned scenario; returns its (JSON-ready) report dict.

    :param flight_dir: when set, a
        :class:`~repro.obs.flightrec.FlightRecorder` rides along
        passively and dumps its ring into this directory at every
        failure edge (invariant violation, degraded-mode entry,
        watchdog fire).
    :param _sabotage: test hook — ``f(kernel)`` called after setup,
        before the run; used to plant invariant violations for
        flight-recorder smoke tests.
    """
    scenario = prepare_scenario(
        name, n_seconds=n_seconds, seed=seed, flight_dir=flight_dir,
        _sabotage=_sabotage,
    )
    scenario.system.start()
    return scenario.finish()


def assemble_campaign(names, n_seconds, seed, results):
    """Build the campaign document from per-scenario result dicts
    (``repro.farm.farm_campaign`` passes them in name order).  The
    top-level ``run_report`` merges every scenario's per-run telemetry
    (:meth:`repro.obs.report.RunReport.merge`).
    """
    scenarios = dict(zip(names, results))
    document = {
        "campaign": "rtseed-resilience",
        "seed": seed,
        "n_seconds": n_seconds,
        "scenarios": scenarios,
    }
    run_reports = [result["run_report"] for result in results
                   if "run_report" in result]
    if run_reports:
        document["run_report"] = RunReport.merge(run_reports).to_dict()
    return document


def render_report(report):
    """Serialize a campaign report deterministically (byte-stable)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
