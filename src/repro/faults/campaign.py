"""Resilience campaigns: canned fault scenarios + a JSON report.

A *scenario* of :data:`SCENARIOS` pairs a
:class:`~repro.faults.plan.FaultPlan` factory with the hardening
configuration under test (retry policy, overrun watchdog,
degraded-mode controller).
:class:`repro.snapshot.programs.FaultsProgram` is the one builder of a
scenario run, on the end-to-end trading system
(:class:`~repro.trading.system.RealTimeTradingSystem`): alone (``repro
run --program faults``), snapshotted, or as one item of a *campaign*.
A campaign runs a list of scenarios through the scenario farm
(:func:`repro.farm.farm_campaign`) and :func:`assemble_campaign` folds
the results into one JSON resilience report: deadline misses, QoS,
injected-fault counts, recovery latency.

Everything is seeded and simulated-time only, so a campaign is fully
deterministic: the same scenarios + seed produce a byte-identical
report (CI runs a small campaign twice and compares).
"""

import json

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.report import RunReport
from repro.simkernel.time_units import MSEC


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
