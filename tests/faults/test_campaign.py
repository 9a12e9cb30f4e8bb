"""End-to-end tests for the resilience campaign runner."""

import io
import json

import pytest

from repro.cli import main
from repro.farm import farm_campaign
from repro.faults.campaign import SCENARIOS, render_report
from repro.simkernel.time_units import SEC
from repro.snapshot.programs import FaultsProgram

pytestmark = pytest.mark.tier1


def scenario_result(name, n_seconds, seed):
    """One campaign scenario's result dict."""
    run = FaultsProgram({"scenario": name, "seconds": n_seconds,
                         "seed": seed})
    return run.build().spawn().drain()


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError, match="unknown scenario"):
        FaultsProgram({"scenario": "nope"}).build()


def test_every_scenario_builds_a_valid_plan():
    for name, config in SCENARIOS.items():
        plan = config["plan"](30 * SEC, 0)
        assert plan.name == name
        for spec in plan:
            assert spec.site  # validated by FaultSpec already


def test_campaign_is_byte_deterministic():
    """Same scenarios + seed => byte-identical JSON report (the CI
    faults-smoke invariant)."""
    names = ["baseline", "net_timeouts", "overload_degrade"]
    first, _ = farm_campaign(names, n_seconds=12, seed=7)
    second, _ = farm_campaign(names, n_seconds=12, seed=7)
    assert render_report(first) == render_report(second)
    # and the rendering is valid, round-trippable JSON
    assert json.loads(render_report(first)) == first


def test_farm_campaign_refuses_a_repeated_scenario():
    """Regression: a repeated name ran twice; the document keyed it
    once, but its merged ``run_report`` summed both runs."""
    with pytest.raises(ValueError, match=r"more than once: \['baseline'\]"):
        farm_campaign(["baseline", "cpu_stall", "baseline"], n_seconds=2,
                      seed=0)


def test_one_scenario_gives_one_result_through_both_entry_points():
    """A campaign scenario reproduces alone: its entry in the campaign
    document, less its ``run_report``, is the ``scenario`` section of
    ``repro run --program faults --emit payload`` at the same seconds
    and seed, and the two run reports are equal."""
    names = ["cpu_stall", "overload_degrade"]
    args = ["--seconds", "6", "--seed", "3"]
    out = io.StringIO()
    assert main(["faults", "--scenario", ",".join(names), *args],
                out=out) == 0
    scenarios = json.loads(out.getvalue())["scenarios"]
    for name in names:
        out = io.StringIO()
        assert main(["run", "--program", "faults", "--scenario", name,
                     *args, "--emit", "payload"], out=out) == 0
        payload = json.loads(out.getvalue())
        result = dict(scenarios[name])
        assert result.pop("run_report") == payload["run_report"]
        assert result == payload["scenario"]


def test_baseline_scenario_injects_nothing():
    report = scenario_result("baseline", n_seconds=10, seed=0)
    assert report["injected"] == {}
    assert report["events"] == {}
    assert report["deadline_misses"] == 0
    assert report["aborted_jobs"] == 0
    assert report["jobs"] == 10


def test_net_timeouts_scenario_retries_within_budget():
    report = scenario_result("net_timeouts", n_seconds=30, seed=0)
    assert report["injected"]["net_timeout"] > 0
    assert report["events"].get("trading.fetch_retry", 0) > 0
    # retries keep the protocol alive: most jobs still complete
    assert report["jobs"] == 30


def test_overload_degrade_enters_and_recovers():
    """The headline acceptance scenario: sustained misses push the
    system into degraded mode, shedding clears pressure, and it
    recovers with a measurable latency."""
    report = scenario_result("overload_degrade", n_seconds=30, seed=0)
    assert report["injected"]["core_throttle"] >= 1
    assert report["deadline_misses"] >= 3
    degraded = report["degraded"]
    assert degraded["episodes"] >= 1
    assert degraded["shed_jobs"] >= 1
    assert degraded["recovery_latency_ms"], "never recovered"
    events = report["events"]
    assert events.get("degrade.enter", 0) >= 1
    assert events.get("degrade.exit", 0) >= 1
    assert events.get("degrade.shed", 0) >= 1


def test_signal_storm_exercises_signal_faults_and_watchdog():
    report = scenario_result("signal_storm", n_seconds=30, seed=0)
    injected = report["injected"]
    assert injected["spurious_wakeup"] > 0
    assert injected["signal_drop"] > 0
    # every lost termination was backstopped by the watchdog
    assert report["watchdog_fires"] >= injected["signal_drop"] - \
        report["deadline_misses"] - 1
    assert report["watchdog_fires"] > 0
    # spurious wakeups alone never miss deadlines (Mesa wait loops)


def test_report_embeds_the_exact_plan():
    report = scenario_result("timer_drift", n_seconds=10, seed=3)
    plan = report["plan"]
    assert plan["name"] == "timer_drift"
    assert plan["seed"] == 3
    assert [spec["site"] for spec in plan["specs"]] == ["timer_drift"]
