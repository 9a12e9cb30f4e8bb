"""Determinism regression: identical seeds must give byte-identical
probe-event streams — the property every differential run, repro
artifact and seeded campaign rests on."""

import json

import pytest

from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
from repro.check.runner import run_simulator
from repro.check.scenario import generate_scenario
from repro.core.middleware import RTSeed
from repro.snapshot.programs import CheckProgram

pytestmark = pytest.mark.tier1


def _serialize(events):
    return json.dumps(events, sort_keys=True).encode()


def _fig10_stream(seed):
    """The Figure 10 benchmark workload with a full probe subscription."""
    middleware = RTSeed(seed=seed)
    events = []
    middleware.probes.subscribe(
        lambda topic, time, data: events.append((topic, time,
                                                 dict(data))),
        topics=["rtseed.*", "kernel.*"],
    )
    middleware.add_task(
        make_eval_task(8, 50_000.0),
        n_jobs=3,
        cpu=0,
        optional_deadline=OPTIONAL_DEADLINE,
    )
    middleware.run()
    return events


def test_fig10_workload_stream_is_deterministic():
    first = _fig10_stream(seed=42)
    second = _fig10_stream(seed=42)
    assert first  # the subscription actually saw traffic
    assert _serialize(first) == _serialize(second)


def test_fault_campaign_scenario_stream_is_deterministic():
    # find a generated scenario that actually carries a fault plan
    scenario = None
    for seed in range(40):
        scenario = generate_scenario(seed, fault_rate=1.0)
        if scenario.has_faults:
            break
    assert scenario is not None and scenario.has_faults

    streams = []
    for _ in range(2):
        run = CheckProgram({"scenario": scenario.to_dict()})
        assert run.build().spawn().drain() is None
        streams.append(_serialize(run.events))
    assert streams[0] == streams[1]


def test_simulator_stream_is_deterministic():
    scenario = generate_scenario(3)
    first, _ = run_simulator(scenario)
    second, _ = run_simulator(scenario)
    assert first
    assert _serialize(first) == _serialize(second)
