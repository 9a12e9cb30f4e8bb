"""Whole-stack lockstep: the execution core against its executable model.

The same middleware scenario runs twice with the noisy Xeon Phi cost
model — once as shipped, and once with the kernel's engine, the FIFO
run queues and the cost-model noise swapped for the model
(``tests/engine/reference.py``: the object-per-event engine, the
circular-list level queue, and one scalar ``rng.lognormal`` draw per
priced event).  The recorded ``rtseed.*``/``kernel.*`` probe streams,
the final clock and the event count must be identical.

Fault plans are allowed: ``core_throttle`` exercises mid-run repricing,
``cpu_stall`` the stall multiplier composing after a batched draw.  A
planted skew of the batched noise stream must be flagged, so the
comparison is known to bite.  The swap is
:func:`tests.engine.reference.model_core`.
"""

import pytest

from repro.check.scenario import generate_scenario
from repro.hardware.noise import BatchedLognormalStream
from repro.snapshot.programs import CheckProgram
from tests.engine.reference import (
    ReferenceEngine,
    ReferenceLevelQueue,
    model_core,
)

pytestmark = pytest.mark.tier1


def _run(scenario):
    run = CheckProgram({"scenario": scenario.to_dict(),
                        "cost_model": "xeonphi",
                        "noise_seed": scenario.seed})
    crash = run.build().spawn().drain()
    return run.events, run.kernel, crash


def lockstep(scenario):
    """Run ``scenario`` as shipped and on the model; return the list of
    mismatches (empty when the two runs are identical)."""
    events, kernel, crash = _run(scenario)
    with model_core():
        model_events, model_kernel, model_crash = _run(scenario)
    assert type(model_kernel.engine) is ReferenceEngine
    assert type(model_kernel.runqueues[0]) is ReferenceLevelQueue

    mismatches = []
    if crash != model_crash:
        mismatches.append(f"crash: {crash!r} != {model_crash!r}")
    if len(events) != len(model_events):
        mismatches.append(f"event count: {len(events)} != "
                          f"{len(model_events)}")
    for index, (got, want) in enumerate(zip(events, model_events)):
        if got != want:
            mismatches.append(f"stream at event {index}: {got!r} != "
                              f"{want!r}")
            break
    if kernel.engine.now != model_kernel.engine.now:
        mismatches.append(f"final clock: {kernel.engine.now!r} != "
                          f"{model_kernel.engine.now!r}")
    if kernel.engine.events_processed != \
            model_kernel.engine.events_processed:
        mismatches.append(
            f"events processed: {kernel.engine.events_processed} != "
            f"{model_kernel.engine.events_processed}"
        )
    assert events, "expected a non-empty probe stream"
    return mismatches


def test_fault_free_scenarios_are_equivalent():
    for seed in range(3):
        assert lockstep(generate_scenario(seed)) == [], f"seed {seed}"


@pytest.mark.parametrize("site", ["core_throttle", "cpu_stall"])
def test_hardware_faulted_scenarios_are_equivalent(site):
    checked = 0
    for seed in range(20):
        scenario = generate_scenario(seed, fault_rate=1.0,
                                     fault_sites=(site,))
        if not scenario.has_faults:
            continue
        assert lockstep(scenario) == [], f"seed {seed}"
        checked += 1
        if checked == 2:
            break
    assert checked == 2, f"no {site} plan drawn in 20 seeds"


def test_planted_fast_path_skew_is_detected(monkeypatch):
    """Skew the batched noise stream (the shipped path only) by a
    relative 1e-4: the lockstep comparison must flag it."""
    original = BatchedLognormalStream.next

    def skewed(self):
        return original(self) * 1.0001

    monkeypatch.setattr(BatchedLognormalStream, "next", skewed)
    mismatches = lockstep(generate_scenario(0))
    assert mismatches
    assert any(m.startswith("stream at event") for m in mismatches)
