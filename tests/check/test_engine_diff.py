"""The fast-vs-reference engine differential (``--engine-diff``).

Unlike the theory-oracle differential, this one runs the *same*
middleware stack on both backends — noisy Xeon Phi cost model, fault
plans allowed — and demands byte-identical probe streams.  Tested here:
clean equivalence on fault-free and hardware-faulted scenarios
(``core_throttle`` exercises mid-run repricing, ``cpu_stall`` the
post-draw multiplier), an actual detection (a planted fast-path skew
must be flagged as ``engine_mismatch``), and the farmed batch's
counting.
"""

import pytest

from repro.check import ENGINE_DIFF_FAULT_SITE_MENU, run_engine_diff
from repro.check.scenario import generate_scenario
from repro.farm import farm_check

pytestmark = pytest.mark.tier1


def test_fault_free_scenarios_are_equivalent():
    for seed in range(3):
        scenario = generate_scenario(seed)
        report = run_engine_diff(scenario)
        assert report.differential_ran
        assert report.ok, report.summary()


@pytest.mark.parametrize("site", ["core_throttle", "cpu_stall"])
def test_hardware_faulted_scenarios_are_equivalent(site):
    assert site in ENGINE_DIFF_FAULT_SITE_MENU
    checked = 0
    for seed in range(20):
        scenario = generate_scenario(seed, fault_rate=1.0,
                                     fault_sites=(site,))
        if not scenario.has_faults:
            continue
        report = run_engine_diff(scenario)
        assert report.ok, f"seed {seed}: {report.summary()}"
        checked += 1
        if checked == 2:
            break
    assert checked == 2, f"no {site} plan drawn in 20 seeds"


def test_planted_fast_path_skew_is_detected(monkeypatch):
    """Corrupt the batched noise stream (fast backend only) by half an
    ulp's worth of relative skew: the differential must flag it."""
    from repro.hardware.noise import BatchedLognormalStream

    original = BatchedLognormalStream.next

    def skewed(self):
        return original(self) * 1.0001

    monkeypatch.setattr(BatchedLognormalStream, "next", skewed)
    report = run_engine_diff(generate_scenario(0))
    assert not report.ok
    assert report.divergences
    assert all(d["kind"] == "engine_mismatch"
               for d in report.divergences)


def test_engine_diff_batch_counts_and_artifacts(monkeypatch):
    document, _ = farm_check(3, seed=0, fault_rate=0.0, engine_diff=True)
    assert document["completed_runs"] == 3
    assert document["differential_runs"] == 3
    assert document["total_failures"] == 0
    assert document["failures"] == []

    from repro.hardware.noise import BatchedLognormalStream

    original = BatchedLognormalStream.next
    monkeypatch.setattr(BatchedLognormalStream, "next",
                        lambda self: original(self) * 1.0001)
    document, _ = farm_check(3, seed=0, fault_rate=0.0, engine_diff=True,
                             max_failures=1)
    # no early stop: every run executes, then the list is truncated
    assert document["completed_runs"] == 3
    assert document["total_failures"] == 3
    assert len(document["failures"]) == 1
    artifact = document["failures"][0]
    assert "engine_mismatch" in artifact["failure_kinds"]
