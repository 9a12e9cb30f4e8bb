"""Long-running fuzz campaigns — excluded from the default (tier-1)
run, exercised by the CI ``fuzz-smoke`` job and on demand::

    PYTHONPATH=src python -m pytest -m fuzz -q
"""

import pytest

from repro.farm import farm_check

pytestmark = pytest.mark.fuzz


def test_clean_campaign_has_zero_divergences():
    document, _ = farm_check(50, seed=5, shrink=False)
    assert document["total_failures"] == 0
    assert document["errors"] == []
    # most runs carry no fault plan, so the differential actually ran
    assert document["differential_runs"] == document["completed_runs"] == 50


def test_faulted_campaign_completes_without_checker_crashes():
    """With faults injected the differential is skipped (faults change
    timing by design); the trace oracles must still hold and the
    checker itself must never crash."""
    document, _ = farm_check(30, seed=11, fault_rate=0.5, shrink=False)
    crashes = [
        artifact for artifact in document["failures"]
        if "crash" in artifact["failure_kinds"]
    ]
    assert document["completed_runs"] == 30
    assert crashes == []
    assert document["total_failures"] == 0
