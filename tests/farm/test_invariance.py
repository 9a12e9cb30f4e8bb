"""Worker-count invariance: the farm's central acceptance property.

The same batch — check runs or a fault campaign —
must produce **byte-identical** merged reports at ``--workers 1``,
``2``, and ``4``, and a farmed campaign must be byte-identical to the
campaign assembled from direct ``run_scenario`` calls.  ``workers=1``
runs in-process through the same merge path, so it is simultaneously
the baseline and the proof that the multiprocessing machinery adds
nothing to the bytes.

The planted-bug case forces real failures (the FIFO-inversion mutation
from the mutation smoke suite) and checks the *shrunk repro artifacts*
inside the report match too — shrinking happens in the workers, so any
order- or process-dependence in the shrinker would surface here.  The
workers inherit the monkeypatched kernel via the ``fork`` start
method.
"""

import pytest

import repro.simkernel.kernel as kernel_mod
from repro.faults.campaign import (
    assemble_campaign,
    render_report,
    run_scenario,
)
from repro.farm import farm_campaign, farm_check, render_check_report

pytestmark = pytest.mark.tier1


def _check_bytes(workers, **kwargs):
    document, result = farm_check(workers=workers, **kwargs)
    assert result.ok
    return render_check_report(document)


def test_check_batch_invariant_across_worker_counts():
    reports = {
        workers: _check_bytes(workers, n_runs=8, seed=5, shrink=False)
        for workers in (1, 2, 4)
    }
    assert reports[1] == reports[2] == reports[4]
    assert '"completed_runs": 8' in reports[1]
    assert '"total_failures": 0' in reports[1]


def test_shrunk_artifacts_invariant_with_planted_bug(monkeypatch):
    # FIFO inversion: woken threads enqueue at the HEAD of their level
    original = kernel_mod.Kernel._make_ready

    def lifo_ready(self, thread, at_head=False):
        return original(self, thread, at_head=True)

    monkeypatch.setattr(kernel_mod.Kernel, "_make_ready", lifo_ready)

    documents = {}
    for workers in (1, 2, 4):
        document, result = farm_check(8, seed=2, shrink=True,
                                      workers=workers, context="fork")
        assert result.ok
        documents[workers] = document
    assert documents[1]["total_failures"] >= 1
    rendered = {workers: render_check_report(document)
                for workers, document in documents.items()}
    assert rendered[1] == rendered[2] == rendered[4]
    # the shrunk artifacts themselves — scenario, failure kinds, shrink
    # provenance — are part of the compared bytes; spot-check shape
    artifact = documents[1]["failures"][0]
    assert artifact["schema"] == "repro-check-repro/1"
    assert artifact["failure_kinds"]
    assert artifact["scenario"]["tasks"]


def test_campaign_farm_matches_serial_bytes():
    names = ["baseline", "cpu_stall"]
    serial = render_report(assemble_campaign(
        names, 2, 3, [run_scenario(name, n_seconds=2, seed=3)
                      for name in names],
    ))
    for workers in (1, 2):
        document, result = farm_campaign(names, n_seconds=2, seed=3,
                                         workers=workers)
        assert result.ok
        assert render_report(document) == serial
    assert '"run_report"' in serial


def test_campaign_merged_run_report_sums_shards():
    names = ["baseline", "cpu_stall"]
    document, _ = farm_campaign(names, n_seconds=2, seed=3, workers=2)
    merged = document["run_report"]
    per_scenario = [document["scenarios"][name]["run_report"]
                    for name in names]
    assert merged["shards"] == len(names)
    assert merged["engine"]["counters"]["events_processed"] == sum(
        report["engine"]["counters"]["events_processed"]
        for report in per_scenario
    )
    assert merged["engine"]["counters"]["peak_heap_size"] == max(
        report["engine"]["counters"]["peak_heap_size"]
        for report in per_scenario
    )
    assert "wallclock" not in merged
    assert "metrics" not in merged
