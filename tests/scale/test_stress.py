"""Slow tier: the paper's full 57-core x 4-HT topology at >= 1,000
tasks, as a core-shaped check batch.

Scaled down only in tasks per core, not in topology: every hardware
thread of the Xeon Phi is populated (57 runs of 18 tasks, 1,026 tasks
in all), every core passes the kernel trace / protocol / final-state
oracles inside ``farm_check``, and sampled cores re-judge the same
outside the farm.  Run with ``-m slow``.
"""

import pytest

from repro.check.runner import run_scenario
from repro.check.scenario import derive_run_seed, generate_core_scenario
from repro.farm import farm_check, render_check_report

pytestmark = pytest.mark.slow

CORES = 57
TASKS_PER_CORE = 18
SEED = 0


@pytest.fixture(scope="module")
def batch():
    """One full-topology batch (module-scoped: the run feeds several
    assertions)."""
    document, result = farm_check(CORES, seed=SEED,
                                  tasks_per_core=TASKS_PER_CORE,
                                  workers=2)
    assert result.ok, "farm not ok"
    return document, result.stats


def test_full_topology_clean(batch):
    document, _ = batch
    assert document["completed_runs"] == CORES
    assert document["tasks_per_core"] == TASKS_PER_CORE
    assert document["differential_runs"] == 0
    assert document["total_failures"] == 0
    assert document["errors"] == []
    assert document["quarantined"] == []


def test_wall_clock_stats_stay_out_of_document(batch):
    document, stats = batch
    assert "wall_seconds" in stats
    assert stats["wall_seconds"] > 0
    assert "wall_seconds" not in render_check_report(document)


def test_sampled_shard_oracle_conformance(batch):
    """Re-run a sampled window of cores outside the farm and judge them
    directly — the batch's per-core verdicts must reproduce."""
    for core in (0, 28, 56):
        scenario = generate_core_scenario(derive_run_seed(SEED, core),
                                          n_tasks=TASKS_PER_CORE)
        assert len(scenario.tasks) == TASKS_PER_CORE
        report = run_scenario(scenario)
        assert report.ok, report.summary()
        assert not report.differential_ran
