"""Core-shaped check batches: the paper's platform as a check batch.

``farm_check(n, tasks_per_core=K)`` makes run ``k`` one core of the
57-core x 4-HT Xeon Phi holding ``K`` tasks, drawn by
``generate_core_scenario(derive_run_seed(seed, k), n_tasks=K)``.  The
rendered document must honour the farm's contract like any check
batch: a pure function of ``(seed, runs, tasks_per_core, ...)``
regardless of worker count or checkpoint/resume history.  Batches here
are a few small cores so the tier-1 suite stays fast; the full 57-core
batch lives in the ``slow``-tier stress test.
"""

import pytest

from repro.check.scenario import derive_run_seed
from repro.farm import (
    CheckpointMismatchError,
    farm_check,
    merge_check_results,
    render_check_report,
)
from tests.engine.reference import model_core

pytestmark = pytest.mark.tier1

SMALL = dict(n_runs=2, tasks_per_core=4, seed=3)


def test_campaign_document_shape_and_totals():
    document, result = farm_check(workers=1, **SMALL)
    assert result.ok
    assert document["schema"] == "rtseed-farm-check/1"
    assert document["tasks_per_core"] == 4
    assert document["completed_runs"] == 2
    # four tasks on three NRT threads share an optional CPU, so the
    # differential's precondition fails and every run is oracle-only
    assert document["differential_runs"] == 0
    assert document["total_failures"] == 0
    assert document["errors"] == []
    assert document["quarantined"] == []
    generated, _ = farm_check(2, seed=3, workers=1)
    assert "tasks_per_core" not in generated


def test_campaign_worker_count_invariant():
    serial, _ = farm_check(workers=1, **SMALL)
    parallel, _ = farm_check(workers=2, **SMALL)
    assert render_check_report(serial) == render_check_report(parallel)


def test_campaign_engine_backends_agree_on_simulation():
    # one worker runs in-process, so the model core is what simulates
    with model_core():
        model, model_result = farm_check(workers=1, **SMALL)
    core, _ = farm_check(workers=1, **SMALL)
    assert model_result.ok
    assert model["completed_runs"] == 2
    assert render_check_report(model) == render_check_report(core)


def test_campaign_checkpoint_resume_byte_identical(tmp_path):
    checkpoint = tmp_path / "cores.jsonl"
    fresh, _ = farm_check(workers=1, **SMALL)
    first, _ = farm_check(workers=1, checkpoint_path=str(checkpoint),
                          **SMALL)
    assert checkpoint.exists()
    # resume with every run already completed: no work re-runs, the
    # document is still byte-identical
    resumed, result = farm_check(workers=1,
                                 checkpoint_path=str(checkpoint),
                                 **SMALL)
    assert result.ok
    assert render_check_report(resumed) == render_check_report(first) \
        == render_check_report(fresh)


def test_campaign_checkpoint_fingerprint_mismatch(tmp_path):
    checkpoint = tmp_path / "cores.jsonl"
    farm_check(workers=1, checkpoint_path=str(checkpoint), **SMALL)
    for other in (dict(SMALL, seed=SMALL["seed"] + 1),
                  dict(SMALL, tasks_per_core=5),
                  dict(n_runs=2, seed=SMALL["seed"])):
        with pytest.raises(CheckpointMismatchError):
            farm_check(workers=1, checkpoint_path=str(checkpoint),
                       **other)
    # and a generated batch's checkpoint is refused to a core batch
    generated = tmp_path / "generated.jsonl"
    farm_check(2, seed=3, workers=1, checkpoint_path=str(generated))
    with pytest.raises(CheckpointMismatchError):
        farm_check(workers=1, checkpoint_path=str(generated), **SMALL)


def test_merge_reports_farm_errors_with_seeds():
    _document, result = farm_check(workers=1, **SMALL)
    # forge a farm_error payload for core 1 and re-merge
    result.results[1] = {"farm_error": "worker exploded"}
    merged = merge_check_results(result, SMALL["seed"], 2, 0.0, True, 5)
    assert merged["completed_runs"] == 1
    assert merged["errors"] == [{
        "index": 1,
        "seed": derive_run_seed(SMALL["seed"], 1),
        "error": "worker exploded",
    }]


def test_core_batch_refuses_a_fault_rate():
    with pytest.raises(ValueError, match="no fault plan"):
        farm_check(workers=1, fault_rate=0.5, **SMALL)
