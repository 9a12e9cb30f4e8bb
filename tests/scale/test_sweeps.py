"""Farmable sweep specs and the farmed sweep document.

The sweep grid must stay a flat list of self-describing item dicts
(pure JSON, picklable across farm workers) whose payloads are pure
functions of their items — that, plus the index-ordered merge, is what
makes ``repro scale --what sweep`` worker-count-invariant.
"""

import json

import pytest

from repro.bench.claims import CLAIMS
from repro.bench.sweeps import (
    SWEEP_LOADS,
    SWEEP_POLICIES,
    figure_items,
    run_sweep_item,
    sweep_items,
)
from repro.farm import CheckpointMismatchError
from repro.scale import (
    SCALE_SWEEP_SCHEMA,
    farm_scale_sweep,
    render_scale_report,
)

pytestmark = pytest.mark.tier1


def test_figure_items_cover_grid():
    items = figure_items(counts=(4, 8), n_jobs=2)
    assert len(items) == len(SWEEP_LOADS) * len(SWEEP_POLICIES) * 2
    for item in items:
        assert item["kind"] == "figure"
        assert item["policy"] in SWEEP_POLICIES
        assert item["load"] in SWEEP_LOADS
        assert item["np"] in (4, 8)


def test_sweep_items_json_safe():
    items = sweep_items()
    assert items == json.loads(json.dumps(items))
    assert len(items) == 93


def test_run_sweep_item_figure_point():
    payload = run_sweep_item({
        "kind": "figure", "policy": "one_by_one", "load": "none",
        "np": 4, "jobs": 2, "seed": 0,
    })
    assert set(payload["overheads_us"]) == set("mbse")
    assert payload["overheads_us"]["m"]["mean_us"] is not None
    assert sum(payload["fates"].values()) > 0


def test_run_sweep_item_schedulability_point():
    payload = run_sweep_item({
        "kind": "ablation_schedulability", "utilization": 0.5,
        "trials": 3,
    })
    assert payload["trials"] == 3
    ratios = payload["acceptance_ratio"]
    assert "RMWP" in ratios and "G-RMWP" in ratios
    assert all(0.0 <= ratio <= 1.0 for ratio in ratios.values())


def test_run_sweep_item_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_sweep_item({"kind": "nonsense"})


def test_run_sweep_item_deterministic():
    item = {"kind": "ablation_global_vs_partitioned",
            "utilization": 0.5, "trials": 2}
    assert run_sweep_item(item) == run_sweep_item(dict(item))


def test_farmed_sweep_worker_count_invariant():
    # a small hand-picked grid keeps this fast while still crossing
    # the figure/ablation dispatch boundary
    items = [
        {"kind": "figure", "policy": "one_by_one", "load": "none",
         "np": 4, "jobs": 2, "seed": 0},
        {"kind": "ablation_schedulability", "utilization": 0.5,
         "trials": 2},
        {"kind": "ablation_global_vs_partitioned", "utilization": 0.5,
         "trials": 1},
    ]
    serial, result = farm_scale_sweep(items=items, workers=1)
    parallel, _ = farm_scale_sweep(items=items, workers=2)
    assert result.ok
    assert serial["schema"] == SCALE_SWEEP_SCHEMA
    assert serial["completed_points"] == len(items)
    assert serial["errors"] == []
    # points come back in item order with their items attached
    assert [point["item"] for point in serial["points"]] == items
    assert render_scale_report(serial) == render_scale_report(parallel)


def _small_items(np_):
    return [
        {"kind": "figure", "policy": "one_by_one", "load": "none",
         "np": np_, "jobs": 2, "seed": 0},
        {"kind": "ablation_global_vs_partitioned", "utilization": 0.5,
         "trials": 1},
    ]


def test_sweep_document_carries_claims_sorted_by_id():
    document, _result = farm_scale_sweep(items=_small_items(4))
    assert "quick" not in document
    claims = document["claims"]
    assert [claim["id"] for claim in claims] == sorted(
        claim_id for claim_id, _anchor, _check in CLAIMS
    )
    # a custom grid lacks most points: a claim that reads one fails and
    # names it; a claim whose points are all present is judged
    verdicts = {claim["id"]: claim for claim in claims}
    growth = verdicts["fig13.growth"]
    assert not growth["holds"] and growth["margin"] is None
    assert {"kind": "figure", "load": "none", "policy": "one_by_one",
            "np": 57} in growth["missing"]
    assert verdicts[
        "global_vs_partitioned.partitioned_never_migrates"
    ]["missing"] == [
        {"kind": "ablation_global_vs_partitioned", "utilization": 0.4},
        {"kind": "ablation_global_vs_partitioned", "utilization": 0.6},
    ]


def test_checkpoint_resumes_only_the_items_it_was_written_for(tmp_path):
    path = tmp_path / "sweep.jsonl"
    first, _result = farm_scale_sweep(items=_small_items(4),
                                      checkpoint_path=str(path))
    resumed, _result = farm_scale_sweep(items=_small_items(4),
                                        checkpoint_path=str(path))
    assert render_scale_report(resumed) == render_scale_report(first)
    # same length, same seed, different items: refused, not relabelled
    with pytest.raises(CheckpointMismatchError):
        farm_scale_sweep(items=_small_items(8), checkpoint_path=str(path))
