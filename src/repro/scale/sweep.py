"""The checked sweep over the scenario farm.

The Figures 10-13 grid and the three ablations are flattened into
independent points (:mod:`repro.bench.sweeps`), each a pure function
of its item dict, so the farmed document is byte-identical at any
``--workers`` count and checkpoints ride the standard
``rtseed-farm-checkpoint/1`` layer.  The paper's claims
(:mod:`repro.bench.claims`) are judged on the merged points inside
the document.
"""

import hashlib
import json

from repro.farm.core import DEFAULT_HEARTBEAT, DEFAULT_RETRIES, farm_map

#: Farmed-sweep report document schema tag (see
#: :mod:`repro.bench.sweeps` and :mod:`repro.bench.claims`).
SCALE_SWEEP_SCHEMA = "rtseed-scale-sweep/2"


def _sweep_item(item):
    """Farm task: one sweep point (module-level, picklable)."""
    from repro.bench.sweeps import run_sweep_item

    return run_sweep_item(item)


def merge_sweep_results(farm_result, items, params):
    """Index-ordered merge of sweep-point payloads, with the verdict
    of every paper claim (:mod:`repro.bench.claims`) on the merged
    points."""
    from repro.bench.claims import evaluate

    points = []
    errors = []
    for index, payload in farm_result.ordered_items():
        if "farm_error" in payload:
            errors.append({
                "index": index,
                "item": items[index],
                "error": payload["farm_error"],
            })
            continue
        points.append({"item": items[index], "result": payload})
    document = {
        "schema": SCALE_SWEEP_SCHEMA,
        "what": "sweep",
        **params,
        "requested_points": len(items),
        "completed_points": len(points),
        "points": points,
        "errors": errors,
        "quarantined": [
            {
                "reason": entry["reason"],
                "indices": list(entry["indices"]),
                "items": [items[index] for index in entry["indices"]],
            }
            for entry in farm_result.quarantined
        ],
        "claims": evaluate(points),
    }
    return document


def farm_scale_sweep(items=None, seed=0, workers=1,
                     heartbeat=DEFAULT_HEARTBEAT,
                     max_retries=DEFAULT_RETRIES, flight_dir=None,
                     on_event=None, context=None, checkpoint_path=None,
                     handle_signals=False):
    """Farm the Figures 10-13 grid and the three ablations, and check
    the paper's claims on the merged points.

    ``items`` defaults to :func:`repro.bench.sweeps.sweep_items` (the
    full figure grid plus every ablation point).  Every point is an
    independent pure function of its item dict, so the merged document
    is byte-identical at any worker count and checkpoints compose the
    usual way; the checkpoint fingerprint covers the items themselves,
    so a checkpoint resumes only the grid it was written for.
    """
    from repro.bench.sweeps import sweep_items

    if items is None:
        items = sweep_items(seed=seed)
    params = {"base_seed": seed}
    canonical = json.dumps(items, sort_keys=True, separators=(",", ":"))
    checkpoint_meta = {
        "what": "scale-sweep", **params, "points": len(items),
        "items_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }
    farm_result = farm_map(
        _sweep_item, items, n_workers=workers, heartbeat=heartbeat,
        max_retries=max_retries, context=context, flight_dir=flight_dir,
        flight_seed=seed, on_event=on_event,
        checkpoint_path=checkpoint_path,
        checkpoint_meta=checkpoint_meta,
        handle_signals=handle_signals,
    )
    return merge_sweep_results(farm_result, items, params), farm_result


def render_scale_report(document):
    """Serialize a sweep document deterministically (byte-stable)."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
