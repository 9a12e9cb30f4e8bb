"""Farm jobs: the batch shapes the farm knows how to shard.

Two workloads ride the farm (:func:`~repro.farm.core.farm_map`):

* **check batches** — differential conformance runs over generated
  scenarios or over Xeon Phi cores (:func:`farm_check`);
* **fault campaigns** — the canned resilience scenario matrix
  (:func:`farm_campaign`).

Each defines its work items so that a single item is a pure function of
the item description (the check runs derive their scenario RNG from
``derive_run_seed(base_seed, index)``; campaign scenarios are seeded by
name), which is what makes the merged report a pure function of the
batch — independent of worker count, scheduling order, and retries.
An item runs one program of the registry
(:mod:`repro.snapshot.programs`): a check item a ``CheckProgram``
through :func:`repro.check.runner.run_fuzz_index`, a campaign item a
``FaultsProgram``, built, spawned and drained.

These are the only runners of those batches: ``repro check`` and
``repro faults`` call :func:`farm_check` / :func:`farm_campaign`, and
``workers=1`` runs in-process through the same merge.  The check farm
emits its own report document (:data:`CHECK_FARM_SCHEMA`); the
campaign farm builds the ``rtseed-resilience`` document with
:func:`repro.faults.campaign.assemble_campaign`.
"""

import functools
import json
import os

from repro.farm.core import DEFAULT_HEARTBEAT, DEFAULT_RETRIES, farm_map

#: Check-farm report document schema tag.
CHECK_FARM_SCHEMA = "rtseed-farm-check/1"


def _check_item(item):
    """Farm task: one conformance check run (module-level so the task
    pickles under the ``spawn`` start method)."""
    from repro.check.runner import run_fuzz_index

    return run_fuzz_index(item["base_seed"], item["index"],
                          fault_rate=item["fault_rate"],
                          shrink=item["shrink"],
                          tasks_per_core=item.get("tasks_per_core"))


def _campaign_item(name, n_seconds, seed, flight_dir):
    """Farm task: one campaign scenario (partial-bound, picklable).

    Its flight dumps go to ``flight_dir/<name>/``: dump names are
    numbered per process, so scenarios of different workers sharing
    one directory would overwrite each other's files.
    """
    from repro.snapshot.programs import FaultsProgram

    if flight_dir is not None:
        flight_dir = os.path.join(flight_dir, name)
    run = FaultsProgram({"scenario": name, "seconds": n_seconds,
                         "seed": seed}, flight_dir=flight_dir)
    return run.build().spawn().drain()


def merge_check_results(farm_result, base_seed, n_runs, fault_rate,
                        shrink, max_failures):
    """Index-ordered merge of check payloads into the farm report doc.

    The document contains only worker-count-invariant data: payloads
    are merged in item-index order, ``failures`` is truncated to
    ``max_failures`` *after* the merge (the farm never early-stops a
    batch — an early stop would make the failure set depend on
    completion order), and quarantined shards surface their unfinished
    indices *and* the scenario seeds those indices would have run —
    never silently dropped.  Wall-clock and worker diagnostics stay on
    :attr:`~repro.farm.core.FarmResult.stats`.
    """
    from repro.check.scenario import derive_run_seed

    completed = 0
    differential_runs = 0
    failures = []
    errors = []
    for index, payload in farm_result.ordered_items():
        if "farm_error" in payload:
            errors.append({
                "index": index,
                "seed": derive_run_seed(base_seed, index),
                "error": payload["farm_error"],
            })
            continue
        completed += 1
        differential_runs += payload["differential_ran"]
        if not payload["ok"]:
            failures.append(payload["artifact"])
    document = {
        "schema": CHECK_FARM_SCHEMA,
        "mode": "check",
        "base_seed": base_seed,
        "fault_rate": fault_rate,
        "shrink": shrink,
        "requested_runs": n_runs,
        "completed_runs": completed,
        "differential_runs": differential_runs,
        "total_failures": len(failures),
        "failures": failures[:max_failures],
        "errors": errors,
        "quarantined": [
            {
                "reason": entry["reason"],
                "indices": list(entry["indices"]),
                "seeds": [derive_run_seed(base_seed, index)
                          for index in entry["indices"]],
            }
            for entry in farm_result.quarantined
        ],
    }
    return document


def farm_check(n_runs, seed=0, fault_rate=0.0, shrink=True,
               max_failures=5, workers=1, heartbeat=DEFAULT_HEARTBEAT,
               max_retries=DEFAULT_RETRIES, flight_dir=None,
               on_event=None, context=None, checkpoint_path=None,
               handle_signals=False, tasks_per_core=None):
    """Run a check batch across ``workers`` processes.

    Returns ``(document, farm_result)`` — the deterministic report dict
    (render with :func:`render_check_report`) and the raw
    :class:`~repro.farm.core.FarmResult` with stats/quarantine detail.

    There is no early stop: the farm runs *every* index
    regardless of failures, then truncates the merged failure list to
    ``max_failures`` in index order — the report is identical at any
    worker count.  ``flight_dir`` receives the quarantine flight dump.

    ``checkpoint_path`` enables crash/interrupt resume: completed runs
    are appended to the file and skipped on the next invocation with
    the same batch fingerprint (seed/runs/fault_rate/shrink, and
    tasks_per_core when set).

    ``tasks_per_core`` makes run ``k`` one Xeon Phi core holding that
    many tasks (:func:`~repro.check.scenario.generate_core_scenario`)
    instead of a generated scenario; core scenarios draw no fault
    plan, so it refuses a positive ``fault_rate``.  The items, the
    checkpoint fingerprint and the document carry ``tasks_per_core``
    only when it is set, so a generated batch keeps its bytes.
    """
    if tasks_per_core is not None and fault_rate > 0:
        raise ValueError("core scenarios draw no fault plan; "
                         f"fault_rate must be 0, got {fault_rate}")
    shape = {} if tasks_per_core is None else {
        "tasks_per_core": tasks_per_core}
    items = [
        {"base_seed": seed, "index": index, "fault_rate": fault_rate,
         "shrink": shrink, **shape}
        for index in range(n_runs)
    ]
    checkpoint_meta = {"what": "check", "base_seed": seed, "runs": n_runs,
                       "fault_rate": fault_rate, "shrink": shrink, **shape}
    farm_result = farm_map(
        _check_item, items, n_workers=workers, heartbeat=heartbeat,
        max_retries=max_retries, context=context, flight_dir=flight_dir,
        flight_seed=seed, on_event=on_event,
        checkpoint_path=checkpoint_path,
        checkpoint_meta=checkpoint_meta,
        handle_signals=handle_signals,
    )
    document = merge_check_results(
        farm_result, seed, n_runs, fault_rate, shrink, max_failures,
    )
    document.update(shape)
    return document, farm_result


def render_check_report(document):
    """Serialize a check-farm report deterministically (byte-stable)."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def farm_campaign(scenarios=None, n_seconds=30, seed=0, workers=1,
                  heartbeat=DEFAULT_HEARTBEAT,
                  max_retries=DEFAULT_RETRIES, flight_dir=None,
                  on_event=None, context=None, checkpoint_path=None,
                  handle_signals=False):
    """Run a resilience campaign across ``workers`` processes.

    Returns ``(document, farm_result)``: the
    :func:`repro.faults.campaign.assemble_campaign` document of the
    completed scenarios, byte-identical at any worker count.  A
    quarantined or errored scenario appears under ``"incomplete"`` with
    its name and reason instead of vanishing.  An unknown scenario
    name raises ``KeyError`` and a repeated one ``ValueError``.

    ``flight_dir`` receives the quarantine flight dump, and each
    scenario's own flight dumps under ``flight_dir/<scenario>/``.

    ``checkpoint_path`` enables crash/interrupt resume: completed
    scenarios are appended to the file and skipped on the next
    invocation with the same fingerprint (scenarios/seconds/seed).
    """
    from repro.faults.campaign import SCENARIOS, assemble_campaign

    names = list(scenarios) if scenarios else sorted(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r}; valid: {sorted(SCENARIOS)}"
            )
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"scenarios named more than once: {repeated}; "
                         "the document keys scenarios by name")
    task = functools.partial(_campaign_item, n_seconds=n_seconds,
                             seed=seed, flight_dir=flight_dir)
    checkpoint_meta = {"what": "campaign", "scenarios": names,
                      "n_seconds": n_seconds, "seed": seed}
    farm_result = farm_map(
        task, names, n_workers=workers, heartbeat=heartbeat,
        max_retries=max_retries, context=context, flight_dir=flight_dir,
        flight_seed=seed, on_event=on_event,
        checkpoint_path=checkpoint_path,
        checkpoint_meta=checkpoint_meta,
        handle_signals=handle_signals,
    )
    incomplete = []
    completed_names = []
    completed_results = []
    for index, name in enumerate(names):
        payload = farm_result.results.get(index)
        if payload is None:
            reason = "quarantined"
            for entry in farm_result.quarantined:
                if index in entry["indices"]:
                    reason = f"quarantined: {entry['reason']}"
            incomplete.append({"scenario": name, "reason": reason})
        elif "farm_error" in payload:
            incomplete.append({"scenario": name,
                               "reason": payload["farm_error"]})
        else:
            completed_names.append(name)
            completed_results.append(payload)
    document = assemble_campaign(completed_names, n_seconds, seed,
                                 completed_results)
    if incomplete:
        document["incomplete"] = incomplete
    return document, farm_result
