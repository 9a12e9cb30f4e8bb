"""Farm resilience: crashed and hung workers, retry, quarantine.

A worker that dies mid-shard (``os._exit``, simulating a segfault or
OOM kill) or wedges (no heartbeat) must never silently drop work: the
parent retries the shard's remaining items once on a fresh process,
and a shard that fails again is quarantined into the result with its
unfinished indices — plus, at the report level, the scenario seeds
those indices would have run — and a flight-recorder dump of the
``farm.*`` lifecycle ring.

All tests force the ``fork`` start method (Linux CI): the sabotage
tasks are closures over tmp-path marker files, which only fork can
ship to the worker.
"""

import json
import os
import time

import pytest

import repro.check.runner as runner_mod
from repro.farm import farm_check, farm_map
from repro.farm.core import _SeqClock

pytestmark = pytest.mark.tier1


def test_crash_then_retry_succeeds(tmp_path):
    marker = tmp_path / "crashed-once"

    def task(item):
        if item == 2 and not marker.exists():
            marker.write_text("x")
            os._exit(13)
        return item * 10

    events = []
    result = farm_map(task, range(5), n_workers=2, context="fork",
                      on_event=lambda topic, data: events.append(topic))
    assert result.ok
    assert result.retries == 1
    assert result.quarantined == []
    assert result.ordered() == [0, 10, 20, 30, 40]
    assert "farm.worker_lost" in events
    assert "farm.retry" in events
    assert "farm.quarantine" not in events


def _farm_semlocks():
    import gc
    from multiprocessing.synchronize import SemLock

    return [obj for obj in gc.get_objects() if isinstance(obj, SemLock)]


def test_worker_killed_holding_a_farm_lock_spares_its_siblings(tmp_path):
    """Regression: the workers shared one result queue whose feeder
    threads write under one cross-process lock.  A worker killed while
    its feeder held that lock (SIGKILL, an OOM kill) wedged every
    sibling until the heartbeat, and both shards were quarantined as
    hung.  The crashing task plays that kill: it takes every lock the
    farm created before forking, then dies."""
    marker = tmp_path / "crashed-once"
    existing = {id(lock) for lock in _farm_semlocks()}

    def task(item):
        if item == 2 and not marker.exists():
            marker.write_text("x")
            for lock in _farm_semlocks():
                if id(lock) not in existing:
                    lock.acquire(False)
            os._exit(13)
        time.sleep(0.05)
        return item

    started = time.monotonic()
    result = farm_map(task, range(6), n_workers=2, context="fork",
                      heartbeat=3.0)
    assert time.monotonic() - started < 3.0  # no heartbeat expired
    assert result.ok
    assert result.retries == 1
    assert result.ordered() == list(range(6))


def test_results_sent_before_a_crash_are_kept():
    """Regression: a result still in a dying worker's send buffer was
    lost, so the quarantine listed an item that had finished."""
    def task(item):
        if item == 2:
            os._exit(13)
        return item

    result = farm_map(task, range(6), n_workers=2, context="fork")
    assert [entry["indices"] for entry in result.quarantined] == [[2, 4]]
    assert result.results[0] == 0


def test_crash_twice_quarantines(tmp_path):
    def task(item):
        if item % 2 == 0:
            os._exit(13)
        return item

    events = []
    result = farm_map(task, range(4), n_workers=2, context="fork",
                      flight_dir=str(tmp_path), flight_seed=7,
                      on_event=lambda topic, data: events.append(topic))
    assert not result.ok
    assert result.retries == 1
    assert len(result.quarantined) == 1
    entry = result.quarantined[0]
    assert entry["reason"] == "crash"
    assert entry["indices"] == [0, 2]  # never silently dropped
    assert entry["attempts"] == 2  # initial run + one retry
    # the odd-index shard is unaffected
    assert result.results[1] == 1
    assert result.results[3] == 3
    assert events.count("farm.retry") == 1
    assert events.count("farm.quarantine") == 1

    # the farm.* lifecycle ring was dumped for the failed shard
    dump = entry["flight_dump"]
    assert dump is not None and os.path.exists(dump)
    lines = [json.loads(line)
             for line in open(dump).read().splitlines()]
    header, kernel_summary = lines[0], lines[1]
    assert header["schema"] == "rtseed-flightrec/1"
    assert header["reason"] == "farm_quarantine"
    assert header["seed"] == 7
    assert kernel_summary is None  # bare-bus recorder, no kernel
    topics = {line["topic"] for line in lines[2:]}
    assert "farm.start" in topics
    assert "farm.worker_lost" in topics
    assert "farm.retry" in topics


def test_hung_worker_quarantined(tmp_path):
    def task(item):
        if item == 1:
            time.sleep(60)
        return item

    started = time.monotonic()
    result = farm_map(task, range(2), n_workers=2, context="fork",
                      heartbeat=0.4, max_retries=0,
                      flight_dir=str(tmp_path), flight_seed=0)
    assert time.monotonic() - started < 20  # detected, not waited out
    assert not result.ok
    assert len(result.quarantined) == 1
    entry = result.quarantined[0]
    assert entry["reason"] == "hang"
    assert entry["indices"] == [1]
    assert result.results[0] == 0


def test_task_exception_is_payload_not_crash():
    def task(item):
        if item == 1:
            raise RuntimeError("boom")
        return item

    result = farm_map(task, range(3), n_workers=2, context="fork")
    assert result.ok  # exceptions are deterministic payloads
    assert result.retries == 0
    assert result.results[1] == {"farm_error": "RuntimeError: boom"}


def test_check_report_quarantine_lists_seeds(monkeypatch):
    from repro.check.scenario import derive_run_seed

    real = runner_mod.run_fuzz_index

    def sabotaged(base_seed, index, **kwargs):
        if index == 3:
            os._exit(13)
        return real(base_seed, index, **kwargs)

    monkeypatch.setattr(runner_mod, "run_fuzz_index", sabotaged)
    document, result = farm_check(4, seed=5, shrink=False, workers=2,
                                  max_retries=0, context="fork")
    assert result.quarantined
    assert len(document["quarantined"]) == 1
    entry = document["quarantined"][0]
    assert entry["reason"] == "crash"
    # index 3 is always lost; index 1's finished result may also die
    # in the crashed process's unflushed queue buffer — either way it
    # is listed, never silently dropped
    assert 3 in entry["indices"]
    assert set(entry["indices"]) <= {1, 3}
    assert entry["seeds"] == [derive_run_seed(5, index)
                              for index in entry["indices"]]
    # the healthy shard's runs still merged
    assert document["completed_runs"] == 4 - len(entry["indices"])
    assert document["requested_runs"] == 4


def test_cli_exit_code_reflects_quarantine(monkeypatch):
    import io

    import repro.farm as farm_pkg
    from repro.cli import main
    from repro.farm.core import FarmResult

    quarantined = FarmResult(2)
    quarantined.results[0] = {"index": 0, "seed": 1, "ok": True,
                              "differential_ran": True, "summary": "ok"}
    quarantined.quarantined.append(
        {"shard": 1, "reason": "crash", "indices": [1], "attempts": 2,
         "flight": None, "flight_dump": None}
    )
    quarantined.stats = {"workers": 2, "start_method": "fork",
                         "items": 2, "completed": 1, "retries": 1,
                         "quarantined_shards": 1, "wall_seconds": 0.1,
                         "items_per_sec": 10.0}
    document = {"schema": "rtseed-farm-check/1", "mode": "check",
                "completed_runs": 1, "differential_runs": 1,
                "total_failures": 0, "errors": [],
                "failures": [], "quarantined": [
                    {"reason": "crash", "indices": [1], "seeds": [2]}]}

    monkeypatch.setattr(farm_pkg, "farm_check",
                        lambda *args, **kwargs: (document, quarantined))
    out = io.StringIO()
    code = main(["check", "--runs", "2"], out=out)
    assert code == 2
    assert "seed 2: QUARANTINED — crash" in out.getvalue()


def test_seq_clock_orders_farm_events():
    events = []

    def task(item):
        return item

    def capture(topic, data):
        events.append(topic)

    result = farm_map(task, range(3), n_workers=1, on_event=capture)
    assert result.ok
    assert events[0] == "farm.start"
    assert events[-1] == "farm.done"
    assert isinstance(_SeqClock().now, int)
