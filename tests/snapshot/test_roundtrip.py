"""The load-bearing snapshot guarantee, in-process.

Run-to-barrier → snapshot → restore → run-to-end must produce the
exact payload (probe-stream hash, metrics, report) of the
uninterrupted run, including under an active fault plan — the
uninterrupted run on the execution core (``fast``) and on its model
(``reference``, ``tests/engine/reference.py``).  Plus every refusal
path: tampered state, wrong seed, an edited program spec, barrier
past the end of the run, a schema other than ``rtseed-snapshot/4``.
"""

import contextlib
import copy

import pytest

from repro.simkernel.time_units import SEC
from repro.snapshot import (
    SnapshotError,
    SnapshotMismatchError,
    build_program,
    load_snapshot,
    render_snapshot,
    restore,
    resume_to_end,
    snapshot,
    validate_snapshot,
    write_snapshot,
)
from tests.engine.reference import model_core

pytestmark = pytest.mark.tier1

ENGINES = ["reference", "fast"]
CORES = {"fast": contextlib.nullcontext, "reference": model_core}


def _uninterrupted(spec, engine="fast"):
    with CORES[engine]():
        return build_program(dict(spec)).start().finish()


def _snapshot_at(spec, barrier):
    run = build_program(dict(spec)).start()
    return snapshot(run, at_events=barrier)


@pytest.mark.parametrize("engine", ENGINES)
def test_trade_resume_payload_identical(engine):
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    expected = _uninterrupted(spec, engine)
    document = _snapshot_at(spec, 300)
    assert "backend" not in document
    assert resume_to_end(document) == expected


def test_trade_with_custom_optional_deadline_resumes():
    """``od_ms`` is part of the trade spec (only when given), so a run
    with a custom optional deadline snapshots and resumes as itself."""
    spec = {"kind": "trade", "seconds": 4, "seed": 3, "od_ms": 300.0}
    expected = _uninterrupted(spec)
    default = _uninterrupted({"kind": "trade", "seconds": 4, "seed": 3})
    assert expected["trading"]["qos_ms"] != default["trading"]["qos_ms"]
    assert resume_to_end(_snapshot_at(spec, 300)) == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_faults_resume_identical_under_active_fault_plan(engine):
    # cpu_stall keeps its injector live mid-run: the snapshot lands
    # with armed fault state and the resume must replay it exactly
    spec = {"kind": "faults", "scenario": "cpu_stall", "seconds": 5,
            "seed": 0}
    expected = _uninterrupted(spec, engine)
    document = _snapshot_at(spec, 250)
    payload = resume_to_end(document)
    assert payload == expected
    assert payload["scenario"]["injected"]  # faults actually fired


@pytest.mark.parametrize("engine", ENGINES)
def test_overheads_resume_payload_identical(engine):
    spec = {"kind": "overheads", "np": 4, "jobs": 3, "seed": 1}
    expected = _uninterrupted(spec, engine)
    assert resume_to_end(_snapshot_at(spec, 120)) == expected


def test_overheads_resume_identical_from_inside_the_optional_window():
    """Barrier in job 0's optional window (release 1 s, OD 1.75 s):
    every optional part is mid-``Compute`` when the snapshot is taken,
    and the resume must still reproduce the uninterrupted payload."""
    spec = {"kind": "overheads", "np": 8, "jobs": 2, "seed": 1,
            "load": "CPU_MEMORY"}
    scout = build_program(dict(spec)).start()
    scout.kernel.run(until=1.5 * SEC)
    barrier = scout.kernel.engine.events_processed
    expected = _uninterrupted(spec)
    run = restore(_snapshot_at(spec, barrier))
    optional = [t for t in run.kernel.threads if "-optional-" in t.name]
    assert len(optional) == 8
    assert all(t.is_computing for t in optional)
    assert run.finish() == expected


def test_snapshot_round_trips_through_disk(tmp_path):
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    path = str(tmp_path / "snap.json")
    write_snapshot(path, document)
    loaded = load_snapshot(path)
    assert loaded == document
    assert render_snapshot(loaded) == render_snapshot(document)
    assert resume_to_end(loaded) == _uninterrupted(spec)


def test_restore_positions_engine_exactly_at_barrier():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    run = restore(document)
    assert run.kernel.engine.events_processed == 300
    assert run.kernel.engine.now == document["barrier"]["now"]


def test_tampered_state_refused():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    tampered = copy.deepcopy(document)
    tampered["state"]["engine"]["now"] += 1.0
    with pytest.raises(SnapshotError, match="digest mismatch"):
        validate_snapshot(tampered)


def test_wrong_seed_refused_at_attestation():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    forged = copy.deepcopy(document)
    forged["program"]["seed"] = 4  # a different computation entirely
    with pytest.raises(SnapshotMismatchError):
        restore(forged)


@pytest.mark.parametrize("spec, barrier, edit", [
    ({"kind": "overheads", "np": 4, "jobs": 3, "seed": 1}, 50,
     {"jobs": 6}),
    ({"kind": "trade", "seconds": 4, "seed": 3}, 300, {"seconds": 8}),
], ids=["overheads-jobs", "trade-seconds"])
def test_edited_program_spec_refused(spec, barrier, edit):
    """Regression: the digest covered only the state, so an edit that
    changes the run but not the state at the barrier (more jobs, a
    longer session) restored and resumed into a different run."""
    document = _snapshot_at(spec, barrier)
    assert document["state"]["program"] == document["program"]
    forged = copy.deepcopy(document)
    forged["program"].update(edit)
    with pytest.raises(SnapshotMismatchError, match="attested spec"):
        validate_snapshot(forged)
    with pytest.raises(SnapshotMismatchError):
        restore(forged)
    # the envelope carries no second, unattested copy of the seed
    assert "seed" not in document


def test_schema_2_refused_with_take_again_hint():
    document = _snapshot_at({"kind": "trade", "seconds": 4, "seed": 3}, 300)
    document["schema"] = "rtseed-snapshot/2"
    with pytest.raises(SnapshotError, match="take the snapshot again"):
        validate_snapshot(document)


def test_schema_3_refused_with_take_again_hint():
    """A ``/3`` document's attested flight ring holds the per-event
    engine probe, which no program publishes any more."""
    document = _snapshot_at({"kind": "trade", "seconds": 4, "seed": 3}, 300)
    document["schema"] = "rtseed-snapshot/3"
    for refuse in (validate_snapshot, restore):
        with pytest.raises(SnapshotError,
                           match="per-event engine probe, take the "
                                 "snapshot again"):
            refuse(copy.deepcopy(document))


def test_barrier_past_end_of_run_refused():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    run = build_program(dict(spec)).start()
    with pytest.raises(SnapshotError, match="drained"):
        snapshot(run, at_events=10_000_000)


def test_unknown_schema_and_program_kind_refused():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    wrong_schema = copy.deepcopy(document)
    wrong_schema["schema"] = "bogus/9"
    with pytest.raises(SnapshotError, match="schema"):
        validate_snapshot(wrong_schema)
    wrong_schema["schema"] = "rtseed-snapshot/1"
    with pytest.raises(SnapshotError, match="two-engine build"):
        validate_snapshot(wrong_schema)
    with pytest.raises(SnapshotError, match="unknown program kind"):
        build_program({"kind": "nope"})
