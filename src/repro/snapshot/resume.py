"""Snapshot / restore entry points.

``snapshot()`` captures a started program at an event barrier;
``restore()`` rebuilds the program in a fresh process, fast-forwards
to the barrier, and **attests** the live state against the captured
digest before handing the run back.  Because the rebuilt run is the
same deterministic computation from t=0, everything it goes on to
produce — probe streams, metrics, reports — is byte-identical to the
uninterrupted run (the tier-1 suite and the CI ``snapshot-smoke`` job
enforce exactly that, fault plans included).
"""

from repro.snapshot.core import (
    SnapshotError,
    SnapshotMismatchError,
    snapshot_kernel,
    validate_snapshot,
)
from repro.snapshot.programs import build_program
from repro.snapshot.state import capture_state, state_digest


def snapshot(run, at_events=None):
    """Capture a started :class:`~repro.snapshot.programs.ProgramRun`.

    :param run: a program whose ``start()`` has been called.
    :param at_events: optional barrier — the engine is driven to
        exactly this many processed events first (error if the run
        drains earlier); ``None`` captures wherever the run is now.
    :returns: the ``rtseed-snapshot/4`` document.
    """
    if run.stream is None:
        raise SnapshotError("program not started: call run.start()")
    if at_events is not None:
        run.run_to_events(at_events)
    return snapshot_kernel(run.kernel, dict(run.spec),
                           extras=run.extras())


def restore(document):
    """Rebuild + fast-forward + attest; returns the positioned run.

    Refuses (:class:`SnapshotMismatchError`) when the re-executed
    state does not reproduce the captured digest — wrong seed, changed
    code, or a tampered document.  ``finish()`` on the returned run
    continues to the end of the run.
    """
    validate_snapshot(document)
    run = build_program(document["program"])
    run.start()
    barrier = document["barrier"]
    run.run_to_events(barrier["events_processed"])
    engine = run.kernel.engine
    if engine.now != barrier["now"]:
        raise SnapshotMismatchError(
            f"clock diverged at the barrier: replay reached "
            f"{engine.now!r}, snapshot recorded {barrier['now']!r}"
        )
    live = capture_state(run.kernel, extras=run.extras())
    digest = state_digest(live)
    if digest != document["digest"]:
        raise SnapshotMismatchError(
            f"state attestation failed at the barrier "
            f"({barrier['events_processed']} events): replay digest "
            f"{digest} != snapshot digest {document['digest']} — "
            f"refusing to resume"
        )
    return run


def resume_to_end(document):
    """Restore and run to completion; returns the program payload."""
    return restore(document).finish()
