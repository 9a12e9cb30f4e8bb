"""The ``rtseed-snapshot/4`` document: build, write, load, verify.

A snapshot is one JSON document with five parts:

``schema``
    :data:`SNAPSHOT_SCHEMA` — refused on mismatch.
``program``
    The *reconstructible program spec*: everything needed to rebuild
    the exact run from scratch (kind, seed, workload parameters).
    See :mod:`repro.snapshot.programs`.
``barrier``
    Where in the run the snapshot was taken: the engine's
    ``events_processed`` count and simulated clock.
``state``
    The complete captured simulation state
    (:func:`repro.snapshot.state.capture_state`), including a copy of
    the program spec under ``state["program"]``.
``digest``
    SHA-256 over the canonical JSON of ``state``
    (:func:`repro.snapshot.state.state_digest`).

Integrity model: :func:`load_snapshot` re-computes the digest over the
loaded ``state`` and refuses a tampered or truncated document, and a
``program`` that differs from the attested copy in ``state``;
:func:`repro.snapshot.resume.restore` additionally re-executes the
program to the barrier and refuses to continue unless the *live* state
digests to the same value (:class:`SnapshotMismatchError`) — the
restore is attested against the capture, bit for bit, recipe included.
"""

import json
import os

from repro.snapshot.state import capture_state, state_digest

#: Snapshot document schema tag.
SNAPSHOT_SCHEMA = "rtseed-snapshot/4"

#: Older schemas, refused with a take-it-again hint (docs/SNAPSHOTS.md,
#: "Schema 2" to "Schema 4").
_OLD_SCHEMAS = {
    "rtseed-snapshot/1": "this document came from the two-engine build",
    "rtseed-snapshot/2": "this document's program spec is not attested",
    "rtseed-snapshot/3": "this document's flight ring holds the retired "
                         "per-event engine probe",
}


class SnapshotError(Exception):
    """Malformed, unreadable, or wrong-schema snapshot document."""


class SnapshotMismatchError(SnapshotError):
    """A resume refused: the re-executed state does not attest against
    the captured digest (wrong seed or code, or a tampered
    document)."""


def snapshot_kernel(kernel, program, extras=None):
    """Capture ``kernel`` right now into a snapshot document."""
    state = capture_state(kernel, extras=extras)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "program": program,
        "barrier": {"events_processed": kernel.engine.events_processed,
                    "now": kernel.engine.now},
        "state": state,
        "digest": state_digest(state),
    }


def render_snapshot(document):
    """Deterministic byte form of a snapshot document."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_snapshot(path, document):
    """Write a snapshot document to ``path`` (atomic rename, so a
    crash mid-write never leaves a truncated snapshot); returns
    ``path``."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write(render_snapshot(document))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def validate_snapshot(document):
    """Schema + integrity checks on an in-memory document.

    Raises :class:`SnapshotError` on a wrong schema or missing parts,
    on a ``state`` whose digest does not match the recorded one
    (tampering / truncation), and on a ``program`` that differs from
    the attested copy in ``state``.  Returns the document.
    """
    if not isinstance(document, dict):
        raise SnapshotError("snapshot document must be a JSON object")
    schema = document.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        hint = ""
        if schema in _OLD_SCHEMAS:
            hint = f"; {_OLD_SCHEMAS[schema]}, take the snapshot again"
        raise SnapshotError(
            f"unsupported snapshot schema {schema!r} "
            f"(expected {SNAPSHOT_SCHEMA!r}){hint}"
        )
    for key in ("program", "barrier", "state", "digest"):
        if key not in document:
            raise SnapshotError(f"snapshot document missing {key!r}")
    digest = state_digest(document["state"])
    if digest != document["digest"]:
        raise SnapshotError(
            f"snapshot digest mismatch: document says "
            f"{document['digest']}, state hashes to {digest} "
            f"(tampered or truncated)"
        )
    if document["program"] != document["state"].get("program"):
        raise SnapshotMismatchError(
            "snapshot program spec differs from the attested spec in "
            "its state (edited document)"
        )
    return document


def load_snapshot(path):
    """Load + validate a snapshot document from ``path``."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}")
    return validate_snapshot(document)


def inspect_snapshot(document):
    """One-screen JSON-ready summary of a snapshot document."""
    program = document["program"]
    barrier = document["barrier"]
    state = document["state"]
    summary = {
        "schema": document["schema"],
        "program": program,
        "barrier": barrier,
        "digest": document["digest"],
    }
    if "engine" in state:
        engine = state["engine"]
        summary["engine"] = {
            "now": engine["now"],
            "events_processed": engine["events_processed"],
            "pending": engine["pending"],
            "heap_size": engine["heap_size"],
        }
        summary["threads"] = len(state.get("threads", []))
        summary["timers"] = len(state.get("timers", []))
    return summary
