"""The ``rtseed-snapshot/1`` document: build, write, load, verify.

A snapshot is one JSON document with five parts:

``schema``
    :data:`SNAPSHOT_SCHEMA` — refused on mismatch.
``program``
    The *reconstructible program spec*: everything needed to rebuild
    the exact run from scratch (kind, seed, backend, workload
    parameters).  See :mod:`repro.snapshot.programs`.
``barrier``
    Where in the run the snapshot was taken: the engine's
    ``events_processed`` count and simulated clock.
``state``
    The complete captured simulation state
    (:func:`repro.snapshot.state.capture_state`).
``digest``
    SHA-256 over the canonical JSON of ``state``
    (:func:`repro.snapshot.state.state_digest`).

Integrity model: :func:`load_snapshot` re-computes the digest over the
loaded ``state`` and refuses a tampered or truncated document;
:func:`repro.snapshot.resume.resume_run` additionally re-executes the
program to the barrier and refuses to continue unless the *live* state
digests to the same value (:class:`SnapshotMismatchError`) — the
restore is attested against the capture, bit for bit.
"""

import json
import os

from repro.snapshot.state import capture_state, state_digest

#: Snapshot document schema tag.
SNAPSHOT_SCHEMA = "rtseed-snapshot/1"


class SnapshotError(Exception):
    """Malformed, unreadable, or wrong-schema snapshot document."""


class SnapshotMismatchError(SnapshotError):
    """A resume refused: the re-executed state does not attest against
    the captured digest (wrong seed/backend/code, or a tampered
    document)."""


def build_snapshot(program, barrier, state, seed=None, backend=None):
    """Assemble a snapshot document (digest computed here)."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "seed": seed,
        "backend": backend,
        "program": program,
        "barrier": barrier,
        "state": state,
        "digest": state_digest(state),
    }


def snapshot_kernel(kernel, program, extras=None, seed=None,
                    backend=None):
    """Capture ``kernel`` right now into a snapshot document."""
    state = capture_state(kernel, extras=extras)
    barrier = {
        "events_processed": kernel.engine.events_processed,
        "now": kernel.engine.now,
    }
    return build_snapshot(program, barrier, state, seed=seed,
                          backend=backend)


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
    and on a ``state`` whose digest does not match the recorded one
    (tampering / truncation).  Returns the document.
    """
    if not isinstance(document, dict):
        raise SnapshotError("snapshot document must be a JSON object")
    schema = document.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"unsupported snapshot schema {schema!r} "
            f"(expected {SNAPSHOT_SCHEMA!r})"
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
        "seed": document.get("seed"),
        "backend": document.get("backend"),
        "program": program,
        "barrier": barrier,
        "digest": document["digest"],
    }
    if "engine" in state:
        engine = state["engine"]
        summary["engine"] = {
            "layout": engine["layout"],
            "now": engine["now"],
            "events_processed": engine["events_processed"],
            "pending": engine["pending"],
            "heap_size": engine["heap_size"],
        }
        summary["threads"] = len(state.get("threads", []))
        summary["timers"] = len(state.get("timers", []))
    return summary
