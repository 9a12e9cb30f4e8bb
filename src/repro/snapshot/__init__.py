"""``repro.snapshot`` — deterministic checkpoint / restore.

Versioned, seed-stamped serialization of complete simulation state
(``rtseed-snapshot/3``) with attested deterministic-replay restore.
See ``docs/SNAPSHOTS.md`` for the format, the guarantees, and the
resume workflows (farm checkpoints, check time-travel).
"""

from repro.snapshot.core import (
    SNAPSHOT_SCHEMA,
    SnapshotError,
    SnapshotMismatchError,
    inspect_snapshot,
    load_snapshot,
    render_snapshot,
    snapshot_kernel,
    validate_snapshot,
    write_snapshot,
)
from repro.snapshot.programs import (
    PROGRAMS,
    CheckProgram,
    FaultsProgram,
    OverheadsProgram,
    ProgramRun,
    TradeProgram,
    build_program,
)
from repro.snapshot.resume import restore, resume_to_end, snapshot
from repro.snapshot.state import (
    capture_state,
    describe_callback,
    state_digest,
)

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "SnapshotMismatchError",
    "inspect_snapshot",
    "load_snapshot",
    "render_snapshot",
    "snapshot_kernel",
    "validate_snapshot",
    "write_snapshot",
    "PROGRAMS",
    "CheckProgram",
    "FaultsProgram",
    "OverheadsProgram",
    "ProgramRun",
    "TradeProgram",
    "build_program",
    "restore",
    "resume_to_end",
    "snapshot",
    "capture_state",
    "describe_callback",
    "state_digest",
]
