"""Farm checkpoints: crash-safe JSONL of completed item payloads.

The farm's unit of determinism is the *item* (every payload is a pure
function of its item), so the natural checkpoint granularity is one
JSONL line per completed item, appended and flushed by the **parent**
as results arrive.  A farm killed at any point — worker crash, parent
SIGKILL, power loss — leaves a file whose intact prefix is a valid
checkpoint; a truncated trailing line (the crash landed mid-write) is
tolerated and dropped on load.

File layout::

    {"schema": "rtseed-farm-checkpoint/1", "meta": {...}}   <- header
    {"index": 0, "payload": {...}}
    {"index": 3, "payload": {...}}
    ...

``meta`` is the batch fingerprint (what/seed/size/...); a resume with
a different fingerprint is refused (:class:`CheckpointMismatchError`)
instead of silently merging results from a different batch.  Because
the merge is index-ordered over payloads that are pure functions of
their items, preloading completed payloads from a checkpoint cannot
change the merged report's bytes — worker-count invariance extends to
crash/resume invariance.
"""

import json
import os

#: Farm checkpoint schema tag (header line).
FARM_CHECKPOINT_SCHEMA = "rtseed-farm-checkpoint/1"


class CheckpointMismatchError(Exception):
    """A checkpoint's schema or batch fingerprint does not match the
    batch being resumed."""


def _read_checkpoint(path):
    """``(header, {index: payload}, torn_tail)`` from a checkpoint file.

    The one JSONL reader behind :func:`load_farm_checkpoint` and
    :func:`inspect_checkpoint`.  An empty file reads as ``header=None``.
    A truncated final line is dropped (crash mid-write) and reported as
    ``torn_tail``; an unreadable header, a foreign schema, or corruption
    anywhere else raises :class:`CheckpointMismatchError`.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        return None, {}, False
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise CheckpointMismatchError(
            f"{path}: unreadable checkpoint header"
        )
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != FARM_CHECKPOINT_SCHEMA:
        raise CheckpointMismatchError(
            f"{path}: schema {schema!r} is not {FARM_CHECKPOINT_SCHEMA!r}"
        )
    completed = {}
    for position, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            if position == len(lines):
                return header, completed, True
            row = None
        if not isinstance(row, dict) or not {"index", "payload"} <= set(row):
            raise CheckpointMismatchError(
                f"{path}: corrupt checkpoint line {position}"
            )
        completed[row["index"]] = row["payload"]
    return header, completed, False


def load_farm_checkpoint(path, meta=None):
    """Completed ``{index: payload}`` from a checkpoint file.

    Returns ``{}`` when ``path`` does not exist (a fresh run).  The
    header's ``meta`` must equal the given fingerprint when one is
    supplied.  A truncated final line is dropped (crash mid-write);
    corruption anywhere else is refused loudly.
    """
    if path is None or not os.path.exists(path):
        return {}
    header, completed, _torn = _read_checkpoint(path)
    if header is None:
        return {}
    if meta is not None and header.get("meta") != meta:
        raise CheckpointMismatchError(
            f"{path}: checkpoint fingerprint {header.get('meta')!r} "
            f"does not match this batch {meta!r} — refusing to resume"
        )
    return completed


def inspect_checkpoint(path):
    """Summary of one checkpoint file, or ``None`` if it is not one.

    Every file :func:`load_farm_checkpoint` would refuse (wrong schema,
    unreadable, corrupt) or that is empty returns ``None`` instead of
    raising — ``repro farm status`` points this at whole directories,
    most of whose files are not checkpoints.
    """
    try:
        header, completed, torn = _read_checkpoint(path)
    except (OSError, ValueError, CheckpointMismatchError):
        return None
    if header is None:
        return None
    return {
        "path": path,
        "meta": header.get("meta"),
        "completed": len(completed),
        "torn_tail": torn,
    }


def inspect_checkpoint_dir(directory):
    """Summaries of every farm checkpoint in ``directory``, sorted by
    file name.  A missing, empty, or checkpoint-free directory is a
    normal answer — the empty list — never an error."""
    if not directory or not os.path.isdir(directory):
        return []
    summaries = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        summary = inspect_checkpoint(path)
        if summary is not None:
            summaries.append(summary)
    return summaries


class FarmCheckpoint:
    """Append-only checkpoint writer the farm parent drives.

    Opens (or creates, header included) the file on construction and
    appends one flushed line per :meth:`record` call; indices already
    present from a previous run are skipped, so a resumed farm never
    duplicates lines.
    """

    def __init__(self, path, meta=None, completed=None):
        self.path = path
        self._seen = set(completed or ())
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._handle = open(path, "a")
        if fresh:
            self._write({"schema": FARM_CHECKPOINT_SCHEMA,
                         "meta": meta})

    def _write(self, document):
        self._handle.write(json.dumps(document, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, index, payload):
        if index in self._seen:
            return
        self._seen.add(index)
        self._write({"index": index, "payload": payload})

    def close(self):
        self._handle.close()
