"""Parallel scenario farm: seed-sharded multiprocessing for check
batches, fault campaigns and the checked sweep.

The farm's contract is **worker-count invariance**: the same batch
produces byte-identical merged reports at ``--workers 1``, ``2``, or
``4``.  Three mechanisms deliver it:

1. *static sharding* — :func:`~repro.farm.partition.partition_shards`
   round-robins item **indices** over workers; no work stealing, so
   the item -> worker map is deterministic;
2. *per-item seed isolation* — every check run derives its scenario
   RNG from ``derive_run_seed(base_seed, index)``
   (:mod:`repro.check.scenario`), a pure function of the index, so no
   run depends on any other run having executed first;
3. *index-ordered merge* — :func:`~repro.farm.core.farm_map` reorders
   per-item payloads by index before any report is assembled, and
   wall-clock data is confined to :attr:`FarmResult.stats`.

Failed workers are retried once on a fresh process; a shard that fails
twice is quarantined into the report with its unfinished indices and
seeds (see docs/FARM.md).
"""

from repro.farm.checkpoint import (
    FARM_CHECKPOINT_SCHEMA,
    CheckpointMismatchError,
    FarmCheckpoint,
    inspect_checkpoint,
    inspect_checkpoint_dir,
    load_farm_checkpoint,
)
from repro.farm.core import (
    DEFAULT_HEARTBEAT,
    DEFAULT_RETRIES,
    FarmInterrupted,
    FarmResult,
    farm_map,
    resolve_context,
)
from repro.farm.jobs import (
    CHECK_FARM_SCHEMA,
    farm_campaign,
    farm_check,
    merge_check_results,
    render_check_report,
)
from repro.farm.partition import partition_shards, shard_of

__all__ = [
    "FARM_CHECKPOINT_SCHEMA",
    "CheckpointMismatchError",
    "FarmCheckpoint",
    "inspect_checkpoint",
    "inspect_checkpoint_dir",
    "load_farm_checkpoint",
    "DEFAULT_HEARTBEAT",
    "DEFAULT_RETRIES",
    "FarmInterrupted",
    "FarmResult",
    "farm_map",
    "resolve_context",
    "CHECK_FARM_SCHEMA",
    "farm_campaign",
    "farm_check",
    "merge_check_results",
    "render_check_report",
    "partition_shards",
    "shard_of",
]
