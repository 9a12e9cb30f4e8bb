"""The checked sweep: the Figures 10-13 grid and the three ablations,
farmed and judged by the paper's claims.

``repro scale`` (see :mod:`repro.cli`) runs :func:`farm_scale_sweep`:
the points (:mod:`repro.bench.sweeps`) are sharded across workers and
every claim of :mod:`repro.bench.claims` is judged on the merged
points.  The sweep inherits the farm's determinism contract
(byte-identical merged reports at any worker count, checkpoint/resume,
quarantine; see docs/FARM.md "Full-topology sweeps").  The paper's
57-core platform itself is a core-shaped check batch, ``repro check
--tasks-per-core K`` (docs/CHECKING.md).
"""

from repro.scale.sweep import (
    SCALE_SWEEP_SCHEMA,
    farm_scale_sweep,
    merge_sweep_results,
    render_scale_report,
)

__all__ = [
    "SCALE_SWEEP_SCHEMA",
    "farm_scale_sweep",
    "merge_sweep_results",
    "render_scale_report",
]
