"""Full-topology scale campaigns: the paper's 57-core x 4-HT platform
at thousands of tasks, farmed.

``repro scale`` (see :mod:`repro.cli`) fronts two farmable workloads:

* **campaign** — :func:`farm_scale`: one farm item per core of a
  (possibly subset) Xeon Phi topology, each an RMWP-schedulable task
  group drawn by :func:`repro.check.scenario.generate_core_scenario`,
  executed on the middleware and judged by the trace oracles, with
  per-core telemetry merged through
  :meth:`repro.obs.report.RunReport.merge`;
* **sweep** — :func:`farm_scale_sweep`: the Figures 10-13 grid and the
  three ablations flattened into independent points
  (:mod:`repro.bench.sweeps`), sharded across workers, and judged by
  the paper's claims (:mod:`repro.bench.claims`).

Both inherit the farm's determinism contract (byte-identical merged
reports at any worker count, checkpoint/resume, quarantine; see
docs/FARM.md "Full-topology sweeps").
"""

from repro.scale.campaign import (
    MAX_RECORDED_FAILURES,
    SCALE_SCHEMA,
    SCALE_SWEEP_SCHEMA,
    campaign_items,
    farm_scale,
    farm_scale_sweep,
    merge_scale_results,
    merge_sweep_results,
    render_scale_report,
    shard_task_counts,
)

__all__ = [
    "MAX_RECORDED_FAILURES",
    "SCALE_SCHEMA",
    "SCALE_SWEEP_SCHEMA",
    "campaign_items",
    "farm_scale",
    "farm_scale_sweep",
    "merge_scale_results",
    "merge_sweep_results",
    "render_scale_report",
    "shard_task_counts",
]
