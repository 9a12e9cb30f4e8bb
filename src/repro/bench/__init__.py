"""Experiment harness for Section V.

* :mod:`repro.bench.overheads` — one Figures 10-13 overhead
  configuration (four overheads for one load, policy and np).
* :mod:`repro.bench.traces` — Figure 2/3 trace generation.
* :mod:`repro.bench.reporting` — ASCII series/tables matching the
  paper's presentation.
* :mod:`repro.bench.sweeps` — the checked sweep behind ``repro
  scale``: the Figures 10-13 grid (three loads x three policies x np in
  {4..228}) and the three ablations as farmable point lists, farmed and
  merged into one document.
* :mod:`repro.bench.claims` — the paper's shapes as checked claims on
  the merged sweep document (imported by the merge, not here).
"""

from repro.bench.overheads import (
    PARALLEL_COUNTS,
    OverheadSample,
    make_eval_task,
    run_overhead_experiment,
)
from repro.bench.reporting import format_series, format_table
from repro.bench.sweeps import (
    ablation_items,
    figure_items,
    run_sweep_item,
    sweep_items,
)
from repro.bench.traces import (
    fig2_optional_deadline_traces,
    fig3_remaining_time_traces,
)

__all__ = [
    "PARALLEL_COUNTS",
    "OverheadSample",
    "make_eval_task",
    "run_overhead_experiment",
    "format_series",
    "format_table",
    "ablation_items",
    "figure_items",
    "run_sweep_item",
    "sweep_items",
    "fig2_optional_deadline_traces",
    "fig3_remaining_time_traces",
]
