#!/usr/bin/env python3
"""The paper's future work: the practical imprecise computation model.

Section VII plans support for "a practical imprecise computation model
[33] that has multiple mandatory parts".  This reproduction implements
it: a job is a chain  m1 -> o1 -> m2 -> o2 -> m3  where every mandatory
part is guaranteed and each optional stage has its own offline optional
deadline.

A trading pipeline shaped like this: m1 fetches the quote, stage o1
runs fast screening analyses, m2 validates risk limits, stage o2 runs
deep analyses, m3 sends the order.  The example contrasts the two
optional-deadline policies:

* latest-feasible ODs give the *first* stage every spare millisecond —
  later stages only run when earlier parts finish early;
* balanced ODs split the guaranteed slack evenly across stages.

Run:  python examples/practical_model.py
"""

from repro.bench.reporting import format_table
from repro.core import PracticalWorkloadTask, RTSeed
from repro.model.practical import practical_optional_deadlines
from repro.simkernel import Topology
from repro.simkernel.cpu import uniform_share
from repro.simkernel.time_units import MSEC, SEC


def pipeline_task():
    return PracticalWorkloadTask(
        "pipeline",
        mandatory_parts=[80 * MSEC, 60 * MSEC, 60 * MSEC],
        optional_length=2 * SEC,       # both stages always overrun
        period=1 * SEC,
        n_parallel=2,
        chunk=25 * MSEC,
    )


def run_chain(ods, label):
    middleware = RTSeed(
        topology=Topology(4, 2, share_fn=uniform_share,
                          background_weight=0.0),
        cost_model="zero",
    )
    middleware.add_task(pipeline_task(), n_jobs=3, cpu=0,
                        optional_cpus=[0, 2], optional_deadline=ods)
    result = middleware.run()

    rows = []
    for probe in result.tasks["pipeline"].probes:
        windows = []
        for stage, od_abs in enumerate(probe.stage_ods):
            start = probe.phase_end[stage]
            windows.append(max(0.0, od_abs - start) / MSEC)
        rows.append([
            probe.job_index,
            ", ".join(f"{w:.0f}" for w in windows),
            " | ".join(",".join(f) for f in probe.stage_fates),
            "yes" if probe.deadline_met else "NO",
        ])
    print(f"\n--- {label}: ODs = "
          f"{[round(od / MSEC) for od in ods]} ms ---")
    print(format_table(
        ["job", "stage windows [ms]", "stage fates", "deadline"], rows,
    ))


def main():
    task_model = pipeline_task().to_model()
    print("Practical imprecise computation model: "
          "m1 -> o1 -> m2 -> o2 -> m3, T = 1 s")
    print(f"mandatory parts: {[m / MSEC for m in task_model.mandatory_parts]}"
          f" ms, every optional stage always overruns")

    latest = practical_optional_deadlines(task_model)
    balanced = practical_optional_deadlines(task_model, balance=True)
    run_chain(latest, "latest-feasible ODs (front-loaded slack)")
    run_chain(balanced, "balanced ODs (slack split across stages)")
    print(
        "\nEvery mandatory part always completes and deadlines always"
        "\nhold; the OD policy only redistributes *optional* time"
        "\nbetween the stages."
    )


if __name__ == "__main__":
    main()
