"""The Section V overhead experiment.

Configuration (Section V-A):

* one task (``n = 1``): the system has more processors than tasks and
  each task parallelizes its optional parts;
* ``T = D = 1 s`` (OANDA provides one exchange rate per second);
* ``m = 250 ms``, ``w = 250 ms``, ``o = 1 s`` per part — every optional
  part always overruns and is terminated, measuring worst-case
  begin/end overheads;
* ``OD = D - w = 750 ms`` (Theorem 2 of [5] for a lone task);
* ``np in {4, 8, 16, 32, 57, 114, 171, 228}``, 100 jobs;
* mandatory/wind-up pinned to hardware thread 0 of core 0;
* three assignment policies x three background loads.

One run yields all four overheads (Δm, Δb, Δs, Δe), so one sweep point
(:mod:`repro.bench.sweeps`) serves all four figures.

The paper notes "the overheads of real-time scheduling are included in
the WCETs": with zero slack (m + w fills everything outside the optional
window) any overhead would cascade into the next release.  The harness
therefore carves a configurable ``overhead_allowance`` out of the
*executed* mandatory/wind-up work while keeping the nominal WCETs (and
hence OD = 750 ms) at the paper's values.
"""

import statistics

from repro.core.task import WorkloadTask
from repro.hardware.loads import BackgroundLoad
from repro.simkernel.time_units import MSEC, SEC

#: The paper's np axis (Section V-A).
PARALLEL_COUNTS = (4, 8, 16, 32, 57, 114, 171, 228)

#: Nominal part lengths.
MANDATORY_WCET = 250.0 * MSEC
WINDUP_WCET = 250.0 * MSEC
OPTIONAL_LENGTH = 1.0 * SEC
PERIOD = 1.0 * SEC

#: OD = D - w (Theorem 2 of [5] for n = 1).
OPTIONAL_DEADLINE = PERIOD - WINDUP_WCET

#: Default slice of each WCET reserved for scheduling overheads.
DEFAULT_ALLOWANCE = 60.0 * MSEC


def make_eval_task(n_parallel, overhead_allowance=DEFAULT_ALLOWANCE,
                   name="tau1"):
    """The Section V-A workload task with the overhead allowance carved
    out of the executed (not nominal) part lengths."""
    return WorkloadTask(
        name,
        MANDATORY_WCET - overhead_allowance,
        OPTIONAL_LENGTH,
        WINDUP_WCET - overhead_allowance,
        PERIOD,
        n_parallel=n_parallel,
    )


class OverheadSample:
    """Mean/std/min/max of the four overheads for one configuration."""

    def __init__(self, policy, load, n_parallel, task_result):
        self.policy = policy
        self.load = load
        self.n_parallel = n_parallel
        self.raw = {w: task_result.deltas_us(w) for w in "mbse"}
        self.fates = task_result.fates

    def mean(self, which):
        values = self.raw[which]
        return statistics.fmean(values) if values else None

    def std(self, which):
        values = self.raw[which]
        return statistics.stdev(values) if len(values) > 1 else 0.0

    def max(self, which):
        values = self.raw[which]
        return max(values) if values else None

    def __repr__(self):
        means = ", ".join(
            f"Δ{w}={self.mean(w):.1f}us" for w in "mbse" if self.raw[w]
        )
        return (
            f"<OverheadSample {self.policy}/{self.load.value} "
            f"np={self.n_parallel}: {means}>"
        )


def run_overhead_experiment(n_parallel, policy="one_by_one",
                            load=BackgroundLoad.NONE, n_jobs=100, seed=0):
    """Run one configuration, unobserved, and return its
    :class:`OverheadSample`."""
    from repro.snapshot.programs import OverheadsProgram

    program = OverheadsProgram({"np": n_parallel, "jobs": n_jobs,
                                "policy": policy, "load": load.name,
                                "seed": seed})
    result = program.build().spawn().drain()
    return OverheadSample(policy, load, n_parallel, result.tasks["tau1"])
