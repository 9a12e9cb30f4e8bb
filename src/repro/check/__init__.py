"""Differential conformance checking: property-based scheduler fuzzing
with a lockstep oracle and seeded shrinking.

Pipeline (``repro check`` drives it end to end):

1. :mod:`repro.check.scenario` — seeded random scenarios over the
   repo's task-set generator, pre-filtered for RMWP schedulability;
2. :mod:`repro.check.runner` — each scenario runs on the theoretical
   simulator (:mod:`repro.sched.simulator`) and the middleware
   simkernel (:mod:`repro.core` / :mod:`repro.simkernel`), the latter
   as a :class:`~repro.snapshot.programs.CheckProgram`, the one
   builder of a check run;
3. :mod:`repro.check.differential` — the two probe streams are
   canonicalized and compared event by event, with documented
   tolerances for the known wind-up deviations;
4. :mod:`repro.check.oracles` — single-run invariants (FIFO tie-break,
   priority conformance, work conservation, lost wakeups, signal-mask
   discipline, liveness), valid even under fault injection;
5. :mod:`repro.check.shrink` — failures are delta-debugged to minimal
   scenarios and saved as replayable JSON artifacts.

See docs/CHECKING.md for the oracle catalogue and artifact format.
"""

from repro.check.differential import (
    TOLERANCE,
    TraceEvent,
    compare_traces,
    normalize_middleware,
    normalize_simulator,
)
from repro.check.oracles import (
    KernelTraceOracle,
    check_final_state,
    check_kernel_trace,
    check_protocol,
)
from repro.check.runner import (
    CheckReport,
    run_fuzz_index,
    run_scenario,
    run_simulator,
)
from repro.check.scenario import (
    CheckTask,
    Scenario,
    ScenarioTask,
    derive_run_seed,
    generate_scenario,
)
from repro.check.shrink import (
    load_artifact,
    make_artifact,
    replay_artifact,
    save_artifact,
    shrink_report,
    shrink_scenario,
)

__all__ = [
    "TOLERANCE",
    "TraceEvent",
    "compare_traces",
    "normalize_middleware",
    "normalize_simulator",
    "KernelTraceOracle",
    "check_final_state",
    "check_kernel_trace",
    "check_protocol",
    "CheckReport",
    "run_fuzz_index",
    "run_scenario",
    "run_simulator",
    "CheckTask",
    "Scenario",
    "ScenarioTask",
    "derive_run_seed",
    "generate_scenario",
    "load_artifact",
    "make_artifact",
    "replay_artifact",
    "save_artifact",
    "shrink_report",
    "shrink_scenario",
]
