"""Execute scenarios on the middleware and the theory simulator and
aggregate verdicts.

:func:`run_scenario` is the single entry point the CLI, the shrinker
and the tests share: a :class:`~repro.snapshot.programs.CheckProgram`
run of the scenario, judged by :func:`judge_run` — the kernel-trace,
protocol and final-state oracles plus, for fault-free scenarios whose
optional CPUs are task-owned
(:attr:`~repro.check.scenario.Scenario.task_owned_optional_cpus`),
the theory simulator and the lockstep differential.  The program
class holds the check run's only build and drain; the snapshot
time-travel replay (:mod:`repro.check.timetravel`) judges its
restored program with the same :func:`judge_run`.
"""

from repro.check.differential import (
    compare_traces,
    normalize_middleware,
    normalize_simulator,
)
from repro.check.oracles import (
    check_final_state,
    check_kernel_trace,
    check_protocol,
)
from repro.check.scenario import Scenario
from repro.model.task_model import TaskSet
from repro.obs.profile import NullProfile
from repro.sched.simulator import ScheduleSimulator
from repro.snapshot.programs import CheckProgram

#: Event-count circuit breaker for the middleware kernel: a planted bug
#: that livelocks the protocol hits this instead of hanging the fuzzer;
#: the post-run liveness oracle then reports the stuck threads.
MAX_KERNEL_EVENTS = 2_000_000

#: Probe topics a check run records: the middleware protocol and the
#: kernel trace the oracles and the differential read.
EVENT_TOPICS = ("rtseed.*", "kernel.*")


class CheckReport:
    """Verdict for one scenario."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.divergences = []
        self.violations = []
        self.crash = None
        self.differential_ran = False
        #: flight-recorder snapshot(s) captured at the failure edge
        #: (``None`` on a clean run); rides into the
        #: ``repro-check-repro/1`` artifact via :meth:`to_dict`.
        self.flight = None

    @property
    def ok(self):
        return not (self.divergences or self.violations or self.crash)

    def failure_kinds(self):
        """Stable signature of *what* failed (for replay assertions)."""
        kinds = sorted(
            {d["kind"] for d in self.divergences}
            | {v["oracle"] for v in self.violations}
        )
        if self.crash is not None:
            kinds.append("crash")
        return kinds

    def to_dict(self):
        return {
            "ok": self.ok,
            "differential_ran": self.differential_ran,
            "divergences": self.divergences,
            "violations": self.violations,
            "crash": self.crash,
            "flight": self.flight,
        }

    def summary(self):
        if self.ok:
            return "ok"
        parts = []
        if self.divergences:
            parts.append(f"{len(self.divergences)} divergence(s): "
                         + self.divergences[0]["detail"])
        if self.violations:
            first = self.violations[0]
            parts.append(f"{len(self.violations)} oracle violation(s): "
                         f"[{first['oracle']}] {first['detail']}")
        if self.crash:
            parts.append(f"crash: {self.crash}")
        return "; ".join(parts)

    def __repr__(self):
        return f"<CheckReport {self.summary()}>"


def run_simulator(scenario):
    """The theory-simulator run of ``scenario`` (no faults possible)."""
    taskset = TaskSet([spec.to_model() for spec in scenario.tasks],
                      n_processors=scenario.n_cpus)
    simulator = ScheduleSimulator(
        taskset,
        policy="rmwp",
        assignment={spec.name: spec.cpu for spec in scenario.tasks},
        optional_assignment={
            spec.name: spec.optional_cpus for spec in scenario.tasks
        },
        optional_deadlines={
            spec.name: spec.optional_deadline for spec in scenario.tasks
        },
    )
    events = []
    simulator.probes.subscribe(
        lambda topic, time, data: events.append((topic, time,
                                                 dict(data))),
        topics=["sim.*"],
    )
    horizon = max(
        (spec.n_jobs + 1) * spec.period for spec in scenario.tasks
    )
    result = simulator.run(
        until=horizon,
        max_jobs_per_task={
            spec.name: spec.n_jobs for spec in scenario.tasks
        },
    )
    return events, result


def judge_run(run, profile=None):
    """Verdict over a drained
    :class:`~repro.snapshot.programs.CheckProgram`.

    Shared by :func:`run_scenario` (which just ran the program) and the
    snapshot time-travel replay (which restored a barrier snapshot and
    finished the run) — both judge the *full* recorded event stream
    with the same oracles and, for fault-free scenarios that meet its
    precondition
    (:attr:`~repro.check.scenario.Scenario.task_owned_optional_cpus`),
    the theory differential.
    """
    if profile is None:
        profile = NullProfile()
    scenario = run.scenario
    mw_events = run.events
    report = CheckReport(scenario)
    report.crash = run.crash
    with profile.section("check.oracles"):
        report.violations.extend(
            check_kernel_trace(mw_events, scenario.n_cpus)
        )
        report.violations.extend(check_protocol(mw_events, scenario))
        report.violations.extend(check_final_state(run.kernel))

    if (not scenario.has_faults and run.crash is None
            and scenario.task_owned_optional_cpus):
        with profile.section("check.simulator"):
            sim_events, _result = run_simulator(scenario)
        with profile.section("check.compare"):
            report.divergences.extend(
                compare_traces(
                    normalize_simulator(sim_events, scenario),
                    normalize_middleware(mw_events, scenario),
                    scenario,
                )
            )
        report.differential_ran = True
    if not report.ok:
        report.flight = run.recorder.snapshot("check_failure")
    return report


def run_scenario(scenario, profile=None):
    """Full verdict for one scenario (a
    :class:`~repro.check.scenario.Scenario` or its dict): a zero-cost
    :class:`~repro.snapshot.programs.CheckProgram` run, then
    :func:`judge_run`.

    :param profile: optional
        :class:`~repro.obs.profile.WallClockProfile` — phases are timed
        under ``check.middleware`` / ``check.oracles`` /
        ``check.simulator`` / ``check.compare`` sections.
    """
    if isinstance(scenario, Scenario):
        scenario = scenario.to_dict()
    if profile is None:
        profile = NullProfile()
    with profile.section("check.middleware"):
        run = CheckProgram({"scenario": scenario}).build().spawn()
        run.drain()
    return judge_run(run, profile=profile)


def run_fuzz_index(base_seed, index, fault_rate=0.0, shrink=True,
                   profile=None, tasks_per_core=None):
    """Run ``index`` of a check batch (:func:`repro.farm.farm_check`)
    and return its JSON-ready payload (what the farm ships home).

    The scenario seed comes from
    :func:`~repro.check.scenario.derive_run_seed`, so the payload is a
    pure function of ``(base_seed, index, fault_rate, shrink,
    tasks_per_core)`` — any partition of a batch's indices across
    workers reproduces the same results exactly.

    :param tasks_per_core: ``None`` draws a generated scenario
        (:func:`~repro.check.scenario.generate_scenario`); an integer
        draws one Xeon Phi core holding that many tasks
        (:func:`~repro.check.scenario.generate_core_scenario`, no
        fault plan).
    """
    from repro.check.scenario import (
        derive_run_seed,
        generate_core_scenario,
        generate_scenario,
    )
    from repro.check.shrink import make_artifact, shrink_report

    seed = derive_run_seed(base_seed, index)
    if tasks_per_core is None:
        scenario = generate_scenario(seed, fault_rate=fault_rate)
    else:
        scenario = generate_core_scenario(seed, n_tasks=tasks_per_core)
    try:
        report = run_scenario(scenario, profile=profile)
    except Exception as error:  # checker bug — report, don't hide
        report = CheckReport(scenario)
        report.crash = f"checker error {type(error).__name__}: {error}"
    payload = {
        "index": index,
        "seed": seed,
        "ok": report.ok,
        "differential_ran": bool(report.differential_ran),
        "summary": report.summary(),
    }
    if not report.ok:
        shrink_runs = 0
        if shrink:
            with (profile or NullProfile()).section("check.shrink"):
                scenario, shrink_runs = shrink_report(report)
                if scenario is not report.scenario:
                    report = run_scenario(scenario)
        payload["artifact"] = make_artifact(report,
                                            shrink_runs=shrink_runs)
    return payload
