"""Delta-debugging shrinker and replayable repro artifacts.

Given a failing :class:`~repro.check.scenario.Scenario`, greedily apply
structure-removing transformations — drop a task, drop an optional
part, halve a job count, halve a part length — keeping each candidate
only if it still fails *for an overlapping reason*, until no
transformation helps.  The result is saved as a self-contained JSON
artifact that replays with nothing but the checker itself::

    PYTHONPATH=src python -m repro.cli check --replay artifact.json

Transformations preserve the generator's comparability invariants
(:mod:`repro.check.scenario`): tasks keep at least one optional part,
and in multi-task scenarios part lengths never shrink below the
optional deadline (so parts still overrun).  A shrink step must make
the candidate *smaller*, so the loop is a finite descent.
"""

import json

from repro.check.scenario import SCHEMA, Scenario

ARTIFACT_SCHEMA = "repro-check-repro/1"


def _with_tasks(scenario, tasks):
    return Scenario(
        n_cpus=scenario.n_cpus,
        start_time=scenario.start_time,
        tasks=tasks,
        seed=scenario.seed,
        fault_plan=scenario.fault_plan,
    )


def _clone_task(task, **overrides):
    from repro.check.scenario import ScenarioTask

    data = task.to_dict()
    data.update(overrides)
    return ScenarioTask.from_dict(data)


def _candidates(scenario):
    """Strictly-smaller variants, most aggressive first."""
    tasks = scenario.tasks

    # drop one task entirely
    if len(tasks) > 1:
        for skip in range(len(tasks)):
            yield _with_tasks(
                scenario, tasks[:skip] + tasks[skip + 1:]
            )

    # drop the fault plan
    if scenario.has_faults:
        candidate = _with_tasks(scenario, list(tasks))
        candidate.fault_plan = None
        yield candidate

    # drop one optional part (keep at least one per task)
    for index, task in enumerate(tasks):
        if task.n_parallel <= 1:
            continue
        for part in range(task.n_parallel):
            optionals = list(task.optionals)
            cpus = list(task.optional_cpus)
            del optionals[part]
            del cpus[part]
            smaller = _clone_task(task, optionals=optionals,
                                  optional_cpus=cpus)
            yield _with_tasks(
                scenario, tasks[:index] + [smaller] + tasks[index + 1:]
            )

    # halve a job count
    for index, task in enumerate(tasks):
        if task.n_jobs <= 1:
            continue
        smaller = _clone_task(task, n_jobs=max(1, task.n_jobs // 2))
        yield _with_tasks(
            scenario, tasks[:index] + [smaller] + tasks[index + 1:]
        )

    # halve one part's length (respect the overrun clamp, see module
    # docstring; skip once the floor is reached)
    floor_free = len(tasks) == 1
    for index, task in enumerate(tasks):
        floor = 1.0 if floor_free else task.optional_deadline
        for part, length in enumerate(task.optionals):
            halved = max(length / 2.0, floor)
            if halved >= length:
                continue
            optionals = list(task.optionals)
            optionals[part] = halved
            smaller = _clone_task(task, optionals=optionals)
            yield _with_tasks(
                scenario, tasks[:index] + [smaller] + tasks[index + 1:]
            )


def shrink_scenario(scenario, still_fails, max_runs=400):
    """Greedy fixpoint shrink.

    :param still_fails: predicate on a candidate :class:`Scenario`;
        usually :func:`failure_predicate` around the original report.
    :param max_runs: budget on predicate evaluations.
    :returns: ``(smallest failing scenario, predicate runs used)``.
    """
    best = scenario
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in _candidates(best):
            runs += 1
            if still_fails(candidate):
                best = candidate
                improved = True
                break
            if runs >= max_runs:
                break
    return best, runs


def failure_predicate(original_kinds, run=None):
    """Predicate keeping candidates that fail for an overlapping reason.

    Requiring overlap (not mere failure) stops the shrinker from
    sliding onto an unrelated failure mode mid-descent.
    """
    if run is None:
        from repro.check.runner import run_scenario as run
    kinds = set(original_kinds)

    def still_fails(candidate):
        try:
            report = run(candidate)
        except Exception:  # a crash mid-shrink is still the bug's fault
            return False
        return bool(kinds & set(report.failure_kinds()))

    return still_fails


def shrink_report(report, max_runs=400):
    """Shrink a failing :class:`~repro.check.runner.CheckReport`'s
    scenario; returns ``(scenario, runs)``."""
    predicate = failure_predicate(report.failure_kinds())
    return shrink_scenario(report.scenario, predicate, max_runs=max_runs)


# ---------------------------------------------------------------------
# repro artifacts
# ---------------------------------------------------------------------


def make_artifact(report, shrink_runs=0):
    """Self-contained JSON-able repro of one failure: ``report``'s own
    scenario with that run's verdict, so the artifact replays to the
    summary it carries."""
    scenario = report.scenario
    return {
        "schema": ARTIFACT_SCHEMA,
        "scenario_schema": SCHEMA,
        "seed": scenario.seed,
        "failure_kinds": report.failure_kinds(),
        "summary": report.summary(),
        "shrink_runs": shrink_runs,
        "scenario": scenario.to_dict(),
        "report": report.to_dict(),
    }


def save_artifact(path, artifact):
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_artifact(path):
    with open(path) as handle:
        artifact = json.load(handle)
    schema = artifact.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(f"unknown artifact schema {schema!r}")
    return artifact


def replay_artifact(artifact, run=None):
    """Re-run an artifact's scenario; returns the fresh report."""
    if run is None:
        from repro.check.runner import run_scenario as run
    return run(Scenario.from_dict(artifact["scenario"]))
