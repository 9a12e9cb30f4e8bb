"""Check-artifact time-travel: snapshot just before the first failure.

A failing check artifact (``repro-check-repro/1``) replays from t=0;
for long scenarios the interesting part is the tail.  This module maps
the artifact's failure back onto an **engine event barrier** just
before it and captures an ``rtseed-snapshot/4`` there, so
``repro check --replay ART --from-snapshot SNAP`` restores the run at
the barrier (attested, see :mod:`repro.snapshot`), re-executes only
the remainder, and re-judges the failure.

Barrier mapping (:func:`divergence_snapshot`):

* a failure with a simulated time — every trace-oracle violation
  carries its kernel time, and every divergence of the theory
  differential the kernel time of its first differing event — maps
  through a *scout* re-execution that records ``(time,
  events_processed)`` at every collected probe event.  The barrier is
  the event count just before the first probe at or after the
  earliest failure time (the engine count increments *before* the
  event's callback runs, so ``events_processed - 1`` positions the
  engine immediately before the event that published the probe);
* a failure with no time (a crash, or a job that never completed) —
  the barrier falls back to the run's midpoint, honestly labeled
  ``"midpoint"`` in the info dict.

Because the restore is the same deterministic computation from t=0,
the re-judged report's failure kinds match the artifact's on a
faithful replay — that's what ``repro check --replay`` asserts.
"""

from bisect import bisect_left

from repro.check.differential import TOLERANCE
from repro.snapshot.core import SnapshotError
from repro.snapshot.programs import build_program
from repro.snapshot.resume import restore
from repro.snapshot.resume import snapshot as take_snapshot


def artifact_check_spec(artifact):
    """The ``check`` program spec re-executing this artifact's run
    (zero costs, as every check batch runs)."""
    return {
        "kind": "check",
        "scenario": dict(artifact["scenario"]),
        "cost_model": "zero",
        "noise_seed": 0,
    }


def failure_time(artifact):
    """Kernel time of the artifact's first failure: the earliest
    ``time`` among its divergences and oracle violations, or ``None``
    when no failure carries one."""
    report = artifact.get("report") or {}
    times = [
        failure["time"]
        for failure in (report.get("divergences", [])
                        + report.get("violations", []))
        if failure.get("time") is not None
    ]
    return min(times, default=None)


def _scout_probes(spec):
    """Re-execute the spec once, recording ``(time, events_processed)``
    at every collected probe event (aligned 1:1 with the artifact
    run's event stream — same topics, subscribed before the spawn)."""
    from repro.check.runner import EVENT_TOPICS

    run = build_program(spec).build()
    engine = run.kernel.engine
    probes = []
    run.kernel.probes.subscribe(
        lambda topic, time, data: probes.append(
            (time, engine.events_processed)),
        topics=EVENT_TOPICS,
    )
    # a crash is part of the run; the prefix still maps
    run.spawn().drain()
    return probes, engine.events_processed


def _barrier_before(probes, time):
    """Event count just before the first probe at or after ``time``
    (less the differential's :data:`TOLERANCE`, which covers the
    rounding of a divergence's shift back to kernel time); after the
    last probe's event when the failure comes later than every
    probe."""
    index = bisect_left(probes, time - TOLERANCE, key=lambda p: p[0])
    if index == len(probes):
        return probes[-1][1]
    return max(probes[index][1] - 1, 0)


def divergence_snapshot(artifact):
    """Snapshot the artifact's scenario just before its first failure.

    Two deterministic re-executions: a scout run to completion mapping
    the probe stream's times onto engine event counts, then a fresh
    run driven to the barrier and captured (see module docstring for
    the barrier rules).

    :returns: ``(document, info)`` — the ``rtseed-snapshot/4`` and a
        summary dict (``barrier``, ``barrier_source``,
        ``failure_time``, ``total_events``).
    """
    spec = artifact_check_spec(artifact)
    probes, total = _scout_probes(spec)

    time = failure_time(artifact)
    if time is not None:
        barrier = _barrier_before(probes, time)
        source = "failure_time"
    else:
        barrier = total // 2
        source = "midpoint"

    run = build_program(dict(spec))
    run.start()
    document = take_snapshot(run, at_events=barrier)
    info = {
        "barrier": barrier,
        "barrier_source": source,
        "failure_time": time,
        "total_events": total,
    }
    return document, info


def replay_from_snapshot(document):
    """Restore a ``check`` snapshot, finish the run, re-judge it.

    :returns: ``(report, payload)`` — a fresh
        :class:`~repro.check.runner.CheckReport` built by the oracles
        (and, for fault-free scenarios, the theory differential) over
        the full re-executed event stream, plus the program payload.
    """
    from repro.check.runner import judge_run

    if document.get("program", {}).get("kind") != "check":
        raise SnapshotError(
            f"not a check snapshot: program kind is "
            f"{document.get('program', {}).get('kind')!r}"
        )
    run = restore(document)
    payload = run.finish()
    return judge_run(run), payload
