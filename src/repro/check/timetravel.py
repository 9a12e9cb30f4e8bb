"""Check-artifact time-travel: snapshot just before the divergence.

A failing check artifact (``repro-check-repro/1``) replays from t=0;
for long scenarios the interesting part is the tail.  This module maps
the artifact's failure back onto an **engine event barrier** just
before the divergence and captures an ``rtseed-snapshot/3`` there, so
``repro check --replay ART --from-snapshot SNAP`` restores the run at
the barrier (attested, see :mod:`repro.snapshot`), re-executes only
the remainder, and re-judges the failure.

Barrier mapping (:func:`divergence_snapshot`):

* a detail naming a probe-stream position (``"... at event N"``) —
  a *scout* re-execution records
  ``engine.events_processed`` at every collected probe event, and the
  barrier is ``counts[N] - 1`` (the engine count increments *before*
  the event's callback runs, so that barrier positions the engine
  immediately before the event that published the divergent probe);
* any other failure (conformance divergences and oracle violations
  are in canonical-trace coordinates with no stream position) — the
  barrier falls back to the run's midpoint, honestly labeled
  ``"midpoint"`` in the info dict.

Because the restore is the same deterministic computation from t=0,
the re-judged report's failure kinds match the artifact's on a
faithful replay — that's what ``repro check --replay`` asserts.
"""

import re

from repro.simkernel.errors import SimKernelError
from repro.snapshot.core import SnapshotError
from repro.snapshot.programs import build_program
from repro.snapshot.resume import restore
from repro.snapshot.resume import snapshot as take_snapshot

_EVENT_INDEX_RE = re.compile(r"at event (\d+)")


def artifact_check_spec(artifact):
    """The ``check`` program spec re-executing this artifact's run
    (zero costs, as every check batch runs)."""
    return {
        "kind": "check",
        "scenario": dict(artifact["scenario"]),
        "cost_model": "zero",
        "noise_seed": 0,
        "collect_kernel_events": True,
    }


def divergence_probe_index(artifact):
    """Probe-stream index of the first recorded divergence, or ``None``
    when the failure names no stream position."""
    report = artifact.get("report") or {}
    for divergence in report.get("divergences", []):
        match = _EVENT_INDEX_RE.search(divergence.get("detail") or "")
        if match:
            return int(match.group(1))
    return None


def _scout_counts(spec):
    """Re-execute the spec once, recording ``events_processed`` at
    every collected probe event (aligned 1:1 with the artifact run's
    event stream — same topics, subscribed before start)."""
    from repro.check.runner import MAX_KERNEL_EVENTS, build_middleware

    middleware, _events = build_middleware(
        spec["scenario"],
        collect_kernel_events=spec["collect_kernel_events"],
        cost_model=spec["cost_model"],
        noise_seed=spec["noise_seed"],
    )
    counts = []
    engine = middleware.kernel.engine
    topics = ["rtseed.*"]
    if spec["collect_kernel_events"]:
        topics.append("kernel.*")
    middleware.probes.subscribe(
        lambda topic, time, data: counts.append(engine.events_processed),
        topics=topics,
    )
    try:
        middleware.run(max_events=MAX_KERNEL_EVENTS)
    except SimKernelError:
        pass  # the crash is part of the run; the prefix still maps
    return counts, engine.events_processed


def divergence_snapshot(artifact):
    """Snapshot the artifact's scenario just before its divergence.

    Two deterministic re-executions: a scout run to completion mapping
    the probe stream onto engine event counts, then a fresh run driven
    to the barrier and captured (see module docstring for the barrier
    rules).

    :returns: ``(document, info)`` — the ``rtseed-snapshot/3`` and a
        summary dict (``barrier``, ``barrier_source``, ``probe_index``,
        ``total_events``).
    """
    spec = artifact_check_spec(artifact)
    counts, total = _scout_counts(spec)

    index = divergence_probe_index(artifact)
    if index is not None and index < len(counts):
        barrier = max(counts[index] - 1, 0)
        source = "divergence_probe_index"
    else:
        index = None
        barrier = total // 2
        source = "midpoint"

    run = build_program(dict(spec))
    run.start()
    document = take_snapshot(run, at_events=barrier)
    info = {
        "barrier": barrier,
        "barrier_source": source,
        "probe_index": index,
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
    report = judge_run(
        run.spec["scenario"], run.events, run.kernel, run.crash,
        collect_kernel_events=run.spec.get("collect_kernel_events",
                                           True),
    )
    return report, payload
