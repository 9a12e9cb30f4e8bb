"""Unified run report: every telemetry source in one JSON document.

The observability subsystem grew one collector per concern — simulated
:class:`~repro.obs.metrics.SchedulerMetrics`, wall-clock
:class:`~repro.obs.profile.WallClockProfile`, the engine/queue counters
(``Engine.counters`` / queue ``counters``), fault-injection and
degraded-mode stats.  :class:`RunReport` merges whichever of those a run
used into one deterministic JSON document (stable key order; wall-clock
data is opt-out via ``include_wallclock=False`` so byte-stable reports
remain available to CI diffing).

Emitted by ``repro run --emit report`` and consumed by
``tools/bench_report.py``; see ``docs/OBSERVABILITY.md``.
"""

import json

#: Report document schema tag.
RUN_REPORT_SCHEMA = "rtseed-run-report/1"


class RunReport:
    """Assembles the merged report; sections are plain JSON-ready dicts.

    Use :meth:`collect` for the standard assembly from a finished run;
    the instance is also buildable piecewise (``report.sections[...] =
    ...``) for callers with unusual section sources.
    """

    def __init__(self):
        self.sections = {"schema": RUN_REPORT_SCHEMA}

    @classmethod
    def collect(cls, kernel, metrics=None, profile=None, injector=None,
                watchdog=None, degrade=None, include_wallclock=True):
        """Build the report from a finished run's collaborators.

        :param kernel: the simulated kernel (engine + queue counters).
        :param metrics: optional
            :class:`~repro.obs.metrics.SchedulerMetrics` (or a bare
            registry) — its sorted snapshot becomes the ``metrics``
            section.
        :param profile: optional
            :class:`~repro.obs.profile.WallClockProfile`; skipped when
            ``include_wallclock`` is false (wall-clock data breaks
            byte-determinism).
        :param injector: optional
            :class:`~repro.faults.injectors.FaultInjector` (injected
            fault counts).
        :param watchdog: optional
            :class:`~repro.core.resilience.OverrunWatchdog`.
        :param degrade: optional
            :class:`~repro.core.resilience.DegradedModeController`.
        """
        report = cls()
        sections = report.sections
        sections["engine"] = {
            "now": kernel.engine.now,
            "counters": kernel.engine.counters(),
        }
        queues = {}
        for cpu, runqueue in enumerate(kernel.runqueues):
            if hasattr(runqueue, "counters"):
                queues[f"cpu{cpu}"] = runqueue.counters()
        sections["queues"] = queues
        if metrics is not None:
            registry = getattr(metrics, "registry", metrics)
            sections["metrics"] = registry.snapshot()
        fault_stats = {}
        if injector is not None:
            fault_stats["injected"] = dict(injector.counts)
        if watchdog is not None:
            fault_stats["watchdog_fires"] = len(watchdog.fired)
        if degrade is not None:
            fault_stats["degraded"] = {
                "active": degrade.degraded,
                "episodes": len(degrade.episodes),
                "shed_jobs": degrade.shed_jobs,
            }
        if fault_stats:
            sections["faults"] = fault_stats
        if profile is not None and include_wallclock:
            sections["wallclock"] = profile.report()
        return report

    @classmethod
    def merge(cls, reports):
        """Shard-aware merge of per-shard run reports into one document.

        The scenario farm (``repro.farm``) executes independent kernels
        in separate processes; each contributes one
        ``rtseed-run-report/1`` dict (or :class:`RunReport`).  The merge
        sums what is additive and takes the peak of what is a
        high-water mark:

        * ``engine`` — counters summed key-by-key (``peak_heap_size``
          by max); ``now`` becomes the *total* simulated time across
          shards;
        * ``queues`` — per-label (``cpu0`` ...) counter sums, ``peak_*``
          and ``level_peaks`` by max;
        * ``faults`` — injected counts, watchdog fires, degraded
          episode/shed totals summed; ``degraded.active`` is true if
          any shard ended degraded.

        Per-shard-only sections (``metrics`` histograms, ``wallclock``)
        are dropped: quantiles and wall time do not merge additively,
        and wall-clock data must never enter deterministic bytes.  The
        merged document records ``shards`` so consumers can tell it
        from a single-run report.
        """
        documents = [report.to_dict() if isinstance(report, RunReport)
                     else report for report in reports]
        merged = cls()
        merged.sections["shards"] = len(documents)
        engines = [doc["engine"] for doc in documents if "engine" in doc]
        if engines:
            merged.sections["engine"] = {
                "now": sum(engine["now"] for engine in engines),
                "counters": _merge_counters(
                    [engine["counters"] for engine in engines]
                ),
            }
        queue_sections = [doc["queues"] for doc in documents
                          if "queues" in doc]
        if queue_sections:
            labels = sorted({label for queues in queue_sections
                             for label in queues})
            merged.sections["queues"] = {
                label: _merge_counters(
                    [queues[label] for queues in queue_sections
                     if label in queues]
                )
                for label in labels
            }
        fault_sections = [doc["faults"] for doc in documents
                          if "faults" in doc]
        if fault_sections:
            merged.sections["faults"] = _merge_faults(fault_sections)
        return merged

    def to_dict(self):
        return dict(self.sections)

    def to_json(self):
        """Deterministic rendering: sorted keys, trailing newline."""
        return json.dumps(self.sections, sort_keys=True, indent=2) + "\n"

    def __repr__(self):
        names = sorted(k for k in self.sections if k != "schema")
        return f"<RunReport sections={names}>"


#: Counter keys that are high-water marks: merged by max, not sum.
_PEAK_KEYS = frozenset({"peak_heap_size", "peak_depth", "level_peaks"})

#: Counter keys that identify rather than count: kept as-is (they are
#: equal across shards for the same label).
_IDENTITY_KEYS = frozenset({"cpu"})


def _merge_counters(dicts, peak=False):
    """Recursively merge counter dicts: sum counts, max the peaks."""
    merged = {}
    keys = sorted({key for entry in dicts for key in entry})
    for key in keys:
        values = [entry[key] for entry in dicts if key in entry]
        if isinstance(values[0], dict):
            merged[key] = _merge_counters(values,
                                          peak=peak or key in _PEAK_KEYS)
        elif key in _IDENTITY_KEYS:
            merged[key] = values[0]
        elif peak or key in _PEAK_KEYS:
            merged[key] = max(values)
        else:
            merged[key] = sum(values)
    return merged


def _merge_faults(sections):
    """Sum the fault/resilience stats across shards."""
    merged = {}
    injected = [section["injected"] for section in sections
                if "injected" in section]
    if injected:
        merged["injected"] = _merge_counters(injected)
    fires = [section["watchdog_fires"] for section in sections
             if "watchdog_fires" in section]
    if fires:
        merged["watchdog_fires"] = sum(fires)
    degraded = [section["degraded"] for section in sections
                if "degraded" in section]
    if degraded:
        merged["degraded"] = {
            "active": any(entry["active"] for entry in degraded),
            "episodes": sum(entry["episodes"] for entry in degraded),
            "shed_jobs": sum(entry["shed_jobs"] for entry in degraded),
        }
    return merged
