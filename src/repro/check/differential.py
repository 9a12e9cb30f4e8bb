"""Lockstep trace comparison: theory simulator vs middleware simkernel.

Both backends run the same :class:`~repro.check.scenario.Scenario` on
the same scheduling-class core and publish their job lifecycle on a
probe bus (``sim.*`` from :class:`repro.sched.simulator.ScheduleSimulator`,
``rtseed.*`` from the Figure 6 protocol).  This module normalizes both
streams into one canonical event vocabulary and compares them event by
event.

Time bases
----------

The middleware releases job ``k`` of every task at ``start_time +
k*T``; the simulator at ``k*T``.  Scenarios use one ``start_time`` for
*all* tasks, so subtracting it maps middleware timestamps onto
simulator time exactly (modulo float rounding, covered by
:data:`TOLERANCE`).

Documented deviations (EXPERIMENTS.md §Deviations, item 4)
----------------------------------------------------------

1. **Early wind-up.**  When every optional part of a job completes
   before the OD, the middleware starts the wind-up immediately while
   RMWP sleeps until the OD.  Such jobs are canonicalized to the OD:
   the wind-up events keep their *durations* but are ordered at
   ``OD`` / ``OD + duration``, and the actual middleware start must lie
   in ``[last optional end, OD]``.  The generator only permits
   early-completing parts in single-task scenarios, where the shifted
   wind-up cannot perturb any other task.

2. **Dead parts.**  An optional part past its OD before it ever ran —
   in generated scenarios only via a mandatory part overrunning the OD
   (Figure 2, tau2).  The simulator discards such parts (per-part
   ``discarded`` fates, or one ``sim.discard`` when the OD passed
   before the mandatory completed); the middleware's optional thread
   wakes late, arms an already-expired timer and is terminated with
   ~zero execution.  Every variant is canonicalized to one
   ``part_dead`` event per part at the OD.  The *wind-up* events stay
   uncanonicalized, so the backends must still agree on when the
   wind-up actually ran.
"""

#: Absolute time tolerance, in nanoseconds.  Both backends compute
#: event times with the same float arithmetic; the only expected
#: discrepancy is last-ulp rounding from the middleware's start-time
#: shift (about 1e-7 ns at the simulated scales used).  One picosecond
#: is ~4 orders of magnitude above that and ~6 below any real
#: scheduling effect.
TOLERANCE = 1e-3

_KIND_ORDER = {
    "release": 0,
    "mandatory_begin": 1,
    "mandatory_end": 2,
    "optional_begin": 3,
    "optional_end": 4,
    "part_dead": 5,
    "windup_begin": 6,
    "windup_end": 7,
    "job_done": 8,
    "job_abort": 9,
    "incomplete": 10,
}


class TraceEvent:
    """One canonical lifecycle event (either backend)."""

    __slots__ = ("time", "kind", "task", "job", "part", "fate", "met",
                 "n_parts", "actual")

    def __init__(self, time, kind, task, job, part=None, fate=None,
                 met=None, n_parts=None, actual=None):
        self.time = time
        self.kind = kind
        self.task = task
        self.job = job
        self.part = part
        self.fate = fate
        self.met = met
        self.n_parts = n_parts
        #: pre-canonicalization timestamp (early wind-up only).
        self.actual = actual

    def sort_key(self):
        # Quantize to the tolerance grid so sub-tolerance time skew
        # cannot reorder the two streams differently.
        return (round(self.time, 3), _KIND_ORDER[self.kind], self.task,
                self.job, -1 if self.part is None else self.part)

    def signature(self):
        """Everything that must match exactly (no tolerance)."""
        return (self.kind, self.task, self.job, self.part, self.fate,
                self.met, self.n_parts)

    def __repr__(self):
        extra = ""
        if self.part is not None:
            extra += f"[{self.part}]"
        if self.fate is not None:
            extra += f" fate={self.fate}"
        if self.met is not None:
            extra += f" met={self.met}"
        if self.actual is not None:
            extra += f" actual={self.actual:.1f}"
        return (
            f"<{self.kind} {self.task}#{self.job}{extra} "
            f"t={self.time:.1f}>"
        )


class _JobRecord:
    __slots__ = ("release", "m_begin", "m_end", "discard_time", "parts",
                 "w_begin", "w_end", "met", "aborted")

    def __init__(self):
        self.release = None
        self.m_begin = None
        self.m_end = None
        self.discard_time = None
        self.parts = {}  # index -> [begin, end, fate]
        self.w_begin = None
        self.w_end = None
        self.met = None
        self.aborted = False

    def part(self, index):
        return self.parts.setdefault(index, [None, None, None])


def _parse_stream(events, prefix, shift):
    """Fold raw ``(topic, time, data)`` records into per-job records."""
    jobs = {}

    def record(data):
        return jobs.setdefault((data["task"], data["job"]), _JobRecord())

    for topic, time, data in events:
        if not topic.startswith(prefix):
            continue
        kind = topic[len(prefix):]
        time -= shift
        if kind == "release":
            record(data).release = data["release"] - shift
        elif kind == "mandatory_begin":
            record(data).m_begin = time
        elif kind == "mandatory_end":
            record(data).m_end = time
        elif kind == "discard":
            record(data).discard_time = time
        elif kind == "optional_begin":
            record(data).part(data["part"])[0] = time
        elif kind == "optional_end":
            slot = record(data).part(data["part"])
            slot[1] = time
            slot[2] = data["fate"]
        elif kind == "windup_begin":
            record(data).w_begin = time
        elif kind == "windup_end":
            record(data).w_end = time
        elif kind == "job_done":
            record(data).met = bool(data["met"])
        elif kind == "job_abort":
            record(data).aborted = True
    return jobs


def _canonical_events(jobs, scenario):
    """Expand job records into the canonical, deviation-tolerant trace."""
    specs = {task.name: task for task in scenario.tasks}
    out = []
    for (task, job), rec in jobs.items():
        spec = specs[task]
        od = (rec.release if rec.release is not None else 0.0) \
            + spec.optional_deadline
        add = out.append
        if rec.release is not None:
            add(TraceEvent(rec.release, "release", task, job))
        if rec.aborted:
            add(TraceEvent(rec.m_begin or 0.0, "job_abort", task, job))
            continue
        if rec.m_begin is not None:
            add(TraceEvent(rec.m_begin, "mandatory_begin", task, job))
        if rec.m_end is not None:
            add(TraceEvent(rec.m_end, "mandatory_end", task, job))

        dead_parts = set()
        if rec.discard_time is not None:
            # simulator, OD before mandatory end: one sim.discard event
            # covers every part; no per-part records exist
            dead_parts.update(range(spec.n_parallel))
            for index in range(spec.n_parallel):
                add(TraceEvent(od, "part_dead", task, job, part=index))
        else:
            for index, (begin, end, fate) in sorted(rec.parts.items()):
                if begin is None and fate == "discarded":
                    # simulator: part never ran before the OD
                    dead_parts.add(index)
                    add(TraceEvent(od, "part_dead", task, job,
                                   part=index))
                elif (begin is not None and fate == "terminated"
                        and begin >= od - TOLERANCE
                        and end is not None
                        and end - begin <= TOLERANCE):
                    # middleware: woke past the OD, terminated instantly
                    dead_parts.add(index)
                    add(TraceEvent(od, "part_dead", task, job,
                                   part=index))
                else:
                    if begin is not None:
                        add(TraceEvent(begin, "optional_begin", task,
                                       job, part=index))
                    if end is not None:
                        add(TraceEvent(end, "optional_end", task, job,
                                       part=index, fate=fate))

        if rec.w_end is None:
            add(TraceEvent(rec.release or 0.0, "incomplete", task, job))
            continue

        w_begin, w_end = rec.w_begin, rec.w_end
        actual = None
        live_fates = [
            slot[2] for index, slot in rec.parts.items()
            if index not in dead_parts
        ]
        if (live_fates
                and all(fate == "completed" for fate in live_fates)
                and w_begin is not None and w_begin < od - TOLERANCE):
            # early wind-up: order at the OD, keep the duration
            actual = w_begin
            duration = w_end - w_begin
            w_begin = od
            w_end = od + duration
        if w_begin is not None:
            add(TraceEvent(w_begin, "windup_begin", task, job,
                           actual=actual))
        add(TraceEvent(
            w_end, "windup_end", task, job,
            actual=None if actual is None else actual + (w_end - w_begin),
        ))
        add(TraceEvent(w_end, "job_done", task, job, met=rec.met))
    out.sort(key=TraceEvent.sort_key)
    return out


def normalize_middleware(events, scenario):
    """Canonical trace from raw ``rtseed.*`` probe records."""
    jobs = _parse_stream(events, "rtseed.", scenario.start_time)
    return _canonical_events(jobs, scenario)


def normalize_simulator(events, scenario):
    """Canonical trace from raw ``sim.*`` probe records."""
    jobs = _parse_stream(events, "sim.", 0.0)
    return _canonical_events(jobs, scenario)


def _divergence(kind, detail, time, sim=None, mw=None):
    return {
        "kind": kind,
        "detail": detail,
        "time": time,
        "sim": None if sim is None else repr(sim),
        "mw": None if mw is None else repr(mw),
    }


def compare_traces(sim_trace, mw_trace, scenario, max_divergences=16):
    """Event-by-event comparison; returns a list of divergence dicts.

    Order, identity (kind/task/job/part/fate/met) and time (within
    :data:`TOLERANCE`) must all agree.  For canonicalized early
    wind-ups the middleware's *actual* start must lie between the last
    optional completion and the OD — checked via the ``actual`` field
    against the canonical (OD-ordered) time.

    Each divergence's ``time`` is the middleware kernel time of its
    first differing event: the earlier canonical time of the pair
    (of the first unmatched event for ``length_mismatch``) plus
    ``scenario.start_time``.
    """
    start = scenario.start_time
    divergences = []
    for index, (sim, mw) in enumerate(zip(sim_trace, mw_trace)):
        if len(divergences) >= max_divergences:
            break
        if sim.signature() != mw.signature():
            divergences.append(_divergence(
                "event_mismatch",
                f"trace position {index}: events differ",
                start + min(sim.time, mw.time), sim=sim, mw=mw,
            ))
            # identity mismatch desynchronizes the zip; stop here
            break
        if mw.actual is not None and mw.actual > mw.time + TOLERANCE:
            # early wind-up: canonical time is the OD; the middleware
            # actually started/ended earlier — never later.
            divergences.append(_divergence(
                "windup_late",
                f"{mw.kind} {mw.task}#{mw.job}: actual "
                f"{mw.actual:.1f} past OD-ordered {mw.time:.1f}",
                start + min(sim.time, mw.time), sim=sim, mw=mw,
            ))
            continue
        if abs(sim.time - mw.time) > TOLERANCE:
            divergences.append(_divergence(
                "time_skew",
                f"{sim.kind} {sim.task}#{sim.job}: sim {sim.time:.3f} "
                f"vs middleware {mw.time:.3f}",
                start + min(sim.time, mw.time), sim=sim, mw=mw,
            ))
    if len(sim_trace) != len(mw_trace) and \
            len(divergences) < max_divergences:
        longer, side = (sim_trace, "sim") if \
            len(sim_trace) > len(mw_trace) else (mw_trace, "mw")
        extra = longer[min(len(sim_trace), len(mw_trace))]
        divergences.append(_divergence(
            "length_mismatch",
            f"sim has {len(sim_trace)} events, middleware "
            f"{len(mw_trace)}; first unmatched on {side}: {extra!r}",
            start + extra.time,
        ))
    return divergences
