"""Flight recorder: a bounded ring of probe events plus a state dump.

A failed invariant check, a check-differential divergence, or a
degraded-mode entry used to surface as a bare exception — the events
*leading up to* the failure were gone.  The flight recorder keeps the
last N probe events in a ring buffer and, at every failure edge, writes
one deterministic JSONL artifact: a header, a kernel state summary
(per-CPU running thread, ready-queue depths, pending timers, degraded
flag), then the recorded events oldest-first.

The recorder is *always-on by design*: it subscribes to the
:class:`~repro.obs.bus.ProbeBus` **passively** (``passive=True``), so
it never flips ``bus.active`` — probe sites keep skipping payload
construction entirely until a real observer (tracer, metrics, campaign
counter, check runner) activates the bus, at which point the recorder
rides along on the events those observers cause to be published: an
idle bus costs nothing.

Failure edges that dump automatically:

* ``InvariantViolationError`` — :func:`repro.faults.invariants.\
check_kernel_invariants` asks ``kernel.probes.flight`` to
  :meth:`~FlightRecorder.record_failure` before raising;
* trace divergence in ``repro check`` — the check runner attaches the
  snapshot into the ``repro-check-repro/1`` artifact;
* ``degrade.enter`` / ``degrade.watchdog_fire`` — the recorder watches
  for these topics itself (:data:`AUTO_DUMP_TOPICS`);
* on demand — ``repro run --emit flight=PATH``.

Determinism: events are recorded in publish order with simulated-time
stamps and JSON-primitive payloads, so a seeded run dumps byte-identical
artifacts on every execution.
"""

import json
import os
from collections import deque

#: Dump artifact schema tag (header line ``schema`` field).
FLIGHTREC_SCHEMA = "rtseed-flightrec/1"

#: Default ring capacity (events retained).
DEFAULT_CAPACITY = 512

#: Topics whose arrival triggers an automatic dump when a ``dump_dir``
#: is configured — the resilience layer's own failure edges.
AUTO_DUMP_TOPICS = frozenset({"degrade.enter", "degrade.watchdog_fire"})

#: Process-wide dump sequence numbers, keyed by ``(directory, reason,
#: seed)``.  The counter must outlive any single recorder: two recorder
#: instances in one process (e.g. a campaign scenario and the farm's
#: quarantine recorder, or two scenarios sharing a ``--flight-dir``)
#: dumping the same reason and seed would otherwise both compute
#: sequence 1 and silently overwrite each other's files.  Keying by
#: directory keeps per-run determinism: a fresh run into a fresh
#: directory still starts at 1.
_DUMP_SEQUENCES = {}


def kernel_state_summary(kernel, degrade=None):
    """JSON-ready snapshot of the scheduler state *right now*.

    :param degrade: optional
        :class:`~repro.core.resilience.DegradedModeController`; the
        summary's ``degraded`` field is ``None`` when no controller is
        wired (distinct from ``False`` — "not degraded").

    Timers are keyed by name and sorted by ``(expires_at, name)`` —
    never by ``timer_id``, which is process-global and therefore not
    reproducible across runs.
    """
    engine = kernel.engine
    cpus = []
    for cpu, thread in enumerate(kernel.current):
        cpus.append({
            "cpu": cpu,
            "running": None if thread is None else thread.name,
            "tid": None if thread is None else thread.tid,
            "prio": None if thread is None else thread.priority,
            "ready_depth": len(kernel.runqueues[cpu]),
            "other_depth": len(kernel.other_queues[cpu]),
        })
    timers = sorted(
        (
            {
                "name": timer.name,
                "owner": timer.owner.name,
                "signum": timer.signum,
                "expires_at": timer.expires_at,
            }
            for timer in kernel.armed_timers
        ),
        key=lambda entry: (entry["expires_at"], entry["name"]),
    )
    return {
        "now": engine.now,
        "cpus": cpus,
        "pending_timers": timers,
        "engine": {
            "pending": engine.pending_count,
            "heap_size": engine.heap_size,
            "events_processed": engine.events_processed,
        },
        "threads_alive": sum(1 for t in kernel.threads if t.alive),
        "degraded": None if degrade is None else degrade.degraded,
    }


def render_dump(document):
    """The JSONL bytes of a :meth:`FlightRecorder.snapshot` document:
    header, kernel summary, then the events oldest-first."""
    lines = [document["header"], document["kernel"], *document["events"]]
    return "".join(json.dumps(line, sort_keys=True) + "\n"
                   for line in lines)


class FlightRecorder:
    """Bounded ring of probe events with failure-edge dumping.

    :param capacity: events retained (oldest dropped first).
    :param dump_dir: directory for automatic dumps; ``None`` keeps
        snapshots in memory only (callers dump explicitly).
    :param seed: workload seed stamped into every dump header.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY, dump_dir=None,
                 seed=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.seed = seed
        #: total events seen (ring length caps at ``capacity``).
        self.recorded = 0
        #: paths written so far, in order.
        self.dumps = []
        #: optional :class:`~repro.core.resilience.\
        #: DegradedModeController` for the summary's ``degraded`` flag.
        self.degrade = None
        self._ring = deque(maxlen=capacity)
        self._kernel = None
        self._bus = None

    @classmethod
    def attach(cls, kernel, capacity=DEFAULT_CAPACITY, dump_dir=None,
               seed=None, passive=True):
        """Create a recorder wired to ``kernel`` (the usual entry);
        ``passive=False`` activates the bus, so the ring holds the full
        probe stream with nothing else attached."""
        recorder = cls(capacity=capacity, dump_dir=dump_dir, seed=seed)
        return recorder.wire(kernel, passive=passive)

    def wire(self, kernel, passive=True):
        """Subscribe (passively by default) to the kernel's bus and
        register as its ``probes.flight`` recorder; returns ``self``."""
        self._kernel = kernel
        return self.wire_bus(kernel.probes, passive=passive)

    def wire_bus(self, bus, passive=True):
        """Subscribe (passively by default) to a bare :class:`~repro.\
obs.bus.ProbeBus` with no kernel behind it; returns ``self``.

        Used by publishers that own their event stream outright — the
        scenario farm records its ``farm.*`` lifecycle this way.  Dumps
        carry ``null`` in place of the kernel state summary."""
        bus.subscribe(self._on_event, passive=passive)
        bus.flight = self
        self._bus = bus
        return self

    def detach(self):
        """Unsubscribe and unregister (mainly for tests)."""
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            if self._bus.flight is self:
                self._bus.flight = None
            self._bus = None
        self._kernel = None

    @property
    def dropped(self):
        """Events that fell off the ring's old end."""
        return self.recorded - len(self._ring)

    def __len__(self):
        return len(self._ring)

    def _on_event(self, topic, time, data):
        self.recorded += 1
        self._ring.append((topic, time, data))
        if topic in AUTO_DUMP_TOPICS and self.dump_dir is not None:
            self.dump_to_dir(topic.replace(".", "_"))

    def events(self):
        """Ring contents oldest-first, as fresh JSON-ready dicts."""
        return [
            {"topic": topic, "time": time, "data": dict(data)}
            for topic, time, data in self._ring
        ]

    def tail(self):
        """Ring contents as comparable ``(topic, time, sorted-items)``
        tuples — the canonical form the parity checks byte-compare."""
        return [
            (topic, time, tuple(sorted(data.items())))
            for topic, time, data in self._ring
        ]

    def snapshot(self, reason):
        """The full dump document as one JSON-ready dict."""
        header = {
            "schema": FLIGHTREC_SCHEMA,
            "reason": reason,
            "seed": self.seed,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
        }
        kernel = None
        if self._kernel is not None:
            kernel = kernel_state_summary(self._kernel,
                                          degrade=self.degrade)
            header["now"] = kernel["now"]
        return {"header": header, "kernel": kernel,
                "events": self.events()}

    def dump(self, path, reason, document=None):
        """Write the snapshot to ``path`` as deterministic JSONL.

        Line 1 is the header, line 2 the kernel summary, then one line
        per recorded event oldest-first.  Publishes ``flightrec.dump``
        *after* snapshotting, so the dump never contains its own marker
        but live observers still see it.  The marker names the file
        only: later dumps of the run record it, and their bytes must
        not depend on how the directory was spelled.  :attr:`dumps`
        keeps the full paths.
        """
        if document is None:
            document = self.snapshot(reason)
        with open(path, "w") as handle:
            handle.write(render_dump(document))
        self.dumps.append(path)
        bus = self._bus
        if bus is not None and bus.active:
            bus.publish("flightrec.dump", reason=reason,
                        recorded=document["header"]["recorded"],
                        dropped=document["header"]["dropped"],
                        path=os.path.basename(path))
        return path

    def dump_to_dir(self, reason, document=None):
        """Dump into :attr:`dump_dir` under a deterministic name.

        ``flightrec-<reason>-seed<seed>.jsonl``, suffixed ``-2``,
        ``-3`` ... for repeat dumps with the same reason — counted
        process-wide per ``(directory, reason, seed)``
        (:data:`_DUMP_SEQUENCES`), so a *different* recorder instance
        dumping the same reason and seed into the same directory gets
        the next suffix instead of overwriting the earlier file.  The
        sequence is part of the deterministic run: two executions of
        the same seed into fresh directories produce identical file
        sets.
        """
        os.makedirs(self.dump_dir, exist_ok=True)
        key = (os.path.abspath(self.dump_dir), reason, self.seed)
        sequence = _DUMP_SEQUENCES.get(key, 0) + 1
        _DUMP_SEQUENCES[key] = sequence
        suffix = "" if sequence == 1 else f"-{sequence}"
        name = f"flightrec-{reason}-seed{self.seed}{suffix}.jsonl"
        return self.dump(os.path.join(self.dump_dir, name), reason,
                         document=document)

    def record_failure(self, reason):
        """Failure-edge entry point: snapshot now, dump if a directory
        is configured, return the snapshot (callers attach it to the
        exception or the check artifact)."""
        document = self.snapshot(reason)
        if self.dump_dir is not None:
            self.dump_to_dir(reason, document=document)
        return document

    def __repr__(self):
        return (
            f"<FlightRecorder {len(self._ring)}/{self.capacity} "
            f"recorded={self.recorded} dumps={len(self.dumps)}>"
        )
