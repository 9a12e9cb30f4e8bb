"""Structured tracing for the simulated kernel.

:meth:`Tracer.attach` subscribes a :class:`Tracer` to the kernel's
probe bus to collect a timeline of scheduling events (spawn, ready,
dispatch, preempt, block, timer expiry, signal delivery, exit), query
it, and render an ASCII Gantt chart — invaluable when debugging
middleware protocols.  Because it rides the fan-out bus, a tracer
coexists with metrics collectors and trace exporters on the same run.

Usage::

    tracer = Tracer.attach(kernel)
    ... run ...
    print(tracer.gantt(cpu=0, start=0, end=1_000_000))
"""

from collections import Counter, deque


class TraceRecord:
    """One scheduling event.

    ``extra`` carries any event-specific payload beyond the uniform
    thread fields (e.g. ``signum``/``latency`` for signal delivery,
    ``from_cpu``/``to_cpu`` for migrations); it is ``None`` for plain
    lifecycle events.
    """

    __slots__ = ("time", "event", "thread_name", "tid", "cpu", "extra")

    def __init__(self, time, event, thread_name, tid, cpu, extra=None):
        self.time = time
        self.event = event
        self.thread_name = thread_name
        self.tid = tid
        self.cpu = cpu
        self.extra = extra

    def __repr__(self):
        return (
            f"<{self.time:.0f} {self.event} {self.thread_name} "
            f"cpu={self.cpu}>"
        )


#: The uniform payload fields every ``kernel.*`` probe event carries.
_STANDARD_FIELDS = ("thread", "tid", "cpu", "prio")


class Tracer:
    """Collects kernel events; supports filtering and Gantt rendering.

    :param max_records: drop-oldest bound on memory (None = unbounded).
        Enforced with a ``deque(maxlen=...)``, so eviction is O(1) per
        record; :attr:`dropped` counts the evicted records.
    """

    def __init__(self, max_records=None):
        self.records = deque(maxlen=max_records)
        self.max_records = max_records
        self.dropped = 0
        self._bus = None

    @classmethod
    def attach(cls, kernel, max_records=None):
        """Create a tracer subscribed to the kernel's probe bus.

        Other observers (metrics, exporters) can subscribe to the same
        bus; nothing is clobbered.  Call :meth:`detach` to stop
        collecting.
        """
        tracer = cls(max_records=max_records)
        tracer._bus = kernel.probes
        kernel.probes.subscribe(tracer._on_probe, topics=("kernel.*",))
        return tracer

    def detach(self):
        """Unsubscribe from the bus (records stay queryable)."""
        if self._bus is not None:
            self._bus.unsubscribe(self._on_probe)
            self._bus = None

    def _record(self, time, event, thread_name, tid, cpu, extra=None):
        if self.max_records is not None and \
                len(self.records) == self.max_records:
            self.dropped += 1  # deque(maxlen) evicts the oldest in O(1)
        self.records.append(
            TraceRecord(time, event, thread_name, tid, cpu, extra)
        )

    def _on_probe(self, topic, time, data):
        extra = {key: value for key, value in data.items()
                 if key not in _STANDARD_FIELDS} or None
        self._record(time, topic[7:], data["thread"], data["tid"],
                     data["cpu"], extra)

    def __len__(self):
        return len(self.records)

    # -- queries -------------------------------------------------------

    def filter(self, event=None, thread_name=None, cpu=None, start=None,
               end=None):
        """Records matching every given criterion."""
        out = []
        for record in self.records:
            if event is not None and record.event != event:
                continue
            if thread_name is not None and \
                    record.thread_name != thread_name:
                continue
            if cpu is not None and record.cpu != cpu:
                continue
            if start is not None and record.time < start:
                continue
            if end is not None and record.time > end:
                continue
            out.append(record)
        return out

    def counts(self):
        """Event-name histogram."""
        return Counter(record.event for record in self.records)

    def dispatch_latency(self, thread_name):
        """(ready_time, dispatch_time) pairs for a thread — the raw
        material of wake-up latency studies."""
        pairs = []
        pending_ready = None
        for record in self.records:
            if record.thread_name != thread_name:
                continue
            if record.event == "ready":
                pending_ready = record.time
            elif record.event == "dispatch" and pending_ready is not None:
                pairs.append((pending_ready, record.time))
                pending_ready = None
        return pairs

    def busy_intervals(self, cpu):
        """(start, end, thread_name) occupancy intervals for a CPU,
        reconstructed from dispatch/preempt/block/exit events."""
        intervals = []
        current = None  # (thread_name, start)
        for record in self.records:
            if record.cpu != cpu:
                continue
            if record.event == "dispatch":
                if current is not None and record.time > current[1]:
                    intervals.append(
                        (current[1], record.time, current[0])
                    )
                current = (record.thread_name, record.time)
            elif record.event in ("preempt", "block", "thread_exit",
                                  "sleep_expire"):
                if current is not None and \
                        current[0] == record.thread_name:
                    if record.time > current[1]:
                        intervals.append(
                            (current[1], record.time, current[0])
                        )
                    current = None
        return intervals

    # -- rendering -----------------------------------------------------

    def gantt(self, cpu, start=None, end=None, width=80):
        """ASCII Gantt chart of one CPU's occupancy.

        Each distinct thread gets a letter; idle time is ``.``.
        """
        intervals = self.busy_intervals(cpu)
        if not intervals:
            return f"CPU {cpu}: (no activity)"
        if start is None:
            start = intervals[0][0]
        if end is None:
            end = intervals[-1][1]
        if end <= start:
            raise ValueError("end must exceed start")
        letters = {}
        chart = ["."] * width
        scale = (end - start) / width
        for seg_start, seg_end, name in intervals:
            if seg_end <= start or seg_start >= end:
                continue
            if name not in letters:
                letters[name] = chr(ord("A") + len(letters) % 26)
            first = int(max(seg_start - start, 0) / scale)
            last = int(min(seg_end - start, end - start) / scale)
            for i in range(first, max(last, first + 1)):
                if i < width:
                    chart[i] = letters[name]
        legend = "  ".join(
            f"{letter}={name}" for name, letter in sorted(
                letters.items(), key=lambda kv: kv[1]
            )
        )
        return (
            f"CPU {cpu} [{start:.0f}..{end:.0f}]\n"
            + "".join(chart) + "\n" + legend
        )
