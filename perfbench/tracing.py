"""In-memory span tracer for the benchmark's traced run.

Every span is recorded from outside the program: the tracer wraps public
functions of the ``repro`` layers for the duration of the traced run
(:meth:`Tracer.wrap`, :meth:`Tracer.patch`) and hands timing proxies in
through constructor arguments (:class:`TimedCostModel`,
:class:`TimedAnalyzer`).  The
untraced runs therefore execute the program exactly as shipped.

Calls that happen thousands of times per simulated job (cost-model
pricing, analyzer refinement) are aggregated into counters instead of
spans; their time is charged to the span that was open when they ran,
so a layer's self time is its spans' duration minus the time covered by
child spans and by these aggregated calls.
"""

import functools
import os
import time
from contextlib import contextmanager

# span record slots (lists, not dicts: a traced check batch records tens
# of thousands of spans)
_ID, _OP, _PARENT, _NAME, _LAYER, _START, _END, _PID, _COVERED = range(9)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        #: operation id stamped on every span opened while it is set
        self.op = 0
        self._stack = []
        self._next_id = 1
        self._patches = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name, layer):
        parent = self._stack[-1][_ID] if self._stack else 0
        pid = os.getpid()
        # ids stay unique across forked farm workers: the pid is part of it
        record = [pid << 32 | self._next_id, self.op, parent, name, layer,
                  time.perf_counter_ns(), None, pid, 0]
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            record[_END] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    def add_call(self, layer, elapsed_ns):
        """Charge an aggregated call to ``layer`` and to the open span."""
        self.count(f"{layer}.calls")
        self.count(f"{layer}.ns", elapsed_ns)
        if self._stack:
            self._stack[-1][_COVERED] += elapsed_ns

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        """Keep the maximum of ``name`` (merged by max, not sum)."""
        self.counters[name] = max(self.counters.get(name, value), value)

    def take(self):
        """Hand over (and forget) everything recorded so far — what a
        farm worker ships home with each item."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], {}
        return spans, counters

    def merge(self, spans, counters):
        self.spans.extend(spans)
        for name, amount in counters.items():
            if name.endswith(".max"):
                self.peak(name, amount)
            else:
                self.count(name, amount)

    # -- wrapping public functions ---------------------------------------

    def wrap(self, owner, attr, name, layer, after=None):
        """Replace ``owner.attr`` by a span-recording wrapper until
        :meth:`unwrap`; ``after(args, result)`` runs after each call."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, layer):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner, attr, replacement):
        """Replace ``owner.attr`` by ``replacement`` until :meth:`unwrap`."""
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def unwrap(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def durations(self, name, under=None):
        """Durations (ns) of every span called ``name`` (only those whose
        parent span is called ``under``, if given)."""
        parents = None if under is None else {
            s[_ID] for s in self.spans if s[_NAME] == under}
        return [s[_END] - s[_START] for s in self.spans
                if s[_NAME] == name
                and (parents is None or s[_PARENT] in parents)]

    def total_ns(self, name):
        return sum(self.durations(name))

    def root_ns(self):
        """Summed duration of the spans nothing encloses."""
        return sum(s[_END] - s[_START] for s in self.spans if not s[_PARENT])

    def self_ns_by_name(self):
        """Self time per span name: duration minus the part of it that
        child spans cover (their union: farm items run in parallel) and
        minus aggregated calls made while the span was innermost."""
        children = {}
        for s in self.spans:
            children.setdefault(s[_PARENT], []).append((s[_START], s[_END]))
        out = {}
        for s in self.spans:
            covered = 0
            reach = s[_START]
            for start, end in sorted(children.get(s[_ID], ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            own = s[_END] - s[_START] - covered - s[_COVERED]
            out[s[_NAME]] = out.get(s[_NAME], 0) + own
        return out

    def self_ns_by_layer(self):
        out = {}
        layer_of = {s[_NAME]: s[_LAYER] for s in self.spans}
        for name, own in self.self_ns_by_name().items():
            layer = layer_of[name]
            out[layer] = out.get(layer, 0) + own
        for key, amount in self.counters.items():
            if key.endswith(".ns"):
                layer = key[:-3]
                out[layer] = out.get(layer, 0) + amount
        return out

    def by_op(self, name):
        """Summed duration of ``name`` spans per operation and process:
        ``{op: {pid: ns}}``."""
        out = {}
        for s in self.spans:
            if s[_NAME] == name:
                pids = out.setdefault(s[_OP], {})
                pids[s[_PID]] = pids.get(s[_PID], 0) + s[_END] - s[_START]
        return out

    def chrome_trace(self):
        """Trace-event JSON (one track per process, complete events)."""
        base = min((s[_START] for s in self.spans), default=0)
        events = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"pid {pid}"}}
            for pid in sorted({s[_PID] for s in self.spans})
        ]
        for s in sorted(self.spans, key=lambda s: (s[_START], -s[_END])):
            events.append({
                "name": s[_NAME], "cat": s[_LAYER], "ph": "X",
                "ts": (s[_START] - base) / 1e3,
                "dur": (s[_END] - s[_START]) / 1e3,
                "pid": s[_PID], "tid": 0,
                "args": {"id": s[_ID], "op": s[_OP], "parent": s[_PARENT]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class TimedCostModel:
    """Cost-model proxy that times and counts every pricing hook.

    Passed to ``RTSeed(cost_model=...)``; the wrapped model does the
    pricing, so the simulated outcome is unchanged.
    """

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _timed(self, hook, *args, **kwargs):
        start = time.perf_counter_ns()
        cost = getattr(self._inner, hook)(*args, **kwargs)
        self._tracer.add_call("hardware", time.perf_counter_ns() - start)
        return cost

    def context_switch(self, *args, **kwargs):
        return self._timed("context_switch", *args, **kwargs)

    def wakeup_latency(self, *args, **kwargs):
        return self._timed("wakeup_latency", *args, **kwargs)

    def cond_signal(self, *args, **kwargs):
        return self._timed("cond_signal", *args, **kwargs)

    def timer_handler(self, *args, **kwargs):
        return self._timed("timer_handler", *args, **kwargs)

    def unwind(self, *args, **kwargs):
        return self._timed("unwind", *args, **kwargs)

    def mutex_handoff(self, *args, **kwargs):
        return self._timed("mutex_handoff", *args, **kwargs)

    def syscall(self, *args, **kwargs):
        return self._timed("syscall", *args, **kwargs)


class TimedAnalyzer:
    """Anytime-analyzer proxy that times ``start`` and ``refine``.

    Passed to ``RealTimeTradingSystem(analyzers=...)``; attribute reads
    and writes (``tick_index``, ``step_cost``, ...) go to the wrapped
    analyzer.
    """

    def __init__(self, inner, tracer):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)

    def start(self, prices):
        begin = time.perf_counter_ns()
        state = self._inner.start(prices)
        self._tracer.add_call("trading", time.perf_counter_ns() - begin)
        return state

    def refine(self, state):
        begin = time.perf_counter_ns()
        estimate = self._inner.refine(state)
        self._tracer.add_call("trading", time.perf_counter_ns() - begin)
        self._tracer.count("trading.refines")
        return estimate


class SpanProfile:
    """``WallClockProfile`` stand-in for the check runner's ``profile=``
    hook: each ``section`` becomes a span."""

    LAYERS = {"check.simulator": "sched"}

    def __init__(self, tracer):
        self._tracer = tracer

    def section(self, name):
        return self._tracer.span(name, self.LAYERS.get(name, "check"))
