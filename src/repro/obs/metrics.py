"""Metrics keyed on simulated time: counters, gauges, histograms.

Two layers:

* the generic :class:`MetricsRegistry` (counters / gauges /
  fixed-bucket histograms with p50/p95/p99/max quantiles and a
  ``snapshot()`` dict) — usable standalone;
* :class:`SchedulerMetrics`, a :class:`~repro.obs.bus.ProbeBus`
  subscriber that populates a registry with the reproduction's standard
  observables: dispatch/preemption/migration counts, wake-up and signal
  latencies, and — per task — response times, tardiness, QoS, and the
  paper's Δm/Δb/Δs/Δe overheads (Figs. 10–13) plus termination
  latencies.

All durations are recorded in *simulated nanoseconds*; quantile
summaries additionally report microseconds for the Δ-overheads so they
read directly against the paper's figures.
"""

from bisect import bisect_left

from repro.simkernel.time_units import NSEC_PER_USEC

#: Default histogram buckets: 1-2-5 decades from 100 ns to 10 s, in ns.
#: Wide enough for everything from per-signal costs to response times.
DEFAULT_BUCKETS = tuple(
    mantissa * 10 ** exponent
    for exponent in range(2, 10)
    for mantissa in (1, 2, 5)
) + (10 ** 10,)

#: Raw-sample retention cap per histogram: below it quantiles are exact
#: (sorted-sample nearest-rank), above it they interpolate from buckets.
DEFAULT_SAMPLE_CAP = 65536


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def __repr__(self):
        return f"<Counter {self.value}>"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = None

    def set(self, value):
        self.value = value

    def __repr__(self):
        return f"<Gauge {self.value}>"


class Histogram:
    """Fixed-bucket histogram with exact small-sample quantiles.

    :param buckets: ascending upper bucket bounds; an implicit +inf
        bucket catches the rest.
    :param sample_cap: raw samples kept for exact quantiles; beyond the
        cap quantiles fall back to linear interpolation within the
        matching bucket, Prometheus-style.

    A sample is appended in O(1) and the samples are sorted when a
    quantile is read (in O(n) when nothing arrived since the last read).
    """

    __slots__ = ("buckets", "bucket_counts", "count", "total",
                 "min", "max", "_samples", "_sample_cap")

    def __init__(self, buckets=DEFAULT_BUCKETS, sample_cap=DEFAULT_SAMPLE_CAP):
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("need at least one bucket bound")
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._samples = []
        self._sample_cap = sample_cap

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        if len(self._samples) < self._sample_cap:
            self._samples.append(value)

    @property
    def mean(self):
        return self.total / self.count if self.count else None

    @property
    def exact(self):
        """True while every observation is retained (quantiles exact)."""
        return len(self._samples) == self.count

    def quantile(self, q):
        """The q-quantile (0 < q <= 1), nearest-rank on the retained
        samples; bucket-interpolated once the sample cap overflowed."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        if self.count == 0:
            return None
        if self.exact:
            self._samples.sort()
            rank = max(int(q * self.count + 0.999999) - 1, 0)
            return self._samples[rank]
        return self._interpolate(q)

    def _interpolate(self, q):
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for index, bucket_count in enumerate(self.bucket_counts):
            upper = (self.buckets[index] if index < len(self.buckets)
                     else self.max)
            if cumulative + bucket_count >= target and bucket_count:
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
            lower = upper
        return self.max

    def summary(self, scale=1.0):
        """Dict summary; ``scale`` divides every value (e.g. 1000 for
        ns -> us)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean / scale,
            "min": self.min / scale,
            "max": self.max / scale,
            "p50": self.quantile(0.50) / scale,
            "p95": self.quantile(0.95) / scale,
            "p99": self.quantile(0.99) / scale,
        }

    def __repr__(self):
        return f"<Histogram n={self.count} mean={self.mean}>"


class MetricsRegistry:
    """Named counters / gauges / histograms with a nested snapshot.

    Names are dotted strings; per-entity series use ``name[label]``
    (e.g. ``"rtseed.response_time[tau1]"``) — :meth:`snapshot` groups
    labelled series under their family name.

    :param clock: optional object exposing ``.now``; the snapshot then
        records the simulated time it was taken at.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    @staticmethod
    def _key(name, label):
        return f"{name}[{label}]" if label is not None else name

    def counter(self, name, label=None):
        key = self._key(name, label)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name, label=None):
        key = self._key(name, label)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(self, name, label=None, buckets=DEFAULT_BUCKETS):
        key = self._key(name, label)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(buckets=buckets)
        return histogram

    def snapshot(self, scale=1.0):
        """Plain-dict snapshot of every metric (JSON-serializable).

        Histogram values are divided by ``scale`` (durations are stored
        in simulated ns; pass ``1000`` to read microseconds).
        """
        snap = {
            "counters": {
                key: counter.value
                for key, counter in sorted(self._counters.items())
            },
            "gauges": {
                key: gauge.value
                for key, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                key: histogram.summary(scale=scale)
                for key, histogram in sorted(self._histograms.items())
            },
        }
        if self.clock is not None:
            snap["now"] = self.clock.now
        return snap


class SchedulerMetrics:
    """Probe-bus subscriber filling a registry with standard observables.

    Usage::

        metrics = SchedulerMetrics.attach(kernel)
        ... run ...
        snap = metrics.snapshot()
        snap["histograms"]["rtseed.response_time[tau1]"]["p99"]

    :param registry: a :class:`MetricsRegistry`; created if omitted.
    """

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._ready_since = {}
        self._bus = None

    @classmethod
    def attach(cls, kernel, registry=None):
        """Create a collector and subscribe it to ``kernel.probes``."""
        metrics = cls(registry=registry)
        if metrics.registry.clock is None:
            metrics.registry.clock = kernel.engine
        metrics._bus = kernel.probes
        kernel.probes.subscribe(metrics, topics=cls.TOPICS)
        return metrics

    def detach(self):
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None

    def snapshot(self, scale=1.0):
        return self.registry.snapshot(scale=scale)

    # -- the subscriber ------------------------------------------------

    def __call__(self, topic, time, data):
        handler = self._HANDLERS.get(topic)
        if handler is not None:
            handler(self, time, data)

    def _on_ready(self, time, data):
        self._ready_since[data["tid"]] = time

    def _on_dispatch(self, time, data):
        registry = self.registry
        registry.counter("kernel.dispatches").inc()
        ready_at = self._ready_since.pop(data["tid"], None)
        if ready_at is not None:
            registry.histogram("kernel.dispatch_latency").observe(
                time - ready_at
            )

    def _on_preempt(self, _time, _data):
        self.registry.counter("kernel.preemptions").inc()

    def _on_migrate(self, _time, _data):
        self.registry.counter("kernel.migrations").inc()

    def _on_signal_deliver(self, _time, data):
        registry = self.registry
        registry.counter("kernel.signals_delivered").inc()
        latency = data.get("latency")
        if latency is not None:
            registry.histogram("kernel.signal_latency").observe(latency)

    def _on_timer_expire(self, _time, _data):
        self.registry.counter("kernel.timer_expirations").inc()

    def _on_job_done(self, _time, data):
        registry = self.registry
        task = data["task"]
        registry.counter("rtseed.jobs", task).inc()
        registry.histogram("rtseed.response_time", task).observe(
            data["response"]
        )
        if data["tardiness"] > 0:
            registry.counter("rtseed.deadline_misses", task).inc()
            registry.histogram("rtseed.tardiness", task).observe(
                data["tardiness"]
            )
        registry.histogram("rtseed.qos", task).observe(data["qos"])
        for which in "mbse":
            delta = data.get(f"delta_{which}")
            if delta is not None:
                registry.histogram(f"rtseed.delta_{which}", task).observe(
                    delta
                )

    def _on_optional_end(self, _time, data):
        self.registry.counter(
            f"rtseed.optional_{data['fate']}", data["task"]
        ).inc()

    def _on_discard(self, _time, data):
        self.registry.counter(
            "rtseed.optional_discarded", data["task"]
        ).inc(data["n_parts"])

    def _on_terminated(self, _time, data):
        self.registry.histogram("termination.latency").observe(
            data["overrun"]
        )

    def _on_trading_order(self, time, data):
        registry = self.registry
        registry.counter("trading.orders").inc()
        registry.histogram("trading.tick_to_order").observe(
            time - data["release"]
        )

    def _on_engine_compact(self, _time, data):
        registry = self.registry
        registry.counter("engine.compactions").inc()
        registry.counter("engine.swept_events").inc(data["swept"])

    _HANDLERS = {
        "kernel.ready": _on_ready,
        "kernel.dispatch": _on_dispatch,
        "kernel.preempt": _on_preempt,
        "kernel.migrate": _on_migrate,
        "kernel.signal_deliver": _on_signal_deliver,
        "kernel.timer_expire": _on_timer_expire,
        "rtseed.job_done": _on_job_done,
        "rtseed.optional_end": _on_optional_end,
        "rtseed.discard": _on_discard,
        "termination.terminated": _on_terminated,
        "trading.order": _on_trading_order,
        "engine.compact": _on_engine_compact,
    }

    #: Topics this subscriber consumes: exactly those it handles.
    TOPICS = tuple(_HANDLERS)

    # -- formatting ----------------------------------------------------

    def format(self):
        """Human-readable snapshot (counters + quantile table)."""
        snap = self.snapshot()
        lines = ["counters:"]
        for key, value in snap["counters"].items():
            lines.append(f"  {key:42s} {value}")
        lines.append("histograms [us]:")
        header = (f"  {'name':42s} {'count':>6s} {'mean':>10s} "
                  f"{'p50':>10s} {'p95':>10s} {'p99':>10s} {'max':>10s}")
        lines.append(header)
        for key, summary in snap["histograms"].items():
            if summary["count"] == 0:
                continue
            lines.append(
                f"  {key:42s} {summary['count']:>6d} "
                + " ".join(
                    f"{summary[field] / NSEC_PER_USEC:>10.1f}"
                    for field in ("mean", "p50", "p95", "p99", "max")
                )
            )
        return "\n".join(lines)
