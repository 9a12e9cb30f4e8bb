"""Tests for the metrics registry and the scheduler metrics collector."""

import json
from bisect import bisect_left, insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.middleware import RTSeed
from repro.core.task import WorkloadTask
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SchedulerMetrics,
)
from repro.simkernel.time_units import MSEC

pytestmark = pytest.mark.tier1


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_counter_and_gauge():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = Gauge()
    assert gauge.value is None
    gauge.set(3.5)
    gauge.set(7.0)
    assert gauge.value == 7.0


def test_histogram_exact_quantiles_uniform():
    """1..100 observed once each: nearest-rank quantiles are exact."""
    histogram = Histogram()
    for value in range(1, 101):
        histogram.observe(value)
    assert histogram.count == 100
    assert histogram.exact
    assert histogram.quantile(0.50) == 50
    assert histogram.quantile(0.95) == 95
    assert histogram.quantile(0.99) == 99
    assert histogram.quantile(1.00) == 100
    assert histogram.min == 1 and histogram.max == 100
    assert histogram.mean == pytest.approx(50.5)


def test_histogram_exact_quantiles_skewed():
    """Quantiles of a known skewed distribution are the exact order
    statistics, not bucket approximations."""
    histogram = Histogram()
    values = [10.0] * 90 + [1000.0] * 9 + [50000.0]
    for value in values:
        histogram.observe(value)
    assert histogram.quantile(0.50) == 10.0
    assert histogram.quantile(0.90) == 10.0
    assert histogram.quantile(0.95) == 1000.0
    assert histogram.quantile(0.99) == 1000.0
    assert histogram.quantile(1.00) == 50000.0


def test_histogram_single_observation():
    histogram = Histogram()
    histogram.observe(123.0)
    for q in (0.01, 0.5, 0.99, 1.0):
        assert histogram.quantile(q) == 123.0


def test_histogram_quantile_bounds_checked():
    histogram = Histogram()
    histogram.observe(1.0)
    with pytest.raises(ValueError):
        histogram.quantile(0.0)
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    assert Histogram().quantile(0.5) is None  # empty


def test_histogram_interpolates_beyond_sample_cap():
    """Past the retention cap quantiles fall back to bucket
    interpolation but stay within the right bucket."""
    histogram = Histogram(buckets=(100, 200, 400), sample_cap=10)
    for _ in range(100):
        histogram.observe(150.0)
    assert not histogram.exact
    p50 = histogram.quantile(0.5)
    assert 100 <= p50 <= 200
    assert histogram.quantile(1.0) <= 400


def test_histogram_summary_scaling():
    histogram = Histogram()
    for value in (1000.0, 2000.0, 3000.0):
        histogram.observe(value)
    summary = histogram.summary(scale=1000.0)
    assert summary["count"] == 3
    assert summary["mean"] == pytest.approx(2.0)
    assert summary["min"] == pytest.approx(1.0)
    assert summary["max"] == pytest.approx(3.0)
    assert Histogram().summary() == {"count": 0}


def test_histogram_rejects_empty_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=())


class InsortHistogram(Histogram):
    """The model: the histogram as it was when every retained sample was
    inserted in order (``insort``) and a quantile read the list as it
    stood."""

    __slots__ = ()

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
            insort(self._samples, value)

    def quantile(self, q):
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        if self.count == 0:
            return None
        if self.exact:
            rank = max(int(q * self.count + 0.999999) - 1, 0)
            return self._samples[rank]
        return self._interpolate(q)


#: Values that tie often, ``-0.0`` with ``0.0`` among them, so the
#: order of equal samples shows in the quantiles' signs.
sample_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 150.0, 150.0, 1e9]),
    st.integers(-5, 5),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
)
quantiles = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)

# (observe?, value, q): a sample, or a quantile read between samples
histogram_ops = st.lists(
    st.tuples(st.booleans(), sample_values, quantiles),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=histogram_ops, sample_cap=st.integers(1, 12))
def test_lazily_sorted_histogram_matches_the_insort_model(ops, sample_cap):
    """Appending and sorting on read gives the insort histogram's
    counts, exactness, quantiles and summary, bit for bit: sorting is
    stable, so equal samples keep their arrival order as ``insort``
    kept it, and a ``sample_cap`` below the sequence's length moves
    both to bucket interpolation at the same sample."""
    buckets = (-1.0, 0.0, 100.0, 200.0, 1e6)
    histogram = Histogram(buckets=buckets, sample_cap=sample_cap)
    model = InsortHistogram(buckets=buckets, sample_cap=sample_cap)
    for observe, value, q in ops:
        if observe:
            histogram.observe(value)
            model.observe(value)
        else:
            assert repr(histogram.quantile(q)) == repr(model.quantile(q))
        assert histogram.count == model.count
        assert histogram.exact == model.exact
    for rank in range(1, histogram.count + 1):
        q = rank / histogram.count
        assert repr(histogram.quantile(q)) == repr(model.quantile(q))
    assert repr(histogram.summary(scale=1000.0)) \
        == repr(model.summary(scale=1000.0))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_keys_and_reuse():
    registry = MetricsRegistry()
    assert registry.counter("a.b") is registry.counter("a.b")
    assert registry.counter("a.b", "x") is not registry.counter("a.b")
    registry.counter("a.b", "x").inc(2)
    registry.gauge("g").set(1.0)
    registry.histogram("h").observe(5.0)
    snap = registry.snapshot()
    assert snap["counters"] == {"a.b": 0, "a.b[x]": 2}
    assert snap["gauges"] == {"g": 1.0}
    assert snap["histograms"]["h"]["count"] == 1


def test_registry_snapshot_is_json_serializable():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.histogram("h").observe(10.0)
    json.dumps(registry.snapshot())  # must not raise


def test_registry_snapshot_records_clock():
    class FakeClock:
        now = 1234.5

    registry = MetricsRegistry(clock=FakeClock())
    assert registry.snapshot()["now"] == 1234.5
    assert "now" not in MetricsRegistry().snapshot()


# ---------------------------------------------------------------------------
# the scheduler collector, end to end
# ---------------------------------------------------------------------------


def observed_run(n_jobs=3, n_parallel=2, optional=40 * MSEC):
    middleware = RTSeed(cost_model="zero")
    task = WorkloadTask("tau1", 20 * MSEC, optional, 10 * MSEC,
                        200 * MSEC, n_parallel=n_parallel)
    middleware.add_task(task, n_jobs=n_jobs,
                        optional_deadline=150 * MSEC)
    metrics = SchedulerMetrics.attach(middleware.kernel)
    middleware.run()
    return metrics


def test_scheduler_metrics_per_task_quantiles():
    metrics = observed_run()
    snap = metrics.snapshot()
    response = snap["histograms"]["rtseed.response_time[tau1]"]
    assert response["count"] == 3
    for field in ("mean", "p50", "p95", "p99", "max"):
        assert response[field] > 0
    assert snap["counters"]["rtseed.jobs[tau1]"] == 3
    assert snap["counters"]["kernel.dispatches"] > 0


def test_scheduler_metrics_delta_overheads_present():
    """The Δb/Δe/Δs-style overheads appear as per-task histograms."""
    metrics = observed_run()
    snap = metrics.snapshot()
    for which in "mbse":
        summary = snap["histograms"][f"rtseed.delta_{which}[tau1]"]
        assert summary["count"] == 3, f"delta_{which} not collected"


def test_scheduler_metrics_termination_latency():
    """Optional parts that overrun their deadline produce termination
    latencies (paper's Δe source) and terminated counters."""
    metrics = observed_run(optional=400 * MSEC)  # always overruns OD
    snap = metrics.snapshot()
    assert snap["counters"]["rtseed.optional_terminated[tau1]"] == 6
    latency = snap["histograms"]["termination.latency"]
    assert latency["count"] == 6
    assert latency["p99"] >= 0


def test_scheduler_metrics_signal_latency_and_timers():
    metrics = observed_run(optional=400 * MSEC)
    snap = metrics.snapshot()
    assert snap["counters"]["kernel.timer_expirations"] == 6
    assert snap["counters"]["kernel.signals_delivered"] == 6
    assert snap["histograms"]["kernel.signal_latency"]["count"] == 6


def test_scheduler_metrics_detach_stops_collection():
    middleware = RTSeed(cost_model="zero")
    task = WorkloadTask("tau1", 20 * MSEC, 40 * MSEC, 10 * MSEC,
                        200 * MSEC, n_parallel=1)
    middleware.add_task(task, n_jobs=1, optional_deadline=150 * MSEC)
    metrics = SchedulerMetrics.attach(middleware.kernel)
    metrics.detach()
    middleware.run()
    assert metrics.snapshot()["counters"] == {}


def test_scheduler_metrics_format_table():
    metrics = observed_run()
    text = metrics.format()
    assert "counters:" in text
    assert "rtseed.response_time[tau1]" in text
    assert "p99" in text
