"""Tests for fundamental analysis (macro series + Monte Carlo)."""

import numpy as np
import pytest

from repro.trading.fundamental import (
    FundamentalAnalyzer,
    MacroSeries,
    synthetic_macro,
)

pytestmark = pytest.mark.tier1


def test_macro_series_deterministic():
    a = MacroSeries("gdp", seed=5)
    b = MacroSeries("gdp", seed=5)
    assert [a.value_at_tick(i * 4000) for i in range(10)] == \
        [b.value_at_tick(i * 4000) for i in range(10)]


def test_macro_series_constant_within_period():
    """The value steps once per period, by one AR(1) step whose shock
    is the series' first standard-normal draw, and holds in between."""
    series = MacroSeries("gdp", seed=1, period=3600)
    first = series.value_at_tick(0)
    assert first == series.mean
    shock = series.shock_scale * np.random.default_rng(1).standard_normal()
    step = (series.mean + series.persistence * (first - series.mean)
            + shock)
    assert series.value_at_tick(3600) == step
    assert step != first
    assert {series.value_at_tick(tick) for tick in range(3600)} == {first}
    assert {series.value_at_tick(tick) for tick in range(3600, 7200)} \
        == {step}


def test_macro_series_mean_reversion():
    series = MacroSeries("gdp", seed=2, mean=1.0, persistence=0.5,
                         shock_scale=0.01)
    values = [series.value_at_tick(i * 3600) for i in range(500)]
    assert np.mean(values[100:]) == pytest.approx(1.0, abs=0.1)


def test_macro_series_validation():
    with pytest.raises(ValueError):
        MacroSeries("bad", persistence=1.0)
    with pytest.raises(ValueError):
        MacroSeries("bad", period=0)
    with pytest.raises(IndexError):
        MacroSeries("bad").value_at_tick(-1)


def test_synthetic_macro_panel():
    panel = synthetic_macro(seed=3)
    names = [series.name for series in panel]
    assert names == ["gdp_growth_diff", "interest_rate_diff", "cpi_diff"]


def test_fundamental_confidence_tightens_with_rounds():
    analyzer = FundamentalAnalyzer(synthetic_macro(0), rounds=6, seed=0)
    analyzer.tick_index = 100
    state = analyzer.start(None)
    confidences = []
    while not state.done:
        estimate = analyzer.refine(state)
        confidences.append(estimate.confidence)
    assert len(confidences) == 6
    # standard error shrinks -> confidence grows (allowing tiny noise)
    assert confidences[-1] > confidences[0]


def test_fundamental_signal_tracks_consensus():
    strong = [MacroSeries("g", seed=0, mean=3.0, persistence=0.0,
                          shock_scale=0.0)]
    analyzer = FundamentalAnalyzer(strong, rounds=8, noise_scale=0.1,
                                   seed=1)
    analyzer.tick_index = 0
    state = analyzer.start(None)
    estimate = None
    while not state.done:
        estimate = analyzer.refine(state)
    assert estimate.signal > 0.8  # tanh(3) ~ 0.995


def test_fundamental_deterministic_per_tick_and_seed():
    def run():
        analyzer = FundamentalAnalyzer(synthetic_macro(2), seed=9)
        analyzer.tick_index = 42
        state = analyzer.start(None)
        last = None
        while not state.done:
            last = analyzer.refine(state)
        return last.signal

    assert run() == run()


def test_fundamental_validation():
    with pytest.raises(ValueError):
        FundamentalAnalyzer([])
    with pytest.raises(ValueError):
        FundamentalAnalyzer(synthetic_macro(0), weights=[1.0])


def test_refine_after_done_rejected():
    analyzer = FundamentalAnalyzer(synthetic_macro(0), rounds=1)
    state = analyzer.start(None)
    analyzer.refine(state)
    with pytest.raises(RuntimeError):
        analyzer.refine(state)
