"""Tests for technical indicators and anytime analyzers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trading import indicators
from repro.trading.indicators import (
    AnytimeBollinger,
    AnytimeMACD,
    AnytimeMomentum,
    AnytimeRSI,
    Estimate,
    bollinger_bands,
    ema,
    macd,
    rsi,
    sma,
)
from repro.trading.system import default_analyzers
from tests.trading.reference import (
    model_indicators,
    reference_bollinger_bands,
    reference_clamp,
    reference_ema,
    reference_macd,
    reference_rsi,
)

pytestmark = pytest.mark.tier1


# ---------------------------------------------------------------------------
# pure functions
# ---------------------------------------------------------------------------


def test_sma_basic():
    assert sma([1, 2, 3, 4], 2) == pytest.approx(3.5)
    assert sma([1, 2, 3, 4], 4) == pytest.approx(2.5)


def test_sma_validation():
    with pytest.raises(ValueError):
        sma([1, 2], 3)
    with pytest.raises(ValueError):
        sma([1, 2], 0)


def test_ema_constant_series():
    assert ema([5.0] * 10, 4) == pytest.approx(5.0)


def test_ema_weights_recent_prices_more():
    rising = ema([1, 1, 1, 10], 2)
    assert rising > sma([1, 1, 1, 10], 4)


def test_ema_validation():
    with pytest.raises(ValueError):
        ema([], 3)
    with pytest.raises(ValueError):
        ema([1.0], 0)


def test_bollinger_constant_series_bands_collapse():
    middle, upper, lower = bollinger_bands([2.0] * 25, window=20)
    assert middle == upper == lower == pytest.approx(2.0)


def test_bollinger_band_width_is_2k_sigma():
    prices = [1.0, 2.0] * 10  # std 0.5
    middle, upper, lower = bollinger_bands(prices, window=20, k=2.0)
    assert middle == pytest.approx(1.5)
    assert upper == pytest.approx(2.5)
    assert lower == pytest.approx(0.5)


def test_bollinger_validation():
    with pytest.raises(ValueError):
        bollinger_bands([1.0] * 5, window=20)


def test_rsi_uptrend_is_100():
    assert rsi(list(range(1, 20)), window=14) == pytest.approx(100.0)


def test_rsi_downtrend_is_0():
    assert rsi(list(range(20, 1, -1)), window=14) == pytest.approx(0.0)


def test_rsi_balanced_is_50():
    prices = [1.0, 2.0] * 10
    assert rsi(prices, window=14) == pytest.approx(50.0, abs=1.0)


def test_rsi_validation():
    with pytest.raises(ValueError):
        rsi([1.0] * 10, window=14)


def test_macd_flat_series_zero():
    macd_line, signal_line, histogram = macd([3.0] * 50)
    assert macd_line == pytest.approx(0.0, abs=1e-12)
    assert histogram == pytest.approx(0.0, abs=1e-12)


def test_macd_uptrend_positive():
    prices = np.linspace(1.0, 2.0, 60)
    macd_line, _signal, _hist = macd(prices)
    assert macd_line > 0


def test_macd_validation():
    with pytest.raises(ValueError):
        macd([1.0] * 10)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=25,
                max_size=60))
def test_bollinger_band_ordering(prices):
    middle, upper, lower = bollinger_bands(prices, window=20)
    assert lower <= middle <= upper


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=16,
                max_size=60))
def test_rsi_bounded(prices):
    value = rsi(prices, window=14)
    assert 0.0 <= value <= 100.0


# ---------------------------------------------------------------------------
# exact model (tests/trading/reference.py): same values, same types
# ---------------------------------------------------------------------------


def _exact(value):
    """A value with its type and every bit: ``float.hex`` tells -0.0
    from 0.0 and gives NaN a spelling that compares equal."""
    if isinstance(value, tuple):
        return tuple(_exact(item) for item in value)
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, float):
        return type(value), value.hex()
    return type(value), value


PRICE = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def macd_cases(draw):
    fast = draw(st.integers(1, 30))
    slow = draw(st.sampled_from([fast, 1]) | st.integers(1, 30))
    signal = draw(st.integers(1, 12))
    extra = draw(st.integers(0, 40))
    prices = draw(st.lists(PRICE, min_size=slow + signal + extra,
                           max_size=slow + signal + extra))
    return prices, fast, slow, signal


def _ticks(n, seed=0):
    rng = np.random.default_rng(seed)
    return 1.1 + 0.01 * rng.standard_normal(n).cumsum()


@settings(max_examples=80, deadline=None)
@given(st.lists(PRICE, min_size=1, max_size=200), st.integers(1, 40))
def test_ema_matches_the_model(prices, window):
    assert _exact(ema(prices, window)) \
        == _exact(reference_ema(prices, window))
    assert _exact(ema(np.asarray(prices), window)) \
        == _exact(reference_ema(np.asarray(prices), window))


@settings(max_examples=80, deadline=None)
@given(macd_cases())
@example((_ticks(37).tolist(), 12, 12, 9))      # fast == slow
@example((_ticks(40).tolist(), 5, 1, 4))        # slow == 1
@example((_ticks(30).tolist(), 12, 26, 1))      # signal == 1
@example((_ticks(35).tolist(), 12, 26, 9))      # exactly slow + signal
@example(([1.5] * 2, 1, 1, 1))                  # the shortest series
def test_macd_matches_the_model(case):
    prices, fast, slow, signal = case
    assert _exact(macd(prices, fast, slow, signal)) \
        == _exact(reference_macd(prices, fast, slow, signal))


#: values on which a sum, a difference or a square root goes wrong
#: first: NaN, infinities, signed zeros, subnormals and sums that
#: overflow
SPECIAL = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
    -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
    1.7976931348623157e308,
])


@st.composite
def reduction_windows(draw):
    """A non-empty 1-D float64 array of up to 400 values, sometimes a
    strided or reversed view: seeded normal draws at one of several
    scales around a drawn offset, with up to eight drawn values
    (special ones likely) written over them."""
    n = draw(st.integers(1, 400))
    step = draw(st.sampled_from([1, 1, 2, 3, -1, -2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-310, 1e-3, 1.0, 1e3, 1e300]))
    base = rng.standard_normal(n * abs(step)) * scale \
        + draw(st.floats(-1e3, 1e3))
    for index, value in draw(st.lists(
            st.tuples(st.integers(0, len(base) - 1), SPECIAL | st.floats()),
            max_size=8)):
        base[index] = value
    return base[::step][:n]


@settings(max_examples=300, deadline=None)
@given(reduction_windows())
@example(np.array([1.5]))
@example(np.array([float("nan")]))
@example(np.array([float("inf"), float("-inf")]))
@example(np.array([-0.0, -0.0]))
@example(np.array([1e308, 1e308, -1e308]))
@example(np.array([5e-324] * 3))
@example(np.arange(20.0)[::3])
def test_mean_std_matches_the_method_forms(values):
    """``_mean_std`` returns what ``mean()`` and ``std(ddof=0)`` return,
    in type and in every bit."""
    with np.errstate(all="ignore"):
        got = indicators._mean_std(values)
        want = float(values.mean()), float(values.std(ddof=0))
    assert _exact(got) == _exact(want)


@settings(max_examples=120, deadline=None)
@given(st.lists(PRICE | SPECIAL, min_size=1, max_size=120),
       st.integers(1, 40), st.floats(0.0, 4.0))
def test_bollinger_bands_match_the_model(prices, window, k):
    window = min(window, len(prices))
    with np.errstate(all="ignore"):
        got = bollinger_bands(prices, window, k)
        want = reference_bollinger_bands(prices, window, k)
    assert _exact(got) == _exact(want)


@settings(max_examples=150, deadline=None)
@given(st.lists(PRICE | SPECIAL, min_size=2, max_size=120)
       | reduction_windows().filter(lambda values: len(values) >= 2),
       st.integers(1, 40))
@example([1.0, 2.0, 1.5, 3.0], 3)
@example([1.0, 0.5, 0.25, 0.125], 3)
@example([2.0, 2.0, 2.0], 2)
# eight gains: summed one after another they round differently from
# numpy's pairwise sum
@example([1.0, 0.7, 1.6, 0.1, 2.2, 0.8, 1.5, 0.2, 2.1, 0.9, 1.4, 0.3,
          2.0, 1.0, 1.3, 0.4, 1.9], 16)
def test_rsi_matches_the_model(prices, window):
    """RSI's price differences are ``np.diff``'s and its sums are
    ``sum()``'s: a reversed difference swaps gains and losses, which
    moves every value other than 50 and the flat 100, and a sum in
    another order moves the last bits."""
    window = min(window, len(prices) - 1)
    with np.errstate(all="ignore"):
        got = rsi(prices, window)
        want = reference_rsi(prices, window)
    assert _exact(got) == _exact(want)


def _refine_all(analyzer, prices):
    state = analyzer.start(prices)
    estimates = []
    while not state.done:
        estimate = analyzer.refine(state)
        estimates.append(_exact((estimate.analyzer, estimate.signal,
                                 estimate.confidence, estimate.detail)))
    return estimates


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=35,
                max_size=200),
       st.sampled_from([(12, 26, 9), (5, 5, 3), (3, 1, 1), (8, 17, 1)]))
def test_macd_refines_match_the_model(prices, windows):
    analyzer = AnytimeMACD(*windows)
    got = _refine_all(analyzer, prices)
    with model_indicators():
        want = _refine_all(analyzer, prices)
    assert got == want
    assert len(got) == len(analyzer.start(prices).windows)


@pytest.mark.parametrize("seed", range(3))
def test_panel_estimates_match_the_model(seed):
    """Every analyzer of the trading panel, refined to completion on a
    120-tick history (the panel's own), stores the model's values."""
    prices = _ticks(120, seed)
    for analyzer in default_analyzers(seed):
        got = _refine_all(analyzer, prices)
        with model_indicators():
            want = _refine_all(analyzer, prices)
        assert got and got == want, analyzer.name


@pytest.mark.parametrize("length", [40, 12])
def test_panel_estimates_match_the_model_on_short_histories(length):
    """The early jobs of a run hand the panel fewer ticks than its
    120: fewer windows are usable and MACD may not refine at all.  The
    fundamental analyzer draws at a tick index other than 0."""
    for seed in range(3):
        prices = _ticks(length, seed)
        for analyzer in default_analyzers(seed):
            if hasattr(analyzer, "tick_index"):
                analyzer.tick_index = length + seed
            got = _refine_all(analyzer, prices)
            with model_indicators():
                want = _refine_all(analyzer, prices)
            assert got == want, (analyzer.name, seed)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 0.5, -0.5,
    1.0, -1.0, 1.5, -1.5, 5e-324, -1e308, 2, -3, 0,
    np.float64("nan"), np.float64(-0.0), np.float64(0.25),
    np.float64(7.0), np.int64(-2),
], ids=repr)
def test_estimate_clamps_like_np_clip(value):
    estimate = Estimate("probe", value, value)
    assert _exact(estimate.signal) \
        == _exact(reference_clamp(value, -1.0, 1.0))
    assert _exact(estimate.confidence) \
        == _exact(reference_clamp(value, 0.0, 1.0))


@pytest.mark.parametrize("windows", [
    (0, 26, 9), (12, 0, 9), (12, 26, 0), (-1, 26, 9), (12, -1, 9),
    (12, 26, -1),
])
def test_macd_refuses_a_window_below_one(windows):
    prices = _ticks(60)
    for function in (macd, reference_macd):
        with pytest.raises(ValueError):
            function(prices, *windows)


@pytest.mark.parametrize("windows", [(12, 26, 9), (5, 5, 3), (3, 1, 1)])
def test_macd_refuses_a_series_shorter_than_slow_plus_signal(windows):
    _fast, slow, signal = windows
    prices = _ticks(slow + signal - 1)
    for function in (macd, reference_macd):
        with pytest.raises(ValueError, match="need"):
            function(prices, *windows)


def test_macd_computes_its_series_in_one_pass(monkeypatch):
    """The series costs no ``ema`` call per prefix: over 120 ticks the
    textbook form calls it 2 * (120 - 26 + 1) + 1 = 191 times, the
    one-pass form once, for the signal line."""
    calls = []

    def counting_ema(prices, window):
        calls.append(window)
        return ema(prices, window)

    monkeypatch.setattr(indicators, "ema", counting_ema)
    indicators.macd(_ticks(120))
    assert calls == [9]


# ---------------------------------------------------------------------------
# anytime analyzers
# ---------------------------------------------------------------------------

ANALYZERS = [AnytimeBollinger(), AnytimeRSI(), AnytimeMomentum(),
             AnytimeMACD()]


@pytest.mark.parametrize("analyzer", ANALYZERS, ids=lambda a: a.name)
def test_anytime_refinement_contract(analyzer):
    """Every analyzer refines to completion with rising confidence and
    bounded signals."""
    rng = np.random.default_rng(0)
    prices = 1.1 + 0.01 * rng.standard_normal(120).cumsum()
    state = analyzer.start(prices)
    confidences = []
    steps = 0
    while not state.done:
        estimate = analyzer.refine(state)
        assert -1.0 <= estimate.signal <= 1.0
        assert 0.0 <= estimate.confidence <= 1.0
        confidences.append(estimate.confidence)
        steps += 1
        assert steps < 100
    assert confidences == sorted(confidences)
    assert confidences[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("analyzer", ANALYZERS, ids=lambda a: a.name)
def test_anytime_short_history_degrades_gracefully(analyzer):
    """With too little history an analyzer completes immediately (zero
    usable windows) instead of crashing — the 'discard' path."""
    state = analyzer.start([1.1, 1.1, 1.1])
    steps = 0
    while not state.done:
        analyzer.refine(state)
        steps += 1
    assert steps <= 1  # at most the smallest window


def test_refine_after_done_rejected():
    analyzer = AnytimeMomentum()
    rng = np.random.default_rng(1)
    prices = 1.1 + 0.01 * rng.standard_normal(120)
    state = analyzer.start(prices)
    while not state.done:
        analyzer.refine(state)
    with pytest.raises(RuntimeError):
        analyzer.refine(state)


def test_bollinger_signal_direction():
    """Price pinned at the lower band -> buy signal."""
    analyzer = AnytimeBollinger()
    prices = np.concatenate([np.full(100, 1.2), [1.1]])  # drop at the end
    state = analyzer.start(prices)
    estimate = None
    while not state.done:
        estimate = analyzer.refine(state)
    assert estimate.signal > 0.5


def test_momentum_signal_direction():
    analyzer = AnytimeMomentum()
    rising = np.linspace(1.0, 1.2, 120)
    state = analyzer.start(rising)
    estimate = None
    while not state.done:
        estimate = analyzer.refine(state)
    assert estimate.signal > 0

    falling = np.linspace(1.2, 1.0, 120)
    state = analyzer.start(falling)
    while not state.done:
        estimate = analyzer.refine(state)
    assert estimate.signal < 0


def test_rsi_analyzer_overbought_sells():
    analyzer = AnytimeRSI()
    rising = np.linspace(1.0, 1.3, 120)
    state = analyzer.start(rising)
    estimate = None
    while not state.done:
        estimate = analyzer.refine(state)
    assert estimate.signal < 0  # overbought -> sell
