"""Technical analysis: classic indicators + anytime analyzers.

The pure functions (:func:`sma`, :func:`ema`, :func:`bollinger_bands`,
:func:`rsi`, :func:`macd`) follow the textbook definitions.  The
exponential ones run their recursion over Python floats, and
:func:`macd` computes its whole series in one pass: the running fast
and slow EMAs go through, prefix by prefix, the same
``alpha * price + (1.0 - alpha) * value`` steps as an :func:`ema` call
on each prefix, so every value equals the textbook form's bit for bit
while an analyzer's host cost stays linear in its window.
:func:`bollinger_bands`, :func:`rsi` and the fundamental analyzer call
numpy's reductions directly (``np.add.reduce`` through
:func:`_mean_std`, and a slice difference for ``np.diff``) instead of
the ``mean``/``std``/``sum`` method wrappers, which cost several times
the reductions on windows this short; the sums, divisions and square
roots are the ones those methods perform, so every value keeps its
bits.  The method forms are the executable model in
``tests/trading/reference.py``.  The
``Anytime*`` classes wrap them in the *anytime* contract the
parallel-extended imprecise computation model needs: an analyzer refines
its estimate over progressively longer history windows; terminating it
early yields a coarser — but usable — trading signal.  Each refinement
step has a fixed simulated compute cost, so optional execution time maps
directly to analysis quality (the paper's QoS).

Signals are floats in [-1, 1]: positive means buy (bid), negative sell
(ask), magnitude is strength.  Every analyzer also reports a confidence
in [0, 1] that grows with refinement.
"""

import math

import numpy as np

from repro.simkernel.time_units import MSEC


def sma(prices, window):
    """Simple moving average of the last ``window`` prices."""
    prices = np.asarray(prices, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(prices) < window:
        raise ValueError(f"need {window} prices, got {len(prices)}")
    return float(prices[-window:].mean())


def ema(prices, window):
    """Exponential moving average with span ``window``."""
    prices = np.asarray(prices, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(prices) == 0:
        raise ValueError("need at least one price")
    alpha = 2.0 / (window + 1.0)
    values = prices.tolist()
    value = values[0]
    for price in values[1:]:
        value = alpha * price + (1.0 - alpha) * value
    return value


def _mean_std(values):
    """``(mean, population standard deviation)`` of a non-empty 1-D
    float64 array, as Python floats.

    The same operations ``values.mean()`` and ``values.std(ddof=0)``
    perform (numpy's ``_mean`` and ``_var``): one pairwise sum divided
    by the count, the squared deviations from that mean summed and
    divided by the count, and a correctly rounded square root, without
    the method wrappers and with the mean computed once.
    """
    n = len(values)
    mean = np.add.reduce(values) / n
    centred = values - mean
    centred *= centred
    return float(mean), math.sqrt(np.add.reduce(centred) / n)


def bollinger_bands(prices, window=20, k=2.0):
    """Bollinger Bands: (middle, upper, lower) over ``window`` [10]."""
    prices = np.asarray(prices, dtype=float)
    if len(prices) < window:
        raise ValueError(f"need {window} prices, got {len(prices)}")
    middle, deviation = _mean_std(prices[-window:])
    return middle, middle + k * deviation, middle - k * deviation


def rsi(prices, window=14):
    """Relative Strength Index (Wilder) over ``window`` periods."""
    prices = np.asarray(prices, dtype=float)
    if len(prices) < window + 1:
        raise ValueError(f"need {window + 1} prices, got {len(prices)}")
    tail = prices[-(window + 1):]
    deltas = tail[1:] - tail[:-1]  # np.diff of a 1-D array
    gains = np.add.reduce(deltas[deltas > 0])
    losses = -np.add.reduce(deltas[deltas < 0])
    if losses == 0:
        return 100.0
    rs = gains / losses
    return float(100.0 - 100.0 / (1.0 + rs))


def stochastic_oscillator(prices, window=14):
    """%K of the stochastic oscillator: where the last price sits within
    the window's range, in [0, 100]."""
    prices = np.asarray(prices, dtype=float)
    if len(prices) < window:
        raise ValueError(f"need {window} prices, got {len(prices)}")
    tail = prices[-window:]
    low, high = float(tail.min()), float(tail.max())
    if high == low:
        return 50.0
    return float(100.0 * (prices[-1] - low) / (high - low))


def average_true_range(prices, window=14):
    """ATR over close-to-close moves (no intraperiod high/low in a
    one-tick-per-second feed): mean absolute price change."""
    prices = np.asarray(prices, dtype=float)
    if len(prices) < window + 1:
        raise ValueError(f"need {window + 1} prices, got {len(prices)}")
    moves = np.abs(np.diff(prices[-(window + 1):]))
    return float(moves.mean())


def macd(prices, fast=12, slow=26, signal=9):
    """MACD: (macd_line, signal_line, histogram).

    The MACD series holds ``ema(prices[:end], fast) -
    ema(prices[:end], slow)`` for every ``end`` from ``slow`` on.  It
    is computed in one pass: both EMA recursions run together over the
    prices, and after ``end`` prices each running value is the one
    :func:`ema` returns for that prefix, bit for bit, because it is
    the same sequence of floating-point steps.
    """
    prices = np.asarray(prices, dtype=float)
    if min(fast, slow, signal) < 1:
        raise ValueError("window must be >= 1")
    if len(prices) < slow + signal:
        raise ValueError(
            f"need {slow + signal} prices, got {len(prices)}"
        )
    fast_alpha = 2.0 / (fast + 1.0)
    slow_alpha = 2.0 / (slow + 1.0)
    values = prices.tolist()
    fast_value = slow_value = values[0]
    macd_series = []
    for end, price in enumerate(values, 1):
        if end > 1:
            fast_value = fast_alpha * price + (1.0 - fast_alpha) * fast_value
            slow_value = slow_alpha * price + (1.0 - slow_alpha) * slow_value
        if end >= slow:
            macd_series.append(fast_value - slow_value)
    macd_line = macd_series[-1]
    signal_line = ema(macd_series, signal)
    return macd_line, signal_line, macd_line - signal_line


class AnytimeAnalyzer:
    """Interface for anytime analyses run as parallel optional parts.

    Usage (what :class:`repro.trading.system.TradingTask` does)::

        state = analyzer.start(prices)
        while not state.done:
            # yield ctx.compute(analyzer.step_cost)  # simulated work
            estimate = analyzer.refine(state)
            # ctx.publish(part_index, estimate)      # partial result

    ``refine`` must improve (or at least never corrupt) the estimate.
    """

    name = "abstract"
    #: simulated CPU time one refinement step costs.
    step_cost = 20.0 * MSEC

    def start(self, prices):
        raise NotImplementedError

    def refine(self, state):
        raise NotImplementedError


class _WindowState:
    """Refinement over progressively longer lookback windows."""

    __slots__ = ("prices", "windows", "position", "done")

    def __init__(self, prices, windows):
        self.prices = np.asarray(prices, dtype=float)
        self.windows = windows
        self.position = 0
        self.done = not windows


class Estimate:
    """An anytime analyzer's (partial) output."""

    __slots__ = ("analyzer", "signal", "confidence", "detail")

    def __init__(self, analyzer, signal, confidence, detail=None):
        self.analyzer = analyzer
        # min/max keep NaN and -0.0 as np.clip does: the argument goes
        # first, and a comparison with NaN is false
        self.signal = min(max(float(signal), -1.0), 1.0)
        self.confidence = min(max(float(confidence), 0.0), 1.0)
        self.detail = detail

    def __repr__(self):
        return (
            f"<Estimate {self.analyzer} signal={self.signal:+.2f} "
            f"conf={self.confidence:.2f}>"
        )


class _WindowedAnalyzer(AnytimeAnalyzer):
    """Shared machinery: one refinement step per lookback window."""

    windows = (5,)

    def start(self, prices):
        prices = np.asarray(prices, dtype=float)
        usable = [w for w in self.windows
                  if len(prices) >= self._min_length(w)]
        return _WindowState(prices, usable)

    @staticmethod
    def _min_length(window):
        return window

    def refine(self, state):
        if state.done:
            raise RuntimeError(f"{self.name}: refine() after completion")
        window = state.windows[state.position]
        estimate = self._evaluate(state.prices, window,
                                  state.position, len(state.windows))
        state.position += 1
        state.done = state.position >= len(state.windows)
        return estimate

    def _evaluate(self, prices, window, step, total_steps):
        raise NotImplementedError


class AnytimeBollinger(_WindowedAnalyzer):
    """Bollinger-Bands mean-reversion signal, refined over windows.

    Price near the lower band -> buy; near the upper band -> sell.
    Longer windows give steadier bands, hence higher confidence.
    """

    name = "bollinger"
    windows = (5, 10, 20, 40, 80)
    step_cost = 25.0 * MSEC

    def __init__(self, k=2.0):
        self.k = k

    def _evaluate(self, prices, window, step, total_steps):
        middle, upper, lower = bollinger_bands(prices, window, self.k)
        price = prices[-1]
        band_width = upper - lower
        if band_width <= 0:
            signal = 0.0
        else:
            # +1 at the lower band, -1 at the upper band
            signal = (middle - price) / (band_width / 2.0)
        confidence = (step + 1) / total_steps
        return Estimate(self.name, signal, confidence,
                        detail={"window": window, "middle": middle,
                                "upper": upper, "lower": lower})


class AnytimeRSI(_WindowedAnalyzer):
    """RSI overbought/oversold signal (buy < 30, sell > 70)."""

    name = "rsi"
    windows = (5, 9, 14, 21, 28)
    step_cost = 20.0 * MSEC

    @staticmethod
    def _min_length(window):
        return window + 1

    def _evaluate(self, prices, window, step, total_steps):
        value = rsi(prices, window)
        # map 0..100 -> +1..-1 (oversold is a buy)
        signal = (50.0 - value) / 50.0
        confidence = (step + 1) / total_steps
        return Estimate(self.name, signal, confidence,
                        detail={"window": window, "rsi": value})


class AnytimeMomentum(_WindowedAnalyzer):
    """Price momentum (rate of change) over growing lookbacks."""

    name = "momentum"
    windows = (3, 6, 12, 24, 48)
    step_cost = 10.0 * MSEC

    @staticmethod
    def _min_length(window):
        return window + 1

    def _evaluate(self, prices, window, step, total_steps):
        change = (prices[-1] - prices[-window - 1]) / prices[-window - 1]
        # 20 bps of move saturates the signal
        signal = change / 0.002
        confidence = (step + 1) / total_steps
        return Estimate(self.name, signal, confidence,
                        detail={"window": window, "change": change})


class AnytimeStochastic(_WindowedAnalyzer):
    """Stochastic-oscillator mean-reversion signal (%K < 20 buy,
    %K > 80 sell), refined over windows."""

    name = "stochastic"
    windows = (5, 9, 14, 21)
    step_cost = 15.0 * MSEC

    def _evaluate(self, prices, window, step, total_steps):
        value = stochastic_oscillator(prices, window)
        signal = (50.0 - value) / 50.0
        confidence = (step + 1) / total_steps
        return Estimate(self.name, signal, confidence,
                        detail={"window": window, "percent_k": value})


class AnytimeMACD(AnytimeAnalyzer):
    """MACD trend signal refined over successively longer histories."""

    name = "macd"
    step_cost = 35.0 * MSEC
    #: fractions of the available history used per refinement step.
    fractions = (0.4, 0.6, 0.8, 1.0)

    def __init__(self, fast=12, slow=26, signal=9):
        self.fast = fast
        self.slow = slow
        self.signal = signal

    def start(self, prices):
        prices = np.asarray(prices, dtype=float)
        minimum = self.slow + self.signal
        lengths = sorted(
            {
                max(minimum, int(round(len(prices) * fraction)))
                for fraction in self.fractions
                if len(prices) >= minimum
            }
        )
        state = _WindowState(prices, lengths)
        return state

    def refine(self, state):
        if state.done:
            raise RuntimeError("macd: refine() after completion")
        length = state.windows[state.position]
        macd_line, signal_line, histogram = macd(
            state.prices[-length:], self.fast, self.slow, self.signal
        )
        # histogram sign gives direction; scale by price for magnitude
        scale = state.prices[-1] * 1e-4
        signal = histogram / scale if scale > 0 else 0.0
        confidence = (state.position + 1) / len(state.windows)
        state.position += 1
        state.done = state.position >= len(state.windows)
        return Estimate(self.name, signal, confidence,
                        detail={"length": length,
                                "histogram": histogram})
