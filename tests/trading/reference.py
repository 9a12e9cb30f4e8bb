"""The executable model of the trading analyzers' arithmetic.

These are the textbook forms the production code in
:mod:`repro.trading.indicators` and :mod:`repro.trading.fundamental`
replaced, moved here unchanged except for their names:

* :func:`reference_ema` runs its recursion over numpy scalars;
* :func:`reference_macd` builds the MACD series by calling
  :func:`reference_ema` afresh on every prefix of the prices, so its
  cost is quadratic in the series length;
* :func:`reference_clamp` is the ``np.clip`` on a scalar with which
  :class:`~repro.trading.indicators.Estimate` clamped its signal and
  confidence;
* :func:`reference_bollinger_bands` and :func:`reference_rsi` reduce
  through numpy's method forms (``mean``, ``std``, ``np.diff`` and
  ``sum``);
* :func:`reference_fundamental_start` and
  :func:`reference_fundamental_refine` are
  :class:`~repro.trading.fundamental.FundamentalAnalyzer`'s ``start``
  and ``refine`` as they were: the samples grow in a Python list, which
  every round turns back into an array, and each round recomputes the
  factor consensus.

The equivalence tests require the production code to return the same
values, of the same type, as these; :func:`model_indicators` swaps
them all in by monkeypatching, so a whole program can run on the model
(the program has no switch for it).
"""

import contextlib

import numpy as np
import pytest

from repro.trading.indicators import Estimate


def reference_ema(prices, window):
    """Exponential moving average with span ``window``."""
    prices = np.asarray(prices, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(prices) == 0:
        raise ValueError("need at least one price")
    alpha = 2.0 / (window + 1.0)
    value = prices[0]
    for price in prices[1:]:
        value = alpha * price + (1.0 - alpha) * value
    return float(value)


def reference_macd(prices, fast=12, slow=26, signal=9):
    """MACD: (macd_line, signal_line, histogram)."""
    prices = np.asarray(prices, dtype=float)
    if len(prices) < slow + signal:
        raise ValueError(
            f"need {slow + signal} prices, got {len(prices)}"
        )
    macd_series = []
    for end in range(slow, len(prices) + 1):
        macd_series.append(
            reference_ema(prices[:end], fast)
            - reference_ema(prices[:end], slow)
        )
    macd_line = macd_series[-1]
    signal_line = reference_ema(macd_series, signal)
    return macd_line, signal_line, macd_line - signal_line


def reference_bollinger_bands(prices, window=20, k=2.0):
    """Bollinger Bands: (middle, upper, lower) over ``window`` [10]."""
    prices = np.asarray(prices, dtype=float)
    if len(prices) < window:
        raise ValueError(f"need {window} prices, got {len(prices)}")
    tail = prices[-window:]
    middle = float(tail.mean())
    deviation = float(tail.std(ddof=0))
    return middle, middle + k * deviation, middle - k * deviation


def reference_rsi(prices, window=14):
    """Relative Strength Index (Wilder) over ``window`` periods."""
    prices = np.asarray(prices, dtype=float)
    if len(prices) < window + 1:
        raise ValueError(f"need {window + 1} prices, got {len(prices)}")
    deltas = np.diff(prices[-(window + 1):])
    gains = deltas[deltas > 0].sum()
    losses = -deltas[deltas < 0].sum()
    if losses == 0:
        return 100.0
    rs = gains / losses
    return float(100.0 - 100.0 / (1.0 + rs))


class _ReferenceMonteCarloState:
    __slots__ = ("factors", "rng", "samples", "rounds_left", "done")

    def __init__(self, factors, rng, rounds):
        self.factors = factors
        self.rng = rng
        self.samples = []
        self.rounds_left = rounds
        self.done = rounds <= 0


def reference_fundamental_start(self, prices):
    factors = np.array(
        [series.value_at_tick(self.tick_index)
         for series in self.macro_series]
    )
    rng = np.random.default_rng((self.seed, self.tick_index))
    return _ReferenceMonteCarloState(factors, rng, self.rounds)


def reference_fundamental_refine(self, state):
    if state.done:
        raise RuntimeError("fundamental: refine() after completion")
    consensus = float(
        np.dot(state.factors, self.weights) / self.weights.sum()
    )
    draws = consensus + self.noise_scale * state.rng.standard_normal(
        self.samples_per_round
    )
    state.samples.extend(np.tanh(draws))
    state.rounds_left -= 1
    state.done = state.rounds_left <= 0

    samples = np.asarray(state.samples)
    signal = float(samples.mean())
    stderr = float(samples.std(ddof=0) / np.sqrt(len(samples)))
    confidence = float(1.0 / (1.0 + 10.0 * stderr))
    return Estimate(self.name, signal, confidence,
                    detail={"n_samples": len(samples),
                            "stderr": stderr})


def reference_clamp(value, lo, hi):
    """What ``Estimate`` stored for a signal or confidence."""
    return float(np.clip(value, lo, hi))


def _reference_estimate_init(self, analyzer, signal, confidence,
                             detail=None):
    self.analyzer = analyzer
    self.signal = reference_clamp(signal, -1.0, 1.0)
    self.confidence = reference_clamp(confidence, 0.0, 1.0)
    self.detail = detail


@contextlib.contextmanager
def model_indicators():
    """Run everything inside the block on the model: ``ema``,
    ``macd``, ``bollinger_bands``, ``rsi`` and the fundamental
    analyzer's ``start`` and ``refine`` are the reference forms, and
    ``Estimate`` clamps with ``np.clip``.  Leaving the block restores
    the production code."""
    from repro.trading import indicators
    from repro.trading.fundamental import FundamentalAnalyzer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indicators, "ema", reference_ema)
        patch.setattr(indicators, "macd", reference_macd)
        patch.setattr(indicators, "bollinger_bands",
                      reference_bollinger_bands)
        patch.setattr(indicators, "rsi", reference_rsi)
        patch.setattr(FundamentalAnalyzer, "start",
                      reference_fundamental_start)
        patch.setattr(FundamentalAnalyzer, "refine",
                      reference_fundamental_refine)
        patch.setattr(indicators.Estimate, "__init__",
                      _reference_estimate_init)
        yield
