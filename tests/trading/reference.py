"""The executable model of the technical indicators' arithmetic.

These are the textbook forms the production code in
:mod:`repro.trading.indicators` replaced, moved here unchanged except
for their names:

* :func:`reference_ema` runs its recursion over numpy scalars;
* :func:`reference_macd` builds the MACD series by calling
  :func:`reference_ema` afresh on every prefix of the prices, so its
  cost is quadratic in the series length;
* :func:`reference_clamp` is the ``np.clip`` on a scalar with which
  :class:`~repro.trading.indicators.Estimate` clamped its signal and
  confidence.

The equivalence tests require the production code to return the same
values, of the same type, as these; :func:`model_indicators` swaps all
three in by monkeypatching, so a whole program can run on the model
(the program has no switch for it).
"""

import contextlib

import numpy as np
import pytest


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
    """Run everything inside the block on the model: ``ema`` and
    ``macd`` are the reference forms and ``Estimate`` clamps with
    ``np.clip``.  Leaving the block restores the production code."""
    from repro.trading import indicators

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indicators, "ema", reference_ema)
        patch.setattr(indicators, "macd", reference_macd)
        patch.setattr(indicators.Estimate, "__init__",
                      _reference_estimate_init)
        yield
