"""Fundamental analysis: synthetic macro series + anytime Monte Carlo.

The paper names "fundamental analysis (e.g., GDP)" as the other family
of parallel optional parts.  Real financial statements are not
available offline, so this module synthesizes slowly varying macro
series (GDP growth differential, interest-rate differential, CPI
differential) from a seeded generator, and scores them with an anytime
Monte-Carlo analyzer: each refinement step draws more scenarios, so the
estimate's confidence interval tightens monotonically with optional
execution time — the same QoS contract as the technical analyzers.

A job's samples live in one preallocated buffer: each round writes its
``tanh`` draws after the ones already there and scores the filled
prefix, a view, with :func:`repro.trading.indicators._mean_std`.  The
factor consensus is fixed within a job, so ``start`` computes it once.
The values are those of the list-of-samples form kept as the model in
``tests/trading/reference.py``, bit for bit.
"""

import math

import numpy as np

from repro.simkernel.time_units import MSEC
from repro.trading.indicators import AnytimeAnalyzer, Estimate, _mean_std


class MacroSeries:
    """A slowly varying macro indicator differential (base vs quote).

    Positive values favour the base currency (a buy signal for the
    pair).  Values follow a seeded AR(1) process sampled once per
    ``period`` ticks.
    """

    def __init__(self, name, seed=0, mean=0.0, persistence=0.95,
                 shock_scale=0.25, period=3600):
        if not 0 <= persistence < 1:
            raise ValueError("persistence must be in [0, 1)")
        if period < 1:
            raise ValueError("period must be >= 1")
        self.name = name
        self.mean = mean
        self.persistence = persistence
        self.shock_scale = shock_scale
        self.period = period
        self._rng = np.random.default_rng(seed)
        self._values = [mean]

    def _extend_to(self, index):
        while len(self._values) <= index:
            previous = self._values[-1]
            shock = self.shock_scale * self._rng.standard_normal()
            self._values.append(
                self.mean
                + self.persistence * (previous - self.mean)
                + shock
            )
        return self._values[index]

    def value_at_tick(self, tick_index):
        """The indicator value in force at market tick ``tick_index``."""
        if tick_index < 0:
            raise IndexError("negative tick index")
        return self._extend_to(tick_index // self.period)


def synthetic_macro(seed=0):
    """The default macro panel: GDP growth, rate, and CPI differentials."""
    return [
        MacroSeries("gdp_growth_diff", seed=seed * 7 + 1, mean=0.2,
                    persistence=0.98, shock_scale=0.15),
        MacroSeries("interest_rate_diff", seed=seed * 7 + 2, mean=0.0,
                    persistence=0.95, shock_scale=0.10),
        MacroSeries("cpi_diff", seed=seed * 7 + 3, mean=-0.1,
                    persistence=0.90, shock_scale=0.20),
    ]


class _MonteCarloState:
    """One job's draws: ``samples[:filled]`` holds every round's."""

    __slots__ = ("consensus", "rng", "samples", "filled", "rounds_left",
                 "done")

    def __init__(self, consensus, rng, rounds, samples_per_round):
        self.consensus = consensus
        self.rng = rng
        self.samples = np.empty(max(rounds, 0) * samples_per_round)
        self.filled = 0
        self.rounds_left = rounds
        self.done = rounds <= 0


class FundamentalAnalyzer(AnytimeAnalyzer):
    """Anytime Monte-Carlo scoring of the macro panel.

    Each refinement round draws ``samples_per_round`` noisy scenario
    scores around the factor consensus; the signal is the posterior mean
    and the confidence grows as the standard error shrinks.

    :param macro_series: list of :class:`MacroSeries`.
    :param weights: per-series weights (defaults to equal).
    :param rounds: refinement rounds available (full QoS).
    """

    name = "fundamental"
    step_cost = 40.0 * MSEC

    def __init__(self, macro_series, weights=None, rounds=6,
                 samples_per_round=64, noise_scale=0.5, seed=0):
        if not macro_series:
            raise ValueError("need at least one macro series")
        self.macro_series = list(macro_series)
        if weights is None:
            weights = [1.0] * len(self.macro_series)
        if len(weights) != len(self.macro_series):
            raise ValueError("one weight per series")
        self.weights = np.asarray(weights, dtype=float)
        self.rounds = rounds
        self.samples_per_round = samples_per_round
        self.noise_scale = noise_scale
        self.seed = seed
        self.tick_index = 0  # set by the trading task per job

    def start(self, prices):
        factors = np.array(
            [series.value_at_tick(self.tick_index)
             for series in self.macro_series]
        )
        consensus = float(np.dot(factors, self.weights) / self.weights.sum())
        rng = np.random.default_rng((self.seed, self.tick_index))
        return _MonteCarloState(consensus, rng, self.rounds,
                                self.samples_per_round)

    def refine(self, state):
        if state.done:
            raise RuntimeError("fundamental: refine() after completion")
        draws = state.consensus + self.noise_scale * state.rng.standard_normal(
            self.samples_per_round
        )
        start = state.filled
        end = state.filled = start + self.samples_per_round
        # tanh into a fresh array, then copy: the values do not depend
        # on where in the buffer a round lands
        state.samples[start:end] = np.tanh(draws)
        state.rounds_left -= 1
        state.done = state.rounds_left <= 0

        signal, deviation = _mean_std(state.samples[:end])
        # both operations correctly rounded: the bits of
        # ``std / np.sqrt(n)``
        stderr = deviation / math.sqrt(end)
        confidence = 1.0 / (1.0 + 10.0 * stderr)
        return Estimate(self.name, signal, confidence,
                        detail={"n_samples": end, "stderr": stderr})
