"""Host-speed calibration of the benchmark's timings.

The hosts this benchmark runs on share their CPUs with other tenants, and
their speed changes within seconds: back-to-back fig10_np57 repetitions
read anywhere from 0.52 to 0.89 runs/s on one 2-vCPU host.  A fixed
pure-Python loop timed right before and right after an operation slows
down and speeds up with it (correlation 0.68 on fig10_np57, 0.82 on
trade_run).  Scaling the operation's time by ``NOMINAL_S`` over the mean
of the two loop times gives *reference seconds*: the time the operation
would take on a host that runs the loop in ``NOMINAL_S``.  In a 4-minute
recording on that host, the spread of 12-repetition medians fell from
13-14% to about 4.5% on fig10_np57 and trade_run, and stayed at 4-5% on
check_farm.

The loop is the benchmark's own code: it tracks the host, never the
program under test.
"""

import gc
import time


class Calibration:
    """Loop times taken around each measured operation."""

    #: loop time of the 2-vCPU host the bounds in BENCHMARK.json were set
    #: on, in a quiet period
    NOMINAL_S = 0.018
    LOOP = 300_000

    def __init__(self):
        self.samples = [self._loop()]

    def _loop(self):
        start = time.perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i * i
        return time.perf_counter() - start

    def measure(self, fn, *args, **kwargs):
        """Run ``fn``; returns ``(result, host seconds, speed)``, where
        host seconds times ``speed`` are the call's reference seconds.

        The cyclic garbage of earlier operations is collected first, off
        the clock: otherwise it piles up across repetitions, so the
        process's peak memory grows with the number of repetitions a run
        fits, and a full collection lands inside a random repetition.
        """
        gc.collect()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        before = self.samples[-1]
        after = self._loop()
        self.samples.append(after)
        return result, elapsed, 2 * self.NOMINAL_S / (before + after)
