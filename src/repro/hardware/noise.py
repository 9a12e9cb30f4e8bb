"""Seeded noise stream, batch-priced.

The calibrated cost model multiplies every priced micro-cost by a
lognormal factor from a seeded generator.  It draws in *batches* —
vectorized numpy chunks — which amortizes ~80k generator round-trips
per fig10 run into a few hundred.

**The RNG-order contract.**  Batching must not change a single consumed
value: figure and benchmark data are keyed by seed, and the documents
seeded runs produce are pinned byte for byte.  Two properties of
:class:`numpy.random.Generator` make the chunked stream exactly equal
to one scalar ``rng.lognormal(0.0, sigma)`` call per priced event:

1. ``rng.lognormal(mean, sigma, n)`` produces element-for-element the
   same values as ``n`` successive scalar ``rng.lognormal(mean,
   sigma)`` calls (the vectorized path consumes the bit stream in the
   same order), and
2. ``float(chunk[i])`` preserves the float64 bit pattern exactly.

Both are asserted by hypothesis property tests
(``tests/engine/test_backend_properties.py``), so a numpy upgrade that
broke the contract would fail loudly, not corrupt benchmarks silently.

Draw-*order* is owned by the caller: the cost model consumes one draw
per priced event (none for non-positive values or zero sigma), and
per-CPU stall multipliers compose *after* the draw at consumption time
— installing a fault plan never perturbs the stream (see
:meth:`repro.hardware.overheads.XeonPhiCostModel._stalled`).
"""

#: Default vectorized chunk size.  Big enough to amortize the numpy
#: call, small enough that a short run does not waste draws.
DEFAULT_CHUNK = 512


class BatchedLognormalStream:
    """Lognormal draws in vectorized chunks, consumed one at a time.

    :param rng: a :class:`numpy.random.Generator` (owned by the caller;
        the stream must be its *only* consumer or the contract breaks).
    :param sigma: lognormal sigma (mean is fixed at 0.0).
    :param chunk: draws per vectorized generator call.
    """

    __slots__ = ("_rng", "_sigma", "_chunk", "_buf", "_idx")

    def __init__(self, rng, sigma, chunk=DEFAULT_CHUNK):
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1: {chunk}")
        self._rng = rng
        self._sigma = sigma
        self._chunk = chunk
        self._buf = ()
        self._idx = 0

    def next(self):
        """The next draw, as a Python float (bit-identical to the
        next scalar ``rng.lognormal(0.0, sigma)`` draw)."""
        idx = self._idx
        buf = self._buf
        if idx >= len(buf):
            buf = self._buf = self._rng.lognormal(
                0.0, self._sigma, self._chunk
            )
            idx = 0
        self._idx = idx + 1
        return float(buf[idx])
