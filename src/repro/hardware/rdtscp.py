"""The ``rdtscp`` instruction: per-core time-stamp counter.

The paper measures all four overheads with ``rdtscp``, which returns the
core's cycle counter plus the CPU id.  In the simulation the TSC derives
deterministically from simulated time at the machine's clock rate; the
value of modelling it explicitly is that harness code reads timestamps
exactly where the paper's probes sit (Figure 9), in cycles, and converts
back to microseconds the same way the paper does.
"""

from repro.hardware.xeonphi import XEON_PHI_3120A


class RdtscpCounter:
    """Simulated ``rdtscp``.

    :param kernel: the simulated kernel (source of time).
    :param spec: machine spec (clock rate).
    """

    def __init__(self, kernel, spec=XEON_PHI_3120A):
        self.kernel = kernel
        self.cycles_per_ns = spec.clock_ghz  # GHz == cycles per ns

    def read(self, cpu):
        """Return ``(cycles, cpu_id)`` — the rdtscp register pair."""
        return int(self.kernel.now * self.cycles_per_ns), cpu

    def cycles_to_us(self, cycles):
        return cycles / (self.cycles_per_ns * 1_000.0)

    def elapsed_us(self, start_cycles, end_cycles):
        """Microseconds between two ``rdtscp`` readings."""
        return self.cycles_to_us(end_cycles - start_cycles)
