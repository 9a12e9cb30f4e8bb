"""Hardware model: Xeon Phi topology, background loads, micro-costs.

The paper evaluates RT-Seed on an Intel Xeon Phi 3120A (57 cores, 228
hardware threads, 1.1 GHz, 512 KB L2 per core) under three background
loads.  This package provides:

* :mod:`repro.hardware.xeonphi` — the machine description and topology
  factory (including the ``isolcpus=1-227`` boot-parameter convention).
* :mod:`repro.hardware.loads` — the three background loads of Section V-B
  (No load / CPU load / CPU-Memory load) as declarative descriptors.
* :mod:`repro.hardware.overheads` — the calibrated
  :class:`~repro.simkernel.costmodel.CostModel`; per-event micro-costs
  whose *composition through the middleware protocol* produces the
  shapes of Figures 10-13.
"""

from repro.hardware.loads import BackgroundLoad, apply_load
from repro.hardware.overheads import MicroCosts, XeonPhiCostModel
from repro.hardware.xeonphi import (
    XEON_PHI_3120A,
    MachineSpec,
    xeon_phi_topology,
)

__all__ = [
    "BackgroundLoad",
    "apply_load",
    "MicroCosts",
    "XeonPhiCostModel",
    "XEON_PHI_3120A",
    "MachineSpec",
    "xeon_phi_topology",
]
