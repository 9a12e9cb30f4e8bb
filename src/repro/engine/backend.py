"""A description of the one execution core, kept for the benchmark.

The execution core is :class:`repro.engine.events.Engine` (slotted
event records), :class:`repro.engine.readyqueue.IndexedLevelQueue`
(deque per level) and batch-priced cost-model noise
(:mod:`repro.hardware.noise`); every consumer constructs those
directly.  This module only *describes* that core to
``perfbench/``: ``run.py`` records ``get_backend(None).name`` in its
host record and ``workloads.py`` passes
``get_backend(None).noise_mode`` to
:class:`repro.hardware.overheads.XeonPhiCostModel`.  Nothing in
``src/`` calls it.  It goes once a benchmark change updates
``host_record``.
"""

from types import SimpleNamespace

#: The single core: its ledger name and cost-model noise mode.
_CORE = SimpleNamespace(name="fast", noise_mode="batched")


def get_backend(spec=None):
    """The description of the execution core (``spec`` is ignored —
    there is nothing to choose)."""
    return _CORE
