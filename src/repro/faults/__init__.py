"""Seeded, simulated-time fault injection + resilience campaigns.

The reproduction's robustness subsystem: declarative
:class:`~repro.faults.plan.FaultPlan`\\ s
(:mod:`repro.faults.plan`) drive a
:class:`~repro.faults.injectors.FaultInjector` hooked into the
simulated kernel, the hardware overhead model, and the trading layer
(:mod:`repro.faults.injectors`); every injected fault is published as a
``fault.*`` probe event and followed by a kernel invariant check
(:mod:`repro.faults.invariants`).  :mod:`repro.faults.campaign`
defines the canned scenarios and the deterministic JSON resilience
report (``repro faults`` on the CLI); each scenario runs the
end-to-end trading system as a
:class:`~repro.snapshot.programs.FaultsProgram`.

The hardening the campaigns exercise lives with the code it protects:
:mod:`repro.core.resilience` (retry-within-budget, overrun watchdog,
degraded mode) and the trading layer's broker-failure tolerance.
"""

from repro.faults.campaign import SCENARIOS, render_report
from repro.faults.injectors import (
    BrokerFaultProxy,
    FaultInjector,
    FeedFaultProxy,
    NetworkFaultProxy,
)
from repro.faults.invariants import check_kernel_invariants, collect_violations
from repro.faults.plan import FAULT_SITES, FaultPlan, FaultSpec, no_faults

__all__ = [
    "SCENARIOS",
    "render_report",
    "BrokerFaultProxy",
    "FaultInjector",
    "FeedFaultProxy",
    "NetworkFaultProxy",
    "check_kernel_invariants",
    "collect_violations",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "no_faults",
]
