"""Machine description of the Intel Xeon Phi 3120A (Section V-A)."""

from repro.simkernel.cpu import Topology, uniform_share, xeon_phi_share


class MachineSpec:
    """Static description of a many-core machine."""

    def __init__(self, name, n_cores, threads_per_core, clock_ghz,
                 l2_cache_bytes, memory):
        self.name = name
        self.n_cores = n_cores
        self.threads_per_core = threads_per_core
        self.clock_ghz = clock_ghz
        self.l2_cache_bytes = l2_cache_bytes
        self.memory = memory

    @property
    def n_cpus(self):
        return self.n_cores * self.threads_per_core

    def __repr__(self):
        return (
            f"<MachineSpec {self.name}: {self.n_cores}c/"
            f"{self.n_cpus}t @ {self.clock_ghz}GHz>"
        )


#: The paper's evaluation platform: Xeon Phi 3120A, 57 cores / 228
#: hardware threads at 1.1 GHz, 512 KB L2 per core (the CPU-Memory load
#: reads/writes exactly this much to pollute the cache), 6 GB GDDR5.
XEON_PHI_3120A = MachineSpec(
    name="Xeon Phi 3120A",
    n_cores=57,
    threads_per_core=4,
    clock_ghz=1.1,
    l2_cache_bytes=512 * 1024,
    memory="6 GB GDDR5",
)

#: ``NR_CPUS`` in the paper's Figure 7.
NR_CPUS = XEON_PHI_3120A.n_cpus


def xeon_phi_topology(spec=XEON_PHI_3120A, smt_accurate=False):
    """Build the evaluation topology.

    :param smt_accurate: when True, use the Xeon Phi in-order SMT share
        curve (a lone hardware thread reaches only half the core's peak).
        The default (False) uses the uniform share with background weight
        0, matching how the paper's experiments are expressed: part WCETs
        are wall-clock budgets measured on the machine, and background
        load manifests as *latency* contention (Figures 10-13), which the
        cost model injects, not as throughput loss on the pinned
        real-time core.  Use ``smt_accurate=True`` for QoS ablations
        where optional-part throughput under SMT sharing matters.
    """
    if smt_accurate:
        return Topology(
            spec.n_cores,
            spec.threads_per_core,
            share_fn=xeon_phi_share,
            background_weight=1.0,
        )
    return Topology(
        spec.n_cores,
        spec.threads_per_core,
        share_fn=uniform_share,
        background_weight=0.0,
    )


def isolcpus_range(spec=XEON_PHI_3120A):
    """The CPUs isolated from regular tasks (boot param isolcpus=1-227)."""
    return list(range(1, spec.n_cpus))
