"""Tests for the CPU topology and SMT share model."""

import pytest

from repro.simkernel.cpu import (
    Topology,
    uniform_share,
    xeon_phi_share,
)

pytestmark = pytest.mark.tier1


def test_xeon_phi_share_single_thread_half_throughput():
    assert xeon_phi_share(1) == 0.5


def test_xeon_phi_share_even_split():
    assert xeon_phi_share(2) == 0.5
    assert xeon_phi_share(4) == 0.25


def test_xeon_phi_share_idle():
    assert xeon_phi_share(0) == 0.0


def test_uniform_share():
    assert uniform_share(1) == 1.0
    assert uniform_share(4) == 0.25
    assert uniform_share(0) == 0.0


def test_topology_dimensions():
    topology = Topology(57, 4)
    assert topology.n_cores == 57
    assert topology.n_cpus == 228
    assert len(topology.hw_threads) == 228
    assert all(len(core.hw_threads) == 4 for core in topology.cores)


def test_core_major_numbering():
    topology = Topology(4, 2, numbering="core_major")
    assert topology.cpu_of(0, 0) == 0
    assert topology.cpu_of(0, 1) == 1
    assert topology.cpu_of(3, 1) == 7


def test_thread_major_numbering():
    topology = Topology(4, 2, numbering="thread_major")
    assert topology.cpu_of(0, 0) == 0
    assert topology.cpu_of(1, 0) == 1
    assert topology.cpu_of(0, 1) == 4


def test_invalid_numbering_rejected():
    with pytest.raises(ValueError):
        Topology(2, 2, numbering="diagonal")


def test_degenerate_topology_rejected():
    with pytest.raises(ValueError):
        Topology(0, 4)
    with pytest.raises(ValueError):
        Topology(4, 0)


def test_core_of_and_siblings():
    topology = Topology(3, 4)
    assert topology.core_of(5).core_id == 1
    assert topology.siblings(5) == [4, 5, 6, 7]


def test_cpu_of_bounds():
    topology = Topology(2, 2)
    with pytest.raises(ValueError):
        topology.cpu_of(2, 0)
    with pytest.raises(ValueError):
        topology.cpu_of(0, 2)


def test_background_load_all_cpus():
    topology = Topology(2, 2)
    topology.set_background_load()
    assert all(t.background_busy for t in topology.hw_threads)
    topology.set_background_load(busy=False)
    assert not any(t.background_busy for t in topology.hw_threads)


def test_background_load_subset():
    topology = Topology(2, 2)
    topology.set_background_load(cpu_ids=[1, 3])
    assert [t.background_busy for t in topology.hw_threads] == [
        False,
        True,
        False,
        True,
    ]


def test_rate_for_background_weight_zero():
    topology = Topology(1, 4, share_fn=uniform_share, background_weight=0.0)
    core = topology.cores[0]
    # background occupancy does not steal throughput when weight is 0
    assert core.rate_for(1, 3) == 1.0
    assert core.rate_for(2, 2) == 0.5


@pytest.mark.parametrize("share_fn", [xeon_phi_share, uniform_share])
def test_unweighted_background_count_never_moves_the_rate(share_fn):
    """The kernel prices a core of weight 0 as if no sibling carried
    background load, skipping the sibling walk: that is exact only if
    ``rate_for(n, k)`` has the bits of ``rate_for(n, 0)`` for every
    ``k`` the core can see."""
    topology = Topology(1, 4, share_fn=share_fn, background_weight=0.0)
    core = topology.cores[0]
    width = topology.threads_per_core
    for speed in (1.0, 0.37, 2.5):
        core.speed = speed
        for n in range(width + 1):
            for k in range(width + 1):
                assert core.rate_for(n, k).hex() \
                    == core.rate_for(n, 0).hex(), (speed, n, k)


def test_rate_for_background_weight_one():
    topology = Topology(1, 4, share_fn=uniform_share, background_weight=1.0)
    core = topology.cores[0]
    assert core.rate_for(1, 3) == 0.25


def test_rate_for_no_computing_threads():
    topology = Topology(1, 4)
    assert topology.cores[0].rate_for(0, 4) == 0.0


def test_speed_scales_rate():
    topology = Topology(1, 1, speed=2.0, share_fn=uniform_share)
    assert topology.cores[0].rate_for(1, 0) == 2.0
