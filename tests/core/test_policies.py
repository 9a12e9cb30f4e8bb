"""Tests for the Figure 8 assignment policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    POLICIES,
    AllByAll,
    OneByOne,
    TwoByTwo,
    get_policy,
)
from repro.hardware.xeonphi import xeon_phi_topology
from repro.simkernel.cpu import Topology

pytestmark = pytest.mark.tier1


@pytest.fixture(scope="module")
def phi():
    return xeon_phi_topology()


def test_registry():
    assert set(POLICIES) == {"one_by_one", "two_by_two", "all_by_all"}
    assert isinstance(get_policy("one_by_one"), OneByOne)
    with pytest.raises(ValueError):
        get_policy("zigzag")


def test_first_part_on_cpu0(phi):
    """Section IV-C: the first parallel optional thread runs on the
    processor that executes the mandatory thread (CPU 0)."""
    for policy in POLICIES.values():
        assert policy.assign(phi, 1)[0] == 0
        assert policy.assign(phi, 171)[0] == 0
        assert policy.assign(phi, 228)[0] == 0


def test_fig8a_one_by_one_171(phi):
    """Figure 8(a): 171 parts -> three hardware threads on every core."""
    occupancy = OneByOne().occupancy(phi, 171)
    assert all(occupancy[core] == 3 for core in range(57))


def test_fig8b_two_by_two_171(phi):
    """Figure 8(b): four hardware threads on C0-C27, three on C28, two on
    C29-C56."""
    occupancy = TwoByTwo().occupancy(phi, 171)
    assert all(occupancy[core] == 4 for core in range(0, 28))
    assert occupancy[28] == 3
    assert all(occupancy[core] == 2 for core in range(29, 57))


def test_fig8c_all_by_all_171(phi):
    """Figure 8(c): four hardware threads on C0-C41, three on C42, none
    on C43-C56."""
    occupancy = AllByAll().occupancy(phi, 171)
    assert all(occupancy[core] == 4 for core in range(0, 42))
    assert occupancy[42] == 3
    assert all(core not in occupancy for core in range(43, 57))


def test_one_by_one_57_covers_every_core_once(phi):
    occupancy = OneByOne().occupancy(phi, 57)
    assert occupancy == {core: 1 for core in range(57)}


def test_all_by_all_fills_core_before_next(phi):
    cpus = AllByAll().assign(phi, 8)
    assert cpus == [0, 1, 2, 3, 4, 5, 6, 7]  # cores 0 and 1, full


def test_one_by_one_sweeps_ht0_first(phi):
    cpus = OneByOne().assign(phi, 58)
    # first 57 are hardware thread 0 of each core, then core 0 HT 1
    assert cpus[:3] == [0, 4, 8]
    assert cpus[56] == 224
    assert cpus[57] == 1


def test_two_by_two_pairs(phi):
    cpus = TwoByTwo().assign(phi, 6)
    assert cpus == [0, 1, 4, 5, 8, 9]


def test_full_machine_assignment_identical_sets(phi):
    """At np = 228 every policy uses all hardware threads (order may
    differ)."""
    for policy in POLICIES.values():
        assert sorted(policy.assign(phi, 228)) == list(range(228))


def test_oversubscription_rejected(phi):
    with pytest.raises(ValueError):
        OneByOne().assign(phi, 229)
    with pytest.raises(ValueError):
        OneByOne().assign(phi, 0)


@settings(max_examples=80, deadline=None)
@given(
    n_parts=st.integers(min_value=1, max_value=228),
    policy_name=st.sampled_from(sorted(POLICIES)),
)
def test_assignments_are_injective_and_valid(phi, n_parts, policy_name):
    """Property: each part gets a distinct, in-range hardware thread."""
    cpus = POLICIES[policy_name].assign(phi, n_parts)
    assert len(cpus) == n_parts
    assert len(set(cpus)) == n_parts
    assert all(0 <= cpu < 228 for cpu in cpus)


@settings(max_examples=40, deadline=None)
@given(n_parts=st.integers(min_value=1, max_value=16))
def test_policies_on_small_machines(n_parts):
    """Policies generalize to arbitrary topologies."""
    topology = Topology(4, 4)
    for policy in POLICIES.values():
        cpus = policy.assign(topology, n_parts)
        assert len(set(cpus)) == n_parts


def test_occupancy_counts_sum_to_parts(phi):
    for policy in POLICIES.values():
        for n_parts in (4, 57, 171, 228):
            occupancy = policy.occupancy(phi, n_parts)
            assert sum(occupancy.values()) == n_parts
