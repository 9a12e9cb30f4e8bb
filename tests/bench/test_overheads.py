"""Shape tests for the Section V overhead experiment.

These assert the *qualitative findings* of Figures 10-13 on reduced
configurations (few jobs, a subset of np values); the claims of
:mod:`repro.bench.claims` check them on the full sweep.
"""

import pytest

from repro.bench.overheads import (
    OPTIONAL_DEADLINE,
    PARALLEL_COUNTS,
    make_eval_task,
    run_overhead_experiment,
)
from repro.hardware.loads import BackgroundLoad
from repro.simkernel.time_units import MSEC

pytestmark = pytest.mark.tier1


def test_parallel_counts_match_paper():
    """Section V-A: np in {4, 8, 16, 32, 57, 114, 171, 228}."""
    assert PARALLEL_COUNTS == (4, 8, 16, 32, 57, 114, 171, 228)


def test_eval_task_parameters():
    task = make_eval_task(4)
    assert task.period == pytest.approx(1000 * MSEC)
    assert task.optional == pytest.approx(1000 * MSEC)
    assert task.n_parallel == 4
    assert OPTIONAL_DEADLINE == pytest.approx(750 * MSEC)


@pytest.fixture(scope="module")
def samples():
    """A reduced sweep shared by the shape assertions:
    ``(policy, load, np) -> OverheadSample``."""
    return {
        (policy, load, n_parallel): run_overhead_experiment(
            n_parallel, policy=policy, load=load, n_jobs=4,
        )
        for load in BackgroundLoad
        for policy in ("one_by_one", "all_by_all")
        for n_parallel in (4, 57)
    }


def test_every_part_always_terminated(samples):
    """o = T: every optional part always overruns and is terminated."""
    for sample in samples.values():
        assert sample.fates["terminated"] == 4 * sample.n_parallel
        assert sample.fates["completed"] == 0
        assert sample.fates["discarded"] == 0


def test_fig10_delta_m_flat_and_load_ordered(samples):
    """Δm is ~constant in np; no load < CPU load < CPU-Memory load."""
    for policy in ("one_by_one", "all_by_all"):
        by_load = {
            load: samples[(policy, load, 57)].mean("m")
            for load in BackgroundLoad
        }
        assert by_load[BackgroundLoad.NONE] < by_load[BackgroundLoad.CPU]
        assert by_load[BackgroundLoad.CPU] < \
            by_load[BackgroundLoad.CPU_MEMORY]
        # flat: np=4 and np=57 within 30%
        small = samples[(policy, BackgroundLoad.CPU, 4)].mean("m")
        large = samples[(policy, BackgroundLoad.CPU, 57)].mean("m")
        assert small == pytest.approx(large, rel=0.3)


def test_fig12_delta_b_linear_and_inverted(samples):
    """Δb grows linearly with np; CPU load > CPU-Memory load > no load."""
    for load in BackgroundLoad:
        small = samples[("one_by_one", load, 4)].mean("b")
        large = samples[("one_by_one", load, 57)].mean("b")
        assert large / small == pytest.approx(57 / 4, rel=0.25)
    at57 = {
        load: samples[("one_by_one", load, 57)].mean("b")
        for load in BackgroundLoad
    }
    assert at57[BackgroundLoad.CPU] > at57[BackgroundLoad.CPU_MEMORY]
    assert at57[BackgroundLoad.CPU_MEMORY] > at57[BackgroundLoad.NONE]


def test_fig11_delta_s_rises_only_under_no_load(samples):
    """Δs grows with np under no load; ~flat under the loads."""
    no_load_small = samples[("one_by_one", BackgroundLoad.NONE, 4)]
    no_load_large = samples[("one_by_one", BackgroundLoad.NONE, 57)]
    assert no_load_large.mean("s") > 1.5 * no_load_small.mean("s")
    cpu_small = samples[("one_by_one", BackgroundLoad.CPU, 4)]
    cpu_large = samples[("one_by_one", BackgroundLoad.CPU, 57)]
    assert cpu_large.mean("s") == pytest.approx(cpu_small.mean("s"),
                                                rel=0.25)


def test_fig13_delta_e_largest_and_policy_ordered(samples):
    """Δe dominates all other overheads; one-by-one worst under load,
    policies equal under no load."""
    for key, sample in samples.items():
        if sample.n_parallel == 57:
            assert sample.mean("e") > sample.mean("b")
            assert sample.mean("e") > sample.mean("m")
            assert sample.mean("e") > sample.mean("s")
    for load in (BackgroundLoad.CPU, BackgroundLoad.CPU_MEMORY):
        obo = samples[("one_by_one", load, 57)].mean("e")
        aba = samples[("all_by_all", load, 57)].mean("e")
        assert obo > 1.2 * aba
    none_obo = samples[("one_by_one", BackgroundLoad.NONE, 57)].mean("e")
    none_aba = samples[("all_by_all", BackgroundLoad.NONE, 57)].mean("e")
    assert none_obo == pytest.approx(none_aba, rel=0.1)


def test_fig13_cpu_memory_tops_cpu(samples):
    obo_cpu = samples[("one_by_one", BackgroundLoad.CPU, 57)].mean("e")
    obo_mem = samples[("one_by_one", BackgroundLoad.CPU_MEMORY, 57)]
    assert obo_mem.mean("e") > obo_cpu


def test_deadlines_hold_with_allowance(samples):
    """With the overhead allowance carved out, the pipeline sustains its
    1-second period (no cascading releases)."""
    for sample in samples.values():
        deltas = sample.raw["m"]
        assert max(deltas) < 1_000.0  # never more than 1 ms late


def test_run_overhead_experiment_deterministic():
    first = run_overhead_experiment(8, n_jobs=3, seed=5)
    second = run_overhead_experiment(8, n_jobs=3, seed=5)
    assert first.raw == second.raw
