"""Tests for the task models (Section II)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    ExtendedImpreciseTask,
    ImpreciseTask,
    ParallelExtendedImpreciseTask,
    PeriodicTask,
    TaskSet,
)

pytestmark = pytest.mark.tier1


# ---------------------------------------------------------------------------
# PeriodicTask
# ---------------------------------------------------------------------------


def test_periodic_task_basic():
    task = PeriodicTask("tau1", wcet=2.0, period=10.0)
    assert task.utilization == pytest.approx(0.2)
    assert task.deadline == 10.0  # implicit deadline


def test_periodic_task_constrained_deadline():
    task = PeriodicTask("tau1", wcet=2.0, period=10.0, deadline=5.0)
    assert task.deadline == 5.0


def test_periodic_task_validation():
    with pytest.raises(ValueError):
        PeriodicTask("bad", wcet=0, period=10)
    with pytest.raises(ValueError):
        PeriodicTask("bad", wcet=1, period=0)
    with pytest.raises(ValueError):
        PeriodicTask("bad", wcet=1, period=10, deadline=11)
    with pytest.raises(ValueError):
        PeriodicTask("bad", wcet=6, period=10, deadline=5)


# ---------------------------------------------------------------------------
# ImpreciseTask
# ---------------------------------------------------------------------------


def test_imprecise_task_utilization_excludes_optional():
    task = ImpreciseTask("tau1", mandatory=2.0, optional=100.0, period=10.0)
    assert task.utilization == pytest.approx(0.2)
    assert task.optional_utilization == pytest.approx(10.0)


def test_imprecise_negative_optional_rejected():
    with pytest.raises(ValueError):
        ImpreciseTask("bad", mandatory=2.0, optional=-1.0, period=10.0)


# ---------------------------------------------------------------------------
# ExtendedImpreciseTask
# ---------------------------------------------------------------------------


def test_extended_task_wcet_is_m_plus_w():
    task = ExtendedImpreciseTask("tau1", mandatory=2.0, optional=5.0,
                                 windup=1.0, period=10.0)
    assert task.wcet == pytest.approx(3.0)
    assert task.utilization == pytest.approx(0.3)
    assert task.optional_utilization == pytest.approx(0.5)


def test_extended_task_requires_positive_parts():
    with pytest.raises(ValueError):
        ExtendedImpreciseTask("bad", 0, 5, 1, 10)
    with pytest.raises(ValueError):
        ExtendedImpreciseTask("bad", 2, 5, 0, 10)


def test_extended_task_wcet_must_fit_deadline():
    with pytest.raises(ValueError):
        ExtendedImpreciseTask("bad", mandatory=6, optional=0, windup=5,
                              period=10)


def test_as_parallel_replicates_optional():
    task = ExtendedImpreciseTask("tau1", 2, 5, 1, 10)
    parallel = task.as_parallel(4)
    assert parallel.n_parallel == 4
    assert parallel.optionals == [5.0] * 4
    assert parallel.wcet == task.wcet
    assert parallel.mandatory == task.mandatory
    assert parallel.windup == task.windup


# ---------------------------------------------------------------------------
# ParallelExtendedImpreciseTask
# ---------------------------------------------------------------------------


def test_parallel_task_optional_utilization_sums_parts():
    """Section II-A: U^o_i = sum_k o_{i,k} / T_i."""
    task = ParallelExtendedImpreciseTask("tau1", 2, [1.0, 2.0, 3.0], 1, 10)
    assert task.optional_utilization == pytest.approx(0.6)
    assert task.n_parallel == 3


def test_parallel_task_wcet_excludes_optionals():
    task = ParallelExtendedImpreciseTask("tau1", 2, [100.0] * 8, 1, 10)
    assert task.wcet == pytest.approx(3.0)


def test_single_part_degenerates_to_extended():
    """Section II-A: with one parallel optional part the model is the
    extended imprecise computation model."""
    parallel = ParallelExtendedImpreciseTask("tau1", 2, [5.0], 1, 10)
    extended = parallel.as_extended()
    assert isinstance(extended, ExtendedImpreciseTask)
    assert extended.optional == pytest.approx(5.0)
    assert extended.wcet == parallel.wcet


def test_parallel_task_requires_parts():
    with pytest.raises(ValueError):
        ParallelExtendedImpreciseTask("bad", 2, [], 1, 10)
    with pytest.raises(ValueError):
        ParallelExtendedImpreciseTask("bad", 2, [1, -1], 1, 10)


@settings(max_examples=100, deadline=None)
@given(
    mandatory=st.floats(min_value=0.1, max_value=3.0),
    windup=st.floats(min_value=0.1, max_value=3.0),
    optionals=st.lists(st.floats(min_value=0.0, max_value=10.0),
                       min_size=1, max_size=16),
)
def test_parallel_utilization_invariants(mandatory, windup, optionals):
    task = ParallelExtendedImpreciseTask("t", mandatory, optionals, windup,
                                         period=20.0)
    assert task.utilization == pytest.approx((mandatory + windup) / 20.0)
    assert task.optional_utilization == pytest.approx(sum(optionals) / 20.0)
    collapsed = task.as_extended()
    assert collapsed.utilization == pytest.approx(task.utilization)
    assert collapsed.optional_utilization == pytest.approx(
        task.optional_utilization
    )


# ---------------------------------------------------------------------------
# TaskSet
# ---------------------------------------------------------------------------


def _simple_set():
    return TaskSet(
        [
            PeriodicTask("a", 1.0, 4.0),
            PeriodicTask("b", 2.0, 8.0),
            PeriodicTask("c", 1.0, 16.0),
        ],
        n_processors=2,
    )


def test_taskset_utilizations():
    taskset = _simple_set()
    assert taskset.total_utilization == pytest.approx(0.5625)
    assert taskset.system_utilization == pytest.approx(0.28125)


def test_taskset_hyperperiod():
    assert _simple_set().hyperperiod == 16.0


def test_taskset_hyperperiod_needs_integral_periods():
    taskset = TaskSet([PeriodicTask("a", 1.0, 4.5)])
    with pytest.raises(ValueError):
        taskset.hyperperiod


def test_taskset_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        TaskSet([])
    with pytest.raises(ValueError):
        TaskSet([PeriodicTask("a", 1, 4), PeriodicTask("a", 1, 8)])


def test_taskset_indexing_and_len():
    taskset = _simple_set()
    assert len(taskset) == 3
    assert taskset[0].name == "a"
    assert [t.name for t in taskset] == ["a", "b", "c"]
