"""The one response-time iteration keeps the bits of the four it
replaced (``tests/model/reference.py``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    ExtendedImpreciseTask,
    PeriodicTask,
    PracticalImpreciseTask,
    response_time,
    windup_response_time,
)
from repro.model.optional_deadline import OptionalDeadlineError
from repro.sched.analysis import response_time_analysis
from tests.model.reference import (
    reference_feasible_at_lowest,
    reference_rta,
    reference_tail_response_time,
    reference_windup_response_time,
)

pytestmark = pytest.mark.tier1

# integral periods make exact fixed points (and ties with the bound)
# common; fractional ones exercise the rounding
PERIODS = st.one_of(st.integers(1, 60).map(float),
                    st.floats(1.0, 60.0, allow_nan=False))
SHARES = st.floats(0.02, 0.6, allow_nan=False)


@st.composite
def periodic_tasks(draw, max_size=6):
    shapes = draw(st.lists(st.tuples(PERIODS, SHARES), min_size=1,
                           max_size=max_size))
    return [PeriodicTask(f"t{k}", share * period, period)
            for k, (period, share) in enumerate(shapes)]


@st.composite
def imprecise_tasks(draw, max_size=6):
    shapes = draw(st.lists(st.tuples(PERIODS, SHARES, SHARES),
                           min_size=1, max_size=max_size))
    return [
        ExtendedImpreciseTask(f"t{k}", a * period / 2, period,
                              b * period / 2, period)
        for k, (period, a, b) in enumerate(shapes)
    ]


def _outcome(function, *args):
    try:
        return function(*args)
    except OptionalDeadlineError:
        return "infeasible"


@settings(max_examples=200, deadline=None)
@given(periodic_tasks())
def test_task_response_time_matches_the_reference(tasks):
    for index, task in enumerate(tasks):
        higher = tasks[:index]
        assert response_time_analysis(task, higher) == \
            reference_rta(task, higher)


@settings(max_examples=200, deadline=None)
@given(periodic_tasks())
def test_opa_lowest_level_test_matches_the_reference(tasks):
    for candidate in tasks:
        others = [task for task in tasks if task is not candidate]
        feasible = response_time_analysis(candidate, others) is not None
        assert feasible == reference_feasible_at_lowest(candidate, others)


@settings(max_examples=200, deadline=None)
@given(imprecise_tasks(), periodic_tasks(max_size=2))
def test_windup_response_time_matches_the_reference(tasks, plain):
    tasks = tasks + plain  # Liu & Layland tasks have no wind-up part
    for index, task in enumerate(tasks):
        higher = tasks[:index]
        assert _outcome(windup_response_time, task, higher) == \
            _outcome(reference_windup_response_time, task, higher)


@settings(max_examples=200, deadline=None)
@given(st.lists(SHARES, min_size=2, max_size=5), PERIODS,
       imprecise_tasks(max_size=3))
def test_chain_response_time_matches_the_reference(shares, period,
                                                   higher):
    parts = [share * period / len(shares) for share in shares]
    task = PracticalImpreciseTask("p", parts, [0.0] * (len(parts) - 1),
                                  period)
    for stage in range(task.n_phases - 1):
        for work in (sum(parts[:stage + 1]), task.tail_mandatory(stage)):
            ours = response_time(work, higher, task.deadline)
            assert ("infeasible" if ours is None else ours) == _outcome(
                reference_tail_response_time, work, task, higher)


def test_response_time_iterates_to_the_smallest_fixed_point():
    light = PeriodicTask("l", 2.0, 5.0)
    heavy = PeriodicTask("h", 4.0, 5.0)
    assert response_time(3.0, [light], 20.0) == 5.0  # 3 -> 5
    assert response_time(10.0, [light], 20.0) == 18.0  # 14, 16, 18
    assert response_time(10.0, [heavy], 20.0) is None  # 18, 26 > 20
    assert response_time(0.0, [heavy], 20.0) == 0.0
