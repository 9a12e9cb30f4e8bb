"""Unit tests for the discrete-event engine."""

import pytest

from repro.engine.events import Engine

pytestmark = pytest.mark.tier1


def test_starts_at_zero():
    engine = Engine()
    assert engine.now == 0.0
    assert engine.peek_time() is None


def test_custom_start_time():
    engine = Engine(start_time=100.0)
    assert engine.now == 100.0


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.schedule_at(30.0, lambda: order.append("c"))
    engine.schedule_at(10.0, lambda: order.append("a"))
    engine.schedule_at(20.0, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 30.0


def test_simultaneous_events_fifo_by_sequence():
    engine = Engine()
    order = []
    for label in "abcde":
        engine.schedule_at(5.0, lambda label=label: order.append(label))
    engine.run()
    assert order == list("abcde")


def test_priority_breaks_ties_before_sequence():
    engine = Engine()
    order = []
    engine.schedule_at(5.0, lambda: order.append("low"), priority=5)
    engine.schedule_at(5.0, lambda: order.append("high"), priority=0)
    engine.run()
    assert order == ["high", "low"]


def test_schedule_in_past_rejected():
    engine = Engine(start_time=50.0)
    with pytest.raises(ValueError):
        engine.schedule_at(49.0, lambda: None)


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule_after(-1.0, lambda: None)


def test_cancelled_event_not_run():
    engine = Engine()
    ran = []
    event = engine.schedule_at(10.0, lambda: ran.append(1))
    engine.cancel(event)
    engine.run()
    assert ran == []
    # the clock does not advance for cancelled events
    assert engine.now == 0.0


def test_cancel_twice_is_noop():
    engine = Engine()
    event = engine.schedule_at(10.0, lambda: None)
    engine.cancel(event)
    engine.cancel(event)
    engine.run()


def test_run_until_stops_clock_at_bound():
    engine = Engine()
    ran = []
    engine.schedule_at(10.0, lambda: ran.append("early"))
    engine.schedule_at(100.0, lambda: ran.append("late"))
    engine.run(until=50.0)
    assert ran == ["early"]
    assert engine.now == 50.0
    engine.run()
    assert ran == ["early", "late"]


def test_run_until_advances_clock_when_queue_empty():
    engine = Engine()
    engine.run(until=25.0)
    assert engine.now == 25.0


def test_max_events_bounds_execution():
    engine = Engine()
    ran = []
    for i in range(10):
        engine.schedule_at(float(i), lambda i=i: ran.append(i))
    executed = engine.run(max_events=3)
    assert executed == 3
    assert ran == [0, 1, 2]


def test_events_scheduled_during_run_are_processed():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule_after(5.0, lambda: order.append("chained"))

    engine.schedule_at(1.0, first)
    engine.run()
    assert order == ["first", "chained"]
    assert engine.now == 6.0


def test_peek_time_skips_cancelled():
    engine = Engine()
    event = engine.schedule_at(5.0, lambda: None)
    engine.schedule_at(9.0, lambda: None)
    engine.cancel(event)
    assert engine.peek_time() == 9.0


def test_pending_count_excludes_cancelled():
    engine = Engine()
    event = engine.schedule_at(5.0, lambda: None)
    engine.schedule_at(6.0, lambda: None)
    engine.cancel(event)
    assert engine.pending_count == 1


def test_events_processed_counter():
    engine = Engine()
    engine.schedule_at(1.0, lambda: None)
    engine.schedule_at(2.0, lambda: None)
    engine.run()
    assert engine.events_processed == 2
