"""Trace-oracle unit tests: synthetic kernel streams with known
violations, plus clean-run checks against the real middleware."""

import pytest

from repro.check.oracles import (
    KernelTraceOracle,
    check_final_state,
    check_kernel_trace,
    check_protocol,
)
from repro.check.scenario import generate_scenario
from repro.simkernel.signals import SIGALRM
from repro.snapshot.programs import CheckProgram

pytestmark = pytest.mark.tier1


def _stream(*events):
    """events: (time, kind, tid, cpu, prio) tuples -> probe records."""
    out = []
    for time, kind, tid, cpu, prio in events:
        out.append((
            f"kernel.{kind}", float(time),
            {"tid": tid, "thread": f"t{tid}", "cpu": cpu, "prio": prio},
        ))
    return out


class TestKernelTraceOracle:
    def test_clean_fifo_schedule(self):
        events = _stream(
            (0, "spawn", 1, 0, 50), (0, "ready", 1, 0, 50),
            (0, "dispatch", 1, 0, 50),
            (1, "ready", 2, 0, 50),
            (2, "yield", 1, 0, 50), (2, "dispatch", 2, 0, 50),
        )
        assert check_kernel_trace(events, n_cpus=1) == []

    def test_fifo_tie_break_violation(self):
        # t1 queued before t2 at the same level, but t2 dispatched first
        events = _stream(
            (0, "ready", 1, 0, 50), (0, "ready", 2, 0, 50),
            (0, "dispatch", 2, 0, 50),
        )
        violations = check_kernel_trace(events, n_cpus=1)
        assert [v["oracle"] for v in violations] == ["fifo_order"]
        assert "t1" in violations[0]["detail"]

    def test_preempted_thread_resumes_before_peers(self):
        # preempt re-enqueues at the head: t1 must beat t2
        events = _stream(
            (0, "ready", 1, 0, 50), (0, "dispatch", 1, 0, 50),
            (1, "ready", 2, 0, 50),
            (2, "ready", 3, 0, 60), (2, "preempt", 1, 0, 50),
            (2, "dispatch", 3, 0, 60),
            (3, "thread_exit", 3, 0, 60), (3, "dispatch", 1, 0, 50),
        )
        assert check_kernel_trace(events, n_cpus=1) == []
        # ... and dispatching t2 instead is a violation
        bad = _stream(
            (0, "ready", 1, 0, 50), (0, "dispatch", 1, 0, 50),
            (1, "ready", 2, 0, 50),
            (2, "ready", 3, 0, 60), (2, "preempt", 1, 0, 50),
            (2, "dispatch", 3, 0, 60),
            (3, "thread_exit", 3, 0, 60), (3, "dispatch", 2, 0, 50),
        )
        violations = check_kernel_trace(bad, n_cpus=1)
        assert violations and violations[0]["oracle"] == "fifo_order"

    def test_priority_conformance_violation(self):
        # high-priority t2 sits ready while low-priority t1 keeps running
        events = _stream(
            (0, "ready", 1, 0, 10), (0, "dispatch", 1, 0, 10),
            (1, "ready", 2, 0, 90),
            (2, "yield", 1, 0, 10),  # next instant: still not dispatched
        )
        violations = check_kernel_trace(events, n_cpus=1)
        assert any(v["oracle"] == "priority_conformance"
                   for v in violations)

    def test_work_conservation_violation(self):
        events = _stream(
            (0, "ready", 1, 0, 50),
            (1, "ready", 2, 1, 50), (1, "dispatch", 2, 1, 50),
        )
        violations = check_kernel_trace(events, n_cpus=2)
        assert any(v["oracle"] == "work_conservation"
                   for v in violations)

    def test_double_ready_detected(self):
        events = _stream(
            (0, "ready", 1, 0, 50), (0, "ready", 1, 0, 50),
        )
        violations = check_kernel_trace(events, n_cpus=1)
        assert violations and violations[0]["oracle"] == "fifo_order"

    def test_dispatch_from_empty_queue_detected(self):
        events = _stream((0, "dispatch", 1, 0, 50))
        violations = check_kernel_trace(events, n_cpus=1)
        assert violations and "empty" in violations[0]["detail"]

    def test_migrate_then_ready_is_clean(self):
        events = _stream(
            (0, "ready", 1, 0, 50), (0, "dispatch", 1, 0, 50),
            (0, "ready", 2, 0, 40),
            (1, "migrate", 2, 0, 40), (1, "ready", 2, 1, 40),
            (1, "dispatch", 2, 1, 40),
        )
        assert check_kernel_trace(events, n_cpus=2) == []

    def test_prio_boost_requeues_at_new_level_tail(self):
        events = _stream(
            (0, "ready", 1, 0, 50), (0, "ready", 2, 0, 90),
            (0, "dispatch", 2, 0, 90),
            (1, "prio_boost", 1, 0, 90),
            (2, "yield", 2, 0, 90), (2, "dispatch", 1, 0, 90),
        )
        assert check_kernel_trace(events, n_cpus=1) == []

    def test_violation_cap(self):
        oracle = KernelTraceOracle(n_cpus=1, max_violations=3)
        for time in range(10):
            for topic, when, data in _stream(
                    (time, "dispatch", 9, 0, 50)):
                oracle.on_event(topic, when, data)
        assert len(oracle.finish()) == 3

    def test_real_middleware_run_is_clean(self):
        for seed in (0, 5, 9):
            scenario = generate_scenario(seed)
            run = CheckProgram({"scenario": scenario.to_dict()})
            assert run.build().spawn().drain() is None
            assert check_kernel_trace(run.events, scenario.n_cpus) == []
            assert check_protocol(run.events, scenario) == []
            assert check_final_state(run.kernel) == []


class TestProtocolOracle:
    def _scenario(self):
        return generate_scenario(0)

    def test_lost_wakeup_detected(self):
        scenario = self._scenario()
        task = scenario.tasks[0]
        base = {"task": task.name, "job": 0}
        events = [
            ("rtseed.signals_done", 1.0, dict(base)),
            # n_parallel parts signalled, none ended before the wind-up
            ("rtseed.windup_begin", 2.0, dict(base)),
            ("rtseed.job_done", 3.0, dict(base)),
        ]
        violations = check_protocol(events, scenario)
        assert any(v["oracle"] == "lost_wakeup" for v in violations)

    def test_missing_job_done_detected(self):
        violations = check_protocol([], self._scenario())
        assert violations
        assert {v["oracle"] for v in violations} == {
            "protocol_completeness"
        }


class TestFinalStateOracle:
    def test_open_termination_window_detected(self):
        """Optional threads must park with SIGALRM blocked (window
        closed); a thread that installed an unwind handler but exits
        with the signal deliverable is the stale-signal regression."""
        run = CheckProgram({"scenario": generate_scenario(0).to_dict()})
        run.build().spawn().drain()
        kernel = run.kernel
        assert check_final_state(kernel) == []
        victim = next(
            thread for thread in kernel.threads
            if SIGALRM in thread.signal_mask
        )
        victim.signal_mask.discard(SIGALRM)
        violations = check_final_state(kernel)
        assert any(v["oracle"] == "signal_mask" for v in violations)
        victim.signal_mask.add(SIGALRM)
        assert check_final_state(kernel) == []
