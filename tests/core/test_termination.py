"""Tests for the three termination strategies (Section IV-D, Table I)."""

import pytest

from repro.core import RTSeed, WorkloadTask
from repro.core.termination import (
    STRATEGIES,
    PeriodicCheckTermination,
    SigjmpTermination,
    TryCatchTermination,
    termination_table,
)
from repro.simkernel import Kernel, KTimer, Topology
from repro.simkernel.cpu import uniform_share
from repro.simkernel.syscalls import Compute, GetTime
from repro.simkernel.time_units import MSEC, SEC

pytestmark = pytest.mark.tier1


def run_strategy_jobs(strategy, n_jobs=2, work=100 * MSEC, od_rel=20 * MSEC,
                      chunk=None):
    """Run ``n_jobs`` back-to-back optional parts under ``strategy``.

    Returns a list of (completed, started_at, ended_at) per job.
    """
    kernel = Kernel(Topology(1, 1, share_fn=uniform_share))
    outcomes = []

    def make_body(chunk_size):
        def optional_body():
            remaining = work
            while remaining > 0:
                step = min(chunk_size or work, remaining)
                yield Compute(step)
                remaining -= step

        return optional_body

    def thread_body(thread):
        timer = KTimer(thread)
        yield from strategy.setup(timer)
        for _job in range(n_jobs):
            start = yield GetTime()
            outcome = yield from strategy.run(
                make_body(chunk)(), timer, start + od_rel
            )
            outcomes.append(outcome)

    kernel.create_thread("optional", thread_body, cpu=0, priority=10)
    kernel.run_to_completion()
    return outcomes


def test_table1_rows():
    rows = dict(
        (name, (any_time, mask_ok))
        for name, any_time, mask_ok in termination_table()
    )
    assert rows["sigsetjmp/siglongjmp"] == (True, True)
    assert rows["periodic-check"] == (False, True)
    assert rows["try-catch"] == (True, False)


def test_registry_names():
    assert set(STRATEGIES) == {
        "sigsetjmp/siglongjmp",
        "periodic-check",
        "try-catch",
    }


# ---------------------------------------------------------------------------
# sigsetjmp/siglongjmp
# ---------------------------------------------------------------------------


def test_sigjmp_terminates_exactly_at_od():
    outcomes = run_strategy_jobs(SigjmpTermination(), n_jobs=1)
    assert not outcomes[0].completed
    assert outcomes[0].ended_at == pytest.approx(20 * MSEC)


def test_sigjmp_works_across_jobs():
    """The restored signal mask lets every job's timer fire (Table I)."""
    outcomes = run_strategy_jobs(SigjmpTermination(), n_jobs=3)
    assert [o.completed for o in outcomes] == [False, False, False]
    # each job terminated one od after its start
    for index, outcome in enumerate(outcomes):
        expected = (index + 1) * 20 * MSEC
        assert outcome.ended_at == pytest.approx(expected)


def test_sigjmp_completion_disarms_timer():
    outcomes = run_strategy_jobs(SigjmpTermination(), n_jobs=2,
                                 work=5 * MSEC)
    assert [o.completed for o in outcomes] == [True, True]


# ---------------------------------------------------------------------------
# try-catch
# ---------------------------------------------------------------------------


def test_try_catch_first_job_terminates():
    outcomes = run_strategy_jobs(TryCatchTermination(), n_jobs=1)
    assert not outcomes[0].completed


def test_try_catch_loses_second_jobs_timer():
    """Table I: the signal mask is not restored, so job 2's timer
    interrupt never arrives and the optional part runs to completion."""
    outcomes = run_strategy_jobs(TryCatchTermination(), n_jobs=2)
    assert not outcomes[0].completed   # job 1 terminated normally
    assert outcomes[1].completed       # job 2 overran its budget!
    # job 2 consumed its full work: ended at 20ms + 100ms
    assert outcomes[1].ended_at == pytest.approx(120 * MSEC)


# ---------------------------------------------------------------------------
# periodic check
# ---------------------------------------------------------------------------


def test_periodic_check_stops_at_chunk_boundary():
    """Termination granularity is the chunk, not the OD (Table I: no
    any-time termination)."""
    outcomes = run_strategy_jobs(PeriodicCheckTermination(), n_jobs=1,
                                 chunk=15 * MSEC)
    outcome = outcomes[0]
    assert not outcome.completed
    # first check at 15ms (before OD), second chunk ends at 30ms > 20ms
    assert outcome.ended_at == pytest.approx(30 * MSEC)


def test_periodic_check_completes_short_work():
    outcomes = run_strategy_jobs(PeriodicCheckTermination(), n_jobs=2,
                                 work=10 * MSEC, chunk=4 * MSEC)
    assert [o.completed for o in outcomes] == [True, True]


def test_periodic_check_cannot_interrupt_long_chunk():
    """A single long chunk blows way past the OD — the qualitative QoS
    degradation the paper attributes to periodic checking."""
    outcomes = run_strategy_jobs(PeriodicCheckTermination(), n_jobs=1,
                                 work=100 * MSEC, chunk=None)
    outcome = outcomes[0]
    assert outcome.ended_at == pytest.approx(100 * MSEC)  # OD was 20ms


def test_periodic_check_repeats_across_jobs():
    outcomes = run_strategy_jobs(PeriodicCheckTermination(), n_jobs=2,
                                 chunk=15 * MSEC)
    assert [o.completed for o in outcomes] == [False, False]


# ---------------------------------------------------------------------------
# Table I, behaviourally: the same overrunning workload under each strategy
# ---------------------------------------------------------------------------


def run_strategy(strategy):
    middleware = RTSeed(cost_model="zero")
    # 17 ms chunks deliberately misalign with the OD so the periodic
    # check's granularity shows up as a nonzero overshoot
    task = WorkloadTask("tau1", 200 * MSEC, 2 * SEC, 200 * MSEC, 1 * SEC,
                        n_parallel=2, chunk=17 * MSEC)
    middleware.add_task(task, n_jobs=3, strategy=strategy)
    result = middleware.run()
    task_result = result.tasks["tau1"]
    overshoots = []
    for probe in task_result.probes:
        for end in probe.optional_end:
            if end is not None:
                overshoots.append(end - probe.od_abs)
    job2_fates = task_result.probes[1].optional_fate
    return {
        "max_overshoot_ms": max(overshoots) / MSEC if overshoots else None,
        "job2_terminated": all(f == "terminated" for f in job2_fates),
        "deadlines": task_result.all_deadlines_met,
    }


def test_table1_observed_behaviour():
    observed = {name: run_strategy(strategy)
                for name, strategy in STRATEGIES.items()}
    sigjmp = observed["sigsetjmp/siglongjmp"]
    periodic = observed["periodic-check"]
    trycatch = observed["try-catch"]
    # sigsetjmp/siglongjmp: any-time, mask restored -> everything works
    assert sigjmp["max_overshoot_ms"] < 1.0
    assert sigjmp["job2_terminated"]
    assert sigjmp["deadlines"]
    # periodic check: chunk-granular termination (overshoot ~ one chunk)
    assert 0.0 < periodic["max_overshoot_ms"] <= 18.0
    assert periodic["job2_terminated"]
    # try/catch: job 1 fine, but job 2's timer interrupt never arrives
    assert not trycatch["job2_terminated"]
    assert not trycatch["deadlines"]
