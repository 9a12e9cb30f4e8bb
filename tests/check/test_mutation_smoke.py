"""Mutation smoke test: plant one-line scheduler bugs in memory and
assert the conformance checker catches each, shrinks the failure to a
tiny scenario, and the repro artifact replays deterministically.

Each mutation flips a single behavioural decision the kernel or the
termination strategy makes — exactly the class of bug the differential
and the trace oracles exist to catch.  A mutation "survives" (the test
fails) if no scanned seed produces a failing report.
"""

import pytest

import repro.core.termination as termination
import repro.simkernel.kernel as kernel_mod
from repro.check import (
    generate_scenario,
    make_artifact,
    replay_artifact,
    run_scenario,
    shrink_report,
)
from repro.check.timetravel import divergence_snapshot, replay_from_snapshot
from repro.simkernel.signals import SIGALRM, UnwindDisposition
from repro.simkernel.syscalls import Sigaction
from repro.simkernel.time_units import MSEC

pytestmark = pytest.mark.tier1

#: Seeds scanned per mutation.  Catch rates differ per bug (a broken
#: preemption path needs a release landing mid-execution); 40 seeds
#: cover the rarest at the current generator settings.
SEED_SCAN = 40


def _fifo_inversion(monkeypatch):
    """Woken threads enqueue at the HEAD of their level (LIFO)."""
    original = kernel_mod.Kernel._make_ready

    def lifo_ready(self, thread, at_head=False):
        return original(self, thread, at_head=True)

    monkeypatch.setattr(kernel_mod.Kernel, "_make_ready", lifo_ready)


def _broken_preemption(monkeypatch):
    """A higher-priority arrival never preempts the running thread."""
    monkeypatch.setattr(kernel_mod.IndexedLevelQueue, "highest_priority",
                        lambda self: None)


def _mask_leak(monkeypatch):
    """The termination strategy drops its masking discipline: SIGALRM
    is left unblocked outside the optional-part window (the unhardened
    Figure 7 code, vulnerable to stale timer deliveries)."""
    from repro.simkernel.errors import SignalUnwind
    from repro.simkernel.syscalls import GetTime, TimerSettime

    def leaky_setup(self, timer):
        yield Sigaction(SIGALRM, UnwindDisposition(restore_mask=True))

    def leaky_run(self, body, timer, od_abs, probes=None):
        started_at = yield GetTime()
        try:
            yield TimerSettime(timer, od_abs)
            yield from body
            yield TimerSettime(timer, None)
            ended_at = yield GetTime()
            outcome = termination.OptionalOutcome(True, started_at,
                                                  ended_at)
        except SignalUnwind:
            ended_at = yield GetTime()
            outcome = termination.OptionalOutcome(False, started_at,
                                                  ended_at)
        return outcome

    monkeypatch.setattr(termination.SigjmpTermination, "setup",
                        leaky_setup)
    monkeypatch.setattr(termination.SigjmpTermination, "run", leaky_run)


def _lost_wakeup(monkeypatch):
    """cond_signal pops the waiter but never makes it runnable."""

    def deaf_wake(self, cond):
        if cond.waiters:
            cond.waiters.popleft()
        return None

    monkeypatch.setattr(kernel_mod.Kernel, "_wake_cond_waiter",
                        deaf_wake)


def _timer_skew(monkeypatch):
    """Armed timers fire one millisecond late."""
    original = kernel_mod.Kernel._sys_timer_settime

    def skewed(self, thread, request, cost):
        if request.at is not None:
            request.at = request.at + MSEC
        return original(self, thread, request, cost)

    monkeypatch.setattr(kernel_mod.Kernel, "_sys_timer_settime", skewed)


MUTATIONS = {
    "fifo_inversion": (_fifo_inversion, {"fifo_order", "event_mismatch"}),
    "broken_preemption": (
        _broken_preemption,
        {"priority_conformance", "event_mismatch", "time_skew"},
    ),
    "mask_leak": (_mask_leak, {"signal_mask"}),
    "lost_wakeup": (
        _lost_wakeup,
        {"liveness", "protocol_completeness", "crash"},
    ),
    "timer_skew": (_timer_skew, {"time_skew", "event_mismatch"}),
}


def _first_failure(max_seeds=SEED_SCAN):
    for seed in range(max_seeds):
        report = run_scenario(generate_scenario(seed))
        if not report.ok:
            return seed, report
    return None, None


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_planted_bug_is_caught_and_shrunk(name, monkeypatch):
    plant, expected_kinds = MUTATIONS[name]
    plant(monkeypatch)

    seed, report = _first_failure()
    assert report is not None, f"mutation {name!r} survived the fuzzer"
    kinds = set(report.failure_kinds())
    assert kinds & expected_kinds, (
        f"mutation {name!r} caught via {sorted(kinds)}, expected one of "
        f"{sorted(expected_kinds)}"
    )

    # shrink to a tiny scenario that still fails for the same reason
    # (some bugs inherently need several jobs — broken preemption only
    # shows once a release lands mid-execution — so only the task count
    # has a hard bound)
    small, runs = shrink_report(report)
    assert len(small.tasks) <= 3
    assert sum(task.n_jobs for task in small.tasks) <= 16

    # the artifact replays deterministically while the bug is planted
    artifact = make_artifact(run_scenario(small), shrink_runs=runs)
    first = replay_artifact(artifact)
    second = replay_artifact(artifact)
    assert set(first.failure_kinds()) & set(artifact["failure_kinds"])
    assert first.summary() == artifact["summary"]
    assert first.to_dict() == second.to_dict()

    # every planted bug fails at a known time, so the artifact's
    # snapshot sits before it, and replays it from there
    snapshot, info = divergence_snapshot(artifact)
    assert info["barrier_source"] == "failure_time"
    replayed, _payload = replay_from_snapshot(snapshot)
    assert replayed.failure_kinds() == artifact["failure_kinds"]


def test_unmutated_baseline_is_clean():
    seed, report = _first_failure(max_seeds=10)
    assert report is None, f"clean run failed at seed {seed}"
