"""Behavioural tests for the simulated kernel (dispatch, preemption, sync)."""

import pytest

from repro.simkernel import (
    ClockNanosleep,
    CondSignal,
    CondVar,
    CondWait,
    Compute,
    Exit,
    GetCpu,
    GetTime,
    Kernel,
    KernelThread,
    KTimer,
    Mutex,
    MutexLock,
    MutexUnlock,
    SchedPolicy,
    SchedSetAffinity,
    SchedSetScheduler,
    SchedYield,
    Sigaction,
    SIGALRM,
    ThreadState,
    TimerSettime,
    Topology,
    UnwindDisposition,
    MSEC,
    USEC,
)
from repro.simkernel.costmodel import CostModel
from repro.simkernel.cpu import uniform_share
from repro.simkernel.errors import (
    DeadlockError,
    SignalUnwind,
    SyscallError,
)
from repro.simkernel.syscalls import SetSignalMask, Spawn

pytestmark = pytest.mark.tier1


def make_kernel(n_cores=1, threads_per_core=1, **kwargs):
    kwargs.setdefault("share_fn", uniform_share)
    topology = Topology(n_cores, threads_per_core, **kwargs)
    return Kernel(topology)


# ---------------------------------------------------------------------------
# basic execution
# ---------------------------------------------------------------------------


def test_single_thread_computes_to_completion():
    kernel = make_kernel()
    finished = []

    def body(thread):
        yield Compute(10 * MSEC)
        finished.append((yield GetTime()))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert finished == [10 * MSEC]


def test_get_cpu_returns_affinity():
    kernel = make_kernel(2, 1)
    seen = []

    def body(thread):
        seen.append((yield GetCpu()))

    kernel.create_thread("t", body, cpu=1, priority=50)
    kernel.run_to_completion()
    assert seen == [1]


def test_threads_on_different_cores_run_in_parallel():
    kernel = make_kernel(2, 1)
    done = {}

    def body(thread):
        yield Compute(10 * MSEC)
        done[thread.name] = yield GetTime()

    kernel.create_thread("a", body, cpu=0, priority=50)
    kernel.create_thread("b", body, cpu=1, priority=50)
    kernel.run_to_completion()
    assert done["a"] == 10 * MSEC
    assert done["b"] == 10 * MSEC


def test_same_cpu_same_priority_fifo_serialization():
    kernel = make_kernel()
    done = {}

    def body(thread):
        yield Compute(10 * MSEC)
        done[thread.name] = yield GetTime()

    kernel.create_thread("first", body, cpu=0, priority=50)
    kernel.create_thread("second", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert done["first"] == 10 * MSEC
    assert done["second"] == 20 * MSEC


def test_cpu_time_accounting():
    kernel = make_kernel()

    def body(thread):
        yield Compute(7 * MSEC)

    thread = kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert thread.cpu_time == pytest.approx(7 * MSEC)
    assert thread.state is ThreadState.TERMINATED


def test_exit_syscall_terminates_immediately():
    kernel = make_kernel()
    after = []

    def body(thread):
        yield Exit()
        after.append("unreachable")

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert after == []


def test_spawn_syscall_starts_child():
    kernel = make_kernel(2, 1)
    log = []

    def child_body(thread):
        yield Compute(1 * MSEC)
        log.append("child")

    def parent(thread):
        child = KernelThread("child", child_body, cpu=1, priority=40)
        spawned = yield Spawn(child)
        assert spawned is child
        log.append("parent")

    kernel.create_thread("parent", parent, cpu=0, priority=50)
    kernel.run_to_completion()
    assert "child" in log and "parent" in log


# ---------------------------------------------------------------------------
# priorities and preemption
# ---------------------------------------------------------------------------


def test_higher_priority_preempts_lower():
    kernel = make_kernel()
    finish = {}

    def low(thread):
        yield Compute(100 * MSEC)
        finish["low"] = yield GetTime()

    def high(thread):
        yield ClockNanosleep(20 * MSEC)
        yield Compute(30 * MSEC)
        finish["high"] = yield GetTime()

    kernel.create_thread("low", low, cpu=0, priority=10)
    kernel.create_thread("high", high, cpu=0, priority=90)
    kernel.run_to_completion()
    assert finish["high"] == pytest.approx(50 * MSEC)
    assert finish["low"] == pytest.approx(130 * MSEC)


def test_equal_priority_wakeup_does_not_preempt():
    """SCHED_FIFO preempts only from a strictly higher level: a peer
    that wakes at the running thread's level waits for it."""
    kernel = make_kernel()
    finish = {}

    def peer(thread):
        yield ClockNanosleep(10 * MSEC)
        yield Compute(10 * MSEC)
        finish["peer"] = yield GetTime()

    def runner(thread):
        yield Compute(30 * MSEC)
        finish["runner"] = yield GetTime()

    kernel.create_thread("peer", peer, cpu=0, priority=50)
    runner_thread = kernel.create_thread("runner", runner, cpu=0,
                                         priority=50)
    kernel.run_to_completion()
    assert finish == {"runner": 30 * MSEC, "peer": 40 * MSEC}
    assert runner_thread.preemptions == 0


def test_preempted_thread_resumes_before_equal_priority_peers():
    """SCHED_FIFO: a preempted thread returns to the head of its level."""
    kernel = make_kernel()
    order = []

    def victim(thread):
        yield Compute(40 * MSEC)
        order.append("victim")

    def peer(thread):
        # becomes ready while victim is preempted by the interloper
        yield ClockNanosleep(10 * MSEC)
        yield Compute(10 * MSEC)
        order.append("peer")

    def interloper(thread):
        yield ClockNanosleep(5 * MSEC)
        yield Compute(20 * MSEC)
        order.append("interloper")

    kernel.create_thread("victim", victim, cpu=0, priority=50)
    kernel.create_thread("peer", peer, cpu=0, priority=50)
    kernel.create_thread("interloper", interloper, cpu=0, priority=90)
    kernel.run_to_completion()
    assert order == ["interloper", "victim", "peer"]


def test_preemption_counter():
    kernel = make_kernel()

    def low(thread):
        yield Compute(50 * MSEC)

    def high(thread):
        yield ClockNanosleep(10 * MSEC)
        yield Compute(10 * MSEC)

    low_thread = kernel.create_thread("low", low, cpu=0, priority=10)
    kernel.create_thread("high", high, cpu=0, priority=90)
    kernel.run_to_completion()
    assert low_thread.preemptions == 1


def test_sched_other_runs_below_fifo():
    kernel = make_kernel()
    order = []

    def other(thread):
        yield Compute(5 * MSEC)
        order.append("other")

    def fifo(thread):
        yield Compute(20 * MSEC)
        order.append("fifo")

    kernel.create_thread("other", other, cpu=0, policy=SchedPolicy.OTHER)
    kernel.create_thread("fifo", fifo, cpu=0, priority=1)
    kernel.run_to_completion()
    assert order == ["fifo", "other"]


def test_sched_other_thread_yields_to_any_fifo_arrival():
    """A SCHED_OTHER thread runs at pseudo-priority 0, below every
    SCHED_FIFO level, whatever level it held before its policy
    changed."""
    kernel = make_kernel()
    order = []

    def demoted(thread):
        yield SchedSetScheduler(SchedPolicy.OTHER, 0)
        yield Compute(20 * MSEC)
        order.append("demoted")

    def fifo(thread):
        yield ClockNanosleep(5 * MSEC)
        yield Compute(5 * MSEC)
        order.append("fifo")

    kernel.create_thread("fifo", fifo, cpu=0, priority=10)
    demoted_thread = kernel.create_thread("demoted", demoted, cpu=0,
                                          priority=90)
    kernel.run_to_completion()
    assert demoted_thread.priority == 90
    assert order == ["fifo", "demoted"]


def test_sched_yield_round_robins_same_priority():
    kernel = make_kernel()
    order = []

    def yielder(thread):
        yield Compute(5 * MSEC)
        order.append("yielder-part1")
        yield SchedYield()
        yield Compute(5 * MSEC)
        order.append("yielder-part2")

    def peer(thread):
        yield Compute(5 * MSEC)
        order.append("peer")

    kernel.create_thread("yielder", yielder, cpu=0, priority=50)
    kernel.create_thread("peer", peer, cpu=0, priority=50)
    kernel.run_to_completion()
    assert order == ["yielder-part1", "peer", "yielder-part2"]


def test_setscheduler_changes_priority():
    kernel = make_kernel()
    order = []

    def demoter(thread):
        yield Compute(5 * MSEC)
        yield SchedSetScheduler(SchedPolicy.FIFO, 10)
        yield Compute(20 * MSEC)
        order.append("demoter")

    def riser(thread):
        yield ClockNanosleep(6 * MSEC)
        yield Compute(5 * MSEC)
        order.append("riser")

    kernel.create_thread("demoter", demoter, cpu=0, priority=90)
    kernel.create_thread("riser", riser, cpu=0, priority=50)
    kernel.run_to_completion()
    assert order == ["riser", "demoter"]


def test_setaffinity_migrates_running_thread():
    kernel = make_kernel(2, 1)
    cpus = []

    def body(thread):
        cpus.append((yield GetCpu()))
        yield SchedSetAffinity(1)
        cpus.append((yield GetCpu()))

    kernel.create_thread("migrant", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert cpus == [0, 1]


def test_setaffinity_invalid_cpu_rejected():
    kernel = make_kernel()

    def body(thread):
        yield SchedSetAffinity(7)

    kernel.create_thread("t", body, cpu=0, priority=50)
    with pytest.raises(Exception):
        kernel.run_to_completion()


# ---------------------------------------------------------------------------
# sleeping
# ---------------------------------------------------------------------------


def test_clock_nanosleep_absolute():
    kernel = make_kernel()
    woke = []

    def body(thread):
        yield ClockNanosleep(25 * MSEC)
        woke.append((yield GetTime()))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert woke == [25 * MSEC]


def test_clock_nanosleep_past_deadline_returns_immediately():
    kernel = make_kernel()
    woke = []

    def body(thread):
        yield Compute(10 * MSEC)
        yield ClockNanosleep(5 * MSEC)  # already passed
        woke.append((yield GetTime()))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert woke == [10 * MSEC]


def test_sleeping_thread_frees_cpu():
    kernel = make_kernel()
    order = []

    def sleeper(thread):
        yield ClockNanosleep(50 * MSEC)
        order.append("sleeper")

    def worker(thread):
        yield Compute(10 * MSEC)
        order.append("worker")

    kernel.create_thread("sleeper", sleeper, cpu=0, priority=90)
    kernel.create_thread("worker", worker, cpu=0, priority=10)
    kernel.run_to_completion()
    assert order == ["worker", "sleeper"]


# ---------------------------------------------------------------------------
# SMT rate sharing
# ---------------------------------------------------------------------------


def test_smt_siblings_share_core_throughput():
    kernel = make_kernel(1, 2)
    done = {}

    def body(thread):
        yield Compute(10 * MSEC)
        done[thread.name] = yield GetTime()

    kernel.create_thread("a", body, cpu=0, priority=50)
    kernel.create_thread("b", body, cpu=1, priority=50)
    kernel.run_to_completion()
    # two siblings share the core evenly: 10ms of work takes 20ms wall
    assert done["a"] == pytest.approx(20 * MSEC)
    assert done["b"] == pytest.approx(20 * MSEC)


def test_smt_rate_rises_when_sibling_finishes():
    kernel = make_kernel(1, 2)
    done = {}

    def short(thread):
        yield Compute(10 * MSEC)
        done["short"] = yield GetTime()

    def long(thread):
        yield Compute(30 * MSEC)
        done["long"] = yield GetTime()

    kernel.create_thread("short", short, cpu=0, priority=50)
    kernel.create_thread("long", long, cpu=1, priority=50)
    kernel.run_to_completion()
    # both share until t=20ms (10ms work each), then long runs alone:
    # remaining 20ms of work at full rate -> finishes at 40ms
    assert done["short"] == pytest.approx(20 * MSEC)
    assert done["long"] == pytest.approx(40 * MSEC)


def test_background_load_steals_share_when_weighted():
    topology = Topology(1, 2, share_fn=uniform_share, background_weight=1.0)
    topology.set_background_load(cpu_ids=[1])
    kernel = Kernel(topology)
    done = []

    def body(thread):
        yield Compute(10 * MSEC)
        done.append((yield GetTime()))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert done == [pytest.approx(20 * MSEC)]


def test_background_load_ignored_when_weight_zero():
    topology = Topology(1, 2, share_fn=uniform_share, background_weight=0.0)
    topology.set_background_load(cpu_ids=[1])
    kernel = Kernel(topology)
    done = []

    def body(thread):
        yield Compute(10 * MSEC)
        done.append((yield GetTime()))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert done == [pytest.approx(10 * MSEC)]


def _background_walks(monkeypatch, topology):
    """Run the Section V-A task (np = 57, one-by-one, CPU-Memory load,
    3 jobs) on ``topology``; count the SMT-rate path's walks over a
    core's hardware threads for its background count."""
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
    from repro.core.middleware import RTSeed
    from repro.hardware.loads import BackgroundLoad

    walks = []
    original = Kernel._background_count

    def counted(self, core):
        if core.n_background_flagged:
            walks.append(core.core_id)
        return original(self, core)

    monkeypatch.setattr(Kernel, "_background_count", counted)
    middleware = RTSeed(topology=topology, load=BackgroundLoad.CPU_MEMORY)
    middleware.add_task(make_eval_task(57), n_jobs=3, cpu=0,
                        policy="one_by_one",
                        optional_deadline=OPTIONAL_DEADLINE)
    middleware.run()
    return len(walks)


def test_unweighted_evaluation_topology_walks_no_sibling(monkeypatch):
    """On the evaluation topology (``background_weight`` 0) the load
    cannot move a rate, so no compute start may walk the siblings."""
    from repro.hardware.xeonphi import xeon_phi_topology

    assert _background_walks(monkeypatch, xeon_phi_topology()) == 0


def test_weighted_topology_keeps_the_sibling_walk(monkeypatch):
    from repro.hardware.xeonphi import xeon_phi_topology

    topology = xeon_phi_topology(smt_accurate=True)
    assert _background_walks(monkeypatch, topology) > 0


# ---------------------------------------------------------------------------
# mutexes and condition variables
# ---------------------------------------------------------------------------


def test_mutex_mutual_exclusion_fifo():
    kernel = make_kernel(3, 1)
    mutex = Mutex()
    order = []

    def body(thread):
        yield MutexLock(mutex)
        order.append(f"{thread.name}-in")
        yield Compute(10 * MSEC)
        order.append(f"{thread.name}-out")
        yield MutexUnlock(mutex)

    kernel.create_thread("a", body, cpu=0, priority=50)
    kernel.create_thread("b", body, cpu=1, priority=50)
    kernel.create_thread("c", body, cpu=2, priority=50)
    kernel.run_to_completion()
    assert order == ["a-in", "a-out", "b-in", "b-out", "c-in", "c-out"]


def test_mutex_relock_rejected():
    kernel = make_kernel()
    mutex = Mutex()

    def body(thread):
        yield MutexLock(mutex)
        yield MutexLock(mutex)

    kernel.create_thread("t", body, cpu=0, priority=50)
    with pytest.raises(SyscallError):
        kernel.run_to_completion()


def test_mutex_unlock_not_owner_rejected():
    kernel = make_kernel()
    mutex = Mutex()

    def body(thread):
        yield MutexUnlock(mutex)

    kernel.create_thread("t", body, cpu=0, priority=50)
    with pytest.raises(SyscallError):
        kernel.run_to_completion()


def test_cond_wait_requires_mutex_held():
    kernel = make_kernel()
    mutex, cond = Mutex(), CondVar()

    def body(thread):
        yield CondWait(cond, mutex)

    kernel.create_thread("t", body, cpu=0, priority=50)
    with pytest.raises(SyscallError):
        kernel.run_to_completion()


class _SubclassedGetTime(GetTime):
    pass


@pytest.mark.parametrize("request_", ["bogus", _SubclassedGetTime()],
                         ids=["not_a_syscall", "syscall_subclass"])
def test_unsupported_request_rejected(request_):
    """Dispatch is by exact syscall type: anything else is refused."""
    kernel = make_kernel()

    def body(thread):
        yield request_

    kernel.create_thread("t", body, cpu=0, priority=50)
    with pytest.raises(SyscallError,
                       match="'t' yielded unsupported request"):
        kernel.run_to_completion()


def test_cond_signal_wakes_one_waiter_fifo():
    kernel = make_kernel(3, 1)
    mutex, cond = Mutex(), CondVar()
    order = []

    def waiter(thread):
        yield MutexLock(mutex)
        yield CondWait(cond, mutex)
        yield MutexUnlock(mutex)
        order.append(thread.name)

    def signaler(thread):
        yield ClockNanosleep(10 * MSEC)
        woken = yield CondSignal(cond)
        assert woken == 1
        yield ClockNanosleep(20 * MSEC)
        woken = yield CondSignal(cond)
        assert woken == 1

    kernel.create_thread("w1", waiter, cpu=0, priority=50)
    kernel.create_thread("w2", waiter, cpu=1, priority=50)
    kernel.create_thread("sig", signaler, cpu=2, priority=50)
    kernel.run_to_completion()
    assert order == ["w1", "w2"]


def test_cond_signal_without_waiter_returns_zero():
    kernel = make_kernel()
    cond = CondVar()
    results = []

    def body(thread):
        results.append((yield CondSignal(cond)))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert results == [0]


def test_cond_wait_releases_mutex_while_blocked():
    kernel = make_kernel(2, 1)
    mutex, cond = Mutex(), CondVar()
    order = []

    def waiter(thread):
        yield MutexLock(mutex)
        order.append("waiter-locked")
        yield CondWait(cond, mutex)
        order.append("waiter-woke")
        yield MutexUnlock(mutex)

    def other(thread):
        yield ClockNanosleep(5 * MSEC)
        yield MutexLock(mutex)  # succeeds because waiter released it
        order.append("other-locked")
        yield MutexUnlock(mutex)
        yield CondSignal(cond)

    kernel.create_thread("waiter", waiter, cpu=0, priority=50)
    kernel.create_thread("other", other, cpu=1, priority=50)
    kernel.run_to_completion()
    assert order == ["waiter-locked", "other-locked", "waiter-woke"]


def test_deadlock_detection_reports_blocked_thread():
    kernel = make_kernel()
    mutex, cond = Mutex(), CondVar()

    def body(thread):
        yield MutexLock(mutex)
        yield CondWait(cond, mutex)  # nobody will ever signal

    kernel.create_thread("stuck", body, cpu=0, priority=50)
    with pytest.raises(DeadlockError) as excinfo:
        kernel.run_to_completion()
    assert "stuck" in str(excinfo.value)
    assert len(excinfo.value.blocked_threads) == 1


# ---------------------------------------------------------------------------
# timers and signal-driven termination
# ---------------------------------------------------------------------------


def _unwind_body_factory(kernel, record, arm_at, work, restore_mask=True):
    def body(thread):
        timer = KTimer(thread)
        yield Sigaction(SIGALRM, UnwindDisposition(restore_mask=restore_mask))
        try:
            yield TimerSettime(timer, arm_at)
            yield Compute(work)
            yield TimerSettime(timer, None)
            record.append(("completed", (yield GetTime())))
        except SignalUnwind:
            record.append(("terminated", (yield GetTime())))

    return body


def test_timer_terminates_overrunning_compute():
    kernel = make_kernel()
    record = []
    body = _unwind_body_factory(kernel, record, arm_at=30 * MSEC,
                                work=100 * MSEC)
    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert record == [("terminated", 30 * MSEC)]


def test_timer_disarmed_when_work_completes_first():
    kernel = make_kernel()
    record = []
    body = _unwind_body_factory(kernel, record, arm_at=100 * MSEC,
                                work=10 * MSEC)
    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert record == [("completed", 10 * MSEC)]


def test_timer_expiry_counts():
    kernel = make_kernel()
    timers = []

    def body(thread):
        timer = KTimer(thread)
        timers.append(timer)
        yield Sigaction(SIGALRM, UnwindDisposition())
        try:
            yield TimerSettime(timer, 5 * MSEC)
            yield Compute(50 * MSEC)
        except SignalUnwind:
            pass

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert timers[0].expirations == 1
    assert not timers[0].armed


def test_unrestored_mask_blocks_next_timer_signal():
    """Table I: try/catch termination loses the next job's timer interrupt."""
    kernel = make_kernel()
    record = []

    def body(thread):
        timer = KTimer(thread)
        yield Sigaction(SIGALRM, UnwindDisposition(restore_mask=False))
        for job in range(2):
            try:
                yield TimerSettime(timer, (yield GetTime()) + 10 * MSEC)
                yield Compute(50 * MSEC)
                record.append((job, "completed"))
            except SignalUnwind:
                record.append((job, "terminated"))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    # job 0 terminated; job 1's SIGALRM stayed blocked -> work ran to the end
    assert record == [(0, "terminated"), (1, "completed")]


def test_restored_mask_allows_next_timer_signal():
    kernel = make_kernel()
    record = []

    def body(thread):
        timer = KTimer(thread)
        yield Sigaction(SIGALRM, UnwindDisposition(restore_mask=True))
        for job in range(2):
            try:
                yield TimerSettime(timer, (yield GetTime()) + 10 * MSEC)
                yield Compute(50 * MSEC)
                record.append((job, "completed"))
            except SignalUnwind:
                record.append((job, "terminated"))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert record == [(0, "terminated"), (1, "terminated")]


def test_blocked_signal_delivered_after_unblock():
    kernel = make_kernel()
    record = []

    def body(thread):
        timer = KTimer(thread)
        yield Sigaction(SIGALRM, UnwindDisposition(restore_mask=True))
        yield SetSignalMask({SIGALRM})
        yield TimerSettime(timer, 5 * MSEC)
        yield Compute(20 * MSEC)  # timer fires at 5ms but is blocked
        record.append(("survived", (yield GetTime())))
        try:
            yield SetSignalMask(set())  # pending SIGALRM now deliverable
            yield Compute(100 * MSEC)
            record.append(("completed", (yield GetTime())))
        except SignalUnwind:
            record.append(("terminated", (yield GetTime())))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert record[0] == ("survived", 20 * MSEC)
    assert record[1][0] == "terminated"
    assert record[1][1] == pytest.approx(20 * MSEC)


def test_signal_interrupts_sleep():
    kernel = make_kernel()
    record = []

    def body(thread):
        timer = KTimer(thread)
        yield Sigaction(SIGALRM, UnwindDisposition())
        try:
            yield TimerSettime(timer, 10 * MSEC)
            yield ClockNanosleep(500 * MSEC)
            record.append("slept")
        except SignalUnwind:
            record.append(("interrupted", (yield GetTime())))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert record == [("interrupted", 10 * MSEC)]


def test_unwind_escaping_thread_body_terminates_thread():
    kernel = make_kernel()

    def body(thread):
        timer = KTimer(thread)
        yield Sigaction(SIGALRM, UnwindDisposition())
        yield TimerSettime(timer, 5 * MSEC)
        yield Compute(50 * MSEC)  # unwind not caught anywhere

    thread = kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert thread.state is ThreadState.TERMINATED


def test_interrupted_work_is_abandoned_not_resumed():
    """A terminated Compute's leftover work must not execute later."""
    kernel = make_kernel()
    record = []

    def body(thread):
        timer = KTimer(thread)
        yield Sigaction(SIGALRM, UnwindDisposition())
        try:
            yield TimerSettime(timer, 10 * MSEC)
            yield Compute(1000 * MSEC)
        except SignalUnwind:
            pass
        start = yield GetTime()
        yield Compute(5 * MSEC)
        record.append((yield GetTime()) - start)

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert record == [pytest.approx(5 * MSEC)]


# ---------------------------------------------------------------------------
# cost model integration
# ---------------------------------------------------------------------------


class FlatCostModel(CostModel):
    def __init__(self, switch=0.0, signal=0.0, handler=0.0, wakeup=0.0):
        self._switch = switch
        self._signal = signal
        self._handler = handler
        self._wakeup = wakeup

    def context_switch(self, cpu, prev_thread, next_thread, kernel):
        return self._switch

    def cond_signal(self, signaler, woken_thread, kernel):
        return self._signal

    def timer_handler(self, thread, kernel):
        return self._handler

    def wakeup_latency(self, thread, kernel, kind="sync"):
        return self._wakeup


def test_context_switch_cost_delays_start():
    topology = Topology(1, 1, share_fn=uniform_share)
    kernel = Kernel(topology, cost_model=FlatCostModel(switch=1 * MSEC))
    done = []

    def body(thread):
        yield Compute(10 * MSEC)
        done.append((yield GetTime()))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert done == [pytest.approx(11 * MSEC)]


def test_cond_signal_cost_charged_to_signaler():
    topology = Topology(2, 1, share_fn=uniform_share)
    kernel = Kernel(topology, cost_model=FlatCostModel(signal=2 * MSEC))
    mutex, cond = Mutex(), CondVar()
    times = {}

    def waiter(thread):
        yield MutexLock(mutex)
        yield CondWait(cond, mutex)
        yield MutexUnlock(mutex)

    def signaler(thread):
        yield ClockNanosleep(10 * MSEC)
        yield CondSignal(cond)
        times["after_signal"] = yield GetTime()

    kernel.create_thread("waiter", waiter, cpu=0, priority=50)
    kernel.create_thread("signaler", signaler, cpu=1, priority=50)
    kernel.run_to_completion()
    assert times["after_signal"] == pytest.approx(12 * MSEC)


def test_wakeup_latency_delays_sleep_return():
    topology = Topology(1, 1, share_fn=uniform_share)
    kernel = Kernel(topology, cost_model=FlatCostModel(wakeup=3 * MSEC))
    woke = []

    def body(thread):
        yield ClockNanosleep(10 * MSEC)
        woke.append((yield GetTime()))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert woke == [pytest.approx(13 * MSEC)]


def test_timer_handler_cost_delays_termination_observation():
    topology = Topology(1, 1, share_fn=uniform_share)
    kernel = Kernel(topology, cost_model=FlatCostModel(handler=4 * MSEC))
    record = []

    def body(thread):
        timer = KTimer(thread)
        yield Sigaction(SIGALRM, UnwindDisposition())
        try:
            yield TimerSettime(timer, 10 * MSEC)
            yield Compute(100 * MSEC)
        except SignalUnwind:
            record.append((yield GetTime()))

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert record == [pytest.approx(14 * MSEC)]


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_on_event_trace_hook():
    kernel = make_kernel()
    events = []
    kernel.probes.subscribe(
        lambda topic, time, data: events.append(topic[len("kernel."):]),
        topics=("kernel.*",),
    )

    def body(thread):
        yield Compute(1 * MSEC)

    kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run_to_completion()
    assert "spawn" in events
    assert "dispatch" in events
    assert "thread_exit" in events


def _request_reuse_run(shared):
    """Three threads on two loaded cores contend for one mutex, mask and
    unmask ``SIGALRM`` and read the clock, under the noisy Xeon Phi
    cost model.  ``shared`` yields one instance of each request every
    time; otherwise every yield builds a fresh one.  Returns the clock
    reads and the kernel probe stream."""
    from repro.hardware.loads import BackgroundLoad
    from repro.hardware.overheads import XeonPhiCostModel

    topology = Topology(2, 2, share_fn=uniform_share, background_weight=0.0)
    topology.set_background_load()
    kernel = Kernel(topology, cost_model=XeonPhiCostModel(
        topology, BackgroundLoad.CPU_MEMORY, seed=11))
    events = []
    kernel.probes.subscribe(
        lambda topic, time, data: events.append(
            (topic, time, sorted(data.items()))),
        topics=("kernel.*",),
    )
    mutex = Mutex("shared")
    fresh = {
        "lock": lambda: MutexLock(mutex),
        "unlock": lambda: MutexUnlock(mutex),
        "time": GetTime,
        "block": lambda: SetSignalMask({SIGALRM}),
        "unblock": lambda: SetSignalMask(set()),
    }
    once = {name: make() for name, make in fresh.items()}

    def request(name):
        return once[name] if shared else fresh[name]()

    reads = []

    def body(thread):
        for job in range(20):
            yield request("block")
            yield request("lock")
            reads.append((thread.name, job, (yield request("time"))))
            yield Compute(30 * USEC)
            yield request("unlock")
            yield request("unblock")
            reads.append((thread.name, job, (yield request("time"))))

    for name, cpu in (("a", 0), ("b", 1), ("c", 2)):
        kernel.create_thread(name, body, cpu=cpu, priority=50)
    kernel.run_to_completion()
    return reads, events


def test_one_request_instance_may_be_yielded_many_times():
    """The kernel reads a request and never stores or mutates it, so a
    request yielded again and again runs exactly as fresh instances
    do: the same results, priced calls and probe stream."""
    shared = _request_reuse_run(shared=True)
    assert shared == _request_reuse_run(shared=False)
    reads, events = shared
    assert len(reads) == 3 * 20 * 2
    assert any(topic == "kernel.block" for topic, _, _ in events)


def test_double_spawn_rejected():
    kernel = make_kernel()

    def body(thread):
        yield Compute(1 * MSEC)

    thread = kernel.create_thread("t", body, cpu=0, priority=50)
    with pytest.raises(Exception):
        kernel.spawn(thread)
    kernel.run_to_completion()


def test_kill_running_thread():
    kernel = make_kernel()

    def body(thread):
        yield Compute(100 * MSEC)

    thread = kernel.create_thread("t", body, cpu=0, priority=50)
    kernel.run(until=10 * MSEC)
    kernel.kill(thread)
    assert thread.state is ThreadState.TERMINATED
    kernel.run()
