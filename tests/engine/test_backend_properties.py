"""Property-based equivalence of the execution core and its model.

Whatever operation sequence the kernel throws at them, the production
structures must be *observationally identical* to the checked
object-per-record model in ``tests/engine/reference.py`` —

* ready queues: same pops, same lengths, same iteration order under
  arbitrary enqueue / at-head enqueue / dequeue / pop interleavings;
* event engines: same callback order, clock and counters under
  arbitrary schedule / cancel / step / run interleavings, including
  callbacks that schedule further events and cancel storms that cross
  the lazy-compaction threshold;
* cost-model noise: the batched (vectorized-chunk) stream yields
  bit-identical floats to scalar draws from the same seed, and per-CPU
  stall multipliers compose *after* the draw, never perturbing the
  stream (the RNG-order contract of :mod:`repro.hardware.noise`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import Engine
from repro.engine.readyqueue import IndexedLevelQueue
from repro.hardware.noise import BatchedLognormalStream
from repro.hardware.overheads import XeonPhiCostModel
from repro.simkernel.cpu import Topology, uniform_share
from tests.engine.reference import (
    ReferenceEngine,
    ReferenceLevelQueue,
    scalar_noisy,
)

pytestmark = pytest.mark.tier1

MIN_PRIO, MAX_PRIO = 1, 8

# (kind, prio, at_head): 0=enqueue, 1=dequeue-some-live, 2=pop
queue_ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(MIN_PRIO, MAX_PRIO),
              st.booleans()),
    min_size=1, max_size=80,
)


@settings(max_examples=120, deadline=None)
@given(ops=queue_ops)
def test_fifo_queues_observationally_identical(ops):
    model = ReferenceLevelQueue(MIN_PRIO, MAX_PRIO)
    queue = IndexedLevelQueue(MIN_PRIO, MAX_PRIO)
    counter = 0
    for kind, prio, at_head in ops:
        if kind == 0:
            counter += 1
            item = f"i{counter}"
            model.enqueue(item, prio, at_head=at_head)
            queue.enqueue(item, prio, at_head=at_head)
        elif kind == 1:
            live = list(model)
            if not live:
                continue
            victim = live[prio % len(live)]
            level = next(
                p for p in range(MIN_PRIO, MAX_PRIO + 1)
                if victim in model.items_at(p)
            )
            model.dequeue(victim, level)
            queue.dequeue(victim, level)
        else:
            if not model:
                assert not queue
                continue
            assert model.pop() == queue.pop()
        assert len(model) == len(queue)
        assert model.highest_priority() == queue.highest_priority()
        assert model.peek() == queue.peek()
    assert list(model) == list(queue)
    for prio in range(MIN_PRIO, MAX_PRIO + 1):
        assert model.items_at(prio) == queue.items_at(prio)


# (kind, a, b): 0=schedule(delay=a, prio=b-2, respawn if b odd),
# 1=cancel handle a, 2=step, 3=run(until=now+a)
engine_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 4)),
    min_size=1, max_size=60,
)


def _drive(engine, ops):
    """Apply ``ops`` to ``engine`` deterministically; return the
    observation log."""
    log = []
    handles = []
    counter = [0]

    def make_callback(tag, respawn):
        def callback():
            log.append(("fire", tag, engine.now,
                        engine.events_processed))
            if respawn:
                # a callback that schedules more work mid-drain
                handles.append(engine.schedule_at(
                    engine.now + tag % 3,
                    make_callback(tag + 1000, False),
                    priority=tag % 2,
                ))
        return callback

    for kind, a, b in ops:
        if kind == 0:
            counter[0] += 1
            handles.append(engine.schedule_at(
                engine.now + a, make_callback(counter[0], b % 2 == 1),
                priority=b - 2,
            ))
        elif kind == 1:
            if handles:
                engine.cancel(handles[a % len(handles)])
        elif kind == 2:
            log.append(("step", engine.step(), engine.now))
        else:
            log.append(("run", engine.run(until=engine.now + a),
                        engine.now))
    log.append(("drain", engine.run(), engine.now,
                engine.events_processed, engine.pending_count))
    return log


@settings(max_examples=100, deadline=None)
@given(ops=engine_ops)
def test_engines_observationally_identical(ops):
    assert _drive(Engine(), ops) == _drive(ReferenceEngine(), ops)


@pytest.mark.parametrize("cancel_stride", [2, 3])
def test_compaction_equivalence_under_cancel_storm(cancel_stride):
    """Enough cancels to cross the lazy-compaction threshold (64) on
    both engines; survivors must drain identically, and the production
    engine's in-place rebuild must not lose or resurrect records."""
    logs = {}
    for engine_cls in (ReferenceEngine, Engine):
        engine = engine_cls()
        fired = []
        handles = [
            engine.schedule_at(float(i % 17), lambda i=i: fired.append(i),
                               priority=i % 3)
            for i in range(300)
        ]
        for i in range(0, 300, cancel_stride):
            engine.cancel(handles[i])
            engine.cancel(handles[i])  # double-cancel must stay no-op
        executed = engine.run()
        logs[engine_cls] = (fired, executed, engine.now,
                            engine.events_processed,
                            engine.pending_count)
    assert logs[Engine] == logs[ReferenceEngine]


sigma_values = st.sampled_from([0.01, 0.05, 0.3, 1.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**20), sigma=sigma_values,
       n=st.integers(1, 200), chunk=st.integers(1, 64))
def test_batched_noise_stream_matches_scalar_draws(seed, sigma, n, chunk):
    """The RNG-order contract: ``rng.lognormal(0, s, chunk)`` consumed
    one element at a time is bit-identical to scalar draws from an
    identically seeded generator — for any chunk size, including chunks
    that straddle the total draw count."""
    stream = BatchedLognormalStream(
        np.random.default_rng(seed), sigma, chunk=chunk
    )
    scalar_rng = np.random.default_rng(seed)
    for _ in range(n):
        drawn = stream.next()
        assert type(drawn) is float
        assert drawn.hex() == float(scalar_rng.lognormal(0.0, sigma)).hex()


class _Stall:
    """Duck-typed stall provider: fixed multiplier on CPU 0."""

    def __init__(self, factor):
        self.factor = factor

    def multiplier(self, cpu):
        return self.factor if cpu == 0 else 1.0


def _price_sequence(scalar=False, stall=None, seed=7, n=120):
    """Draw ``n`` priced syscall costs alternating between CPUs 0/1,
    from the batched stream or (``scalar``) the model's scalar draws."""

    class _Thread:
        def __init__(self, cpu):
            self.cpu = cpu

    topology = Topology(2, 1, share_fn=uniform_share,
                        background_weight=0.0)
    with pytest.MonkeyPatch.context() as patch:
        if scalar:
            patch.setattr(XeonPhiCostModel, "_noisy", scalar_noisy)
        model = XeonPhiCostModel(topology, seed=seed)
        model.stall = stall
        return [
            model.syscall(None, _Thread(i % 2), None) for i in range(n)
        ]


@settings(max_examples=25, deadline=None)
@given(factor=st.floats(1.0, 8.0, allow_nan=False))
def test_stall_multipliers_compose_after_the_draw(factor):
    """Installing a stall provider must not perturb the seeded noise
    stream: stalled costs are exactly ``unstalled * multiplier`` on the
    stalled CPU and exactly unchanged elsewhere — on the batched stream
    and the scalar model alike, and identically across them."""
    baseline = _price_sequence(scalar=True)
    assert _price_sequence() == baseline

    stall = _Stall(factor)
    for scalar in (True, False):
        stalled = _price_sequence(scalar=scalar, stall=stall)
        for i, (plain, priced) in enumerate(zip(baseline, stalled)):
            if i % 2 == 0:  # CPU 0: inside the stall window
                assert priced == plain * factor
            else:  # CPU 1: untouched
                assert priced == plain
