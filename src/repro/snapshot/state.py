"""Complete simulation-state capture for ``rtseed-snapshot/3``.

:func:`capture_state` walks a live :class:`~repro.simkernel.kernel.
Kernel` and produces one JSON-ready dict covering every piece of state
the snapshot format names: the engine event queue (read through
:meth:`repro.engine.events.Engine.records`), the per-CPU ready queues,
kernel threads with their signal masks and pending signals, armed
timers, core speeds, the cost model's noise-stream RNG state (the
generator and the :class:`~repro.hardware.noise.
BatchedLognormalStream` cursor), plus whatever *extras* the owning
program contributes (resilience controllers, trading feed/broker
state, the passive flight-recorder ring — see
:mod:`repro.snapshot.programs`).

Determinism contract
--------------------

Two captures of the *same simulation instant* — whether the run reached
it uninterrupted or via a restore's deterministic fast-forward — must
serialize to identical bytes under ``json.dumps(..., sort_keys=True)``.
That is what makes :func:`state_digest` usable as a restore
attestation.  The rules that keep the capture on-contract:

* nothing address- or identity-based ever enters the dict (no ``id()``,
  no default ``repr`` of objects, no process-global counters such as
  ``timer_id``);
* collections with unordered semantics (signal masks, armed timers)
  are sorted by stable keys;
* callbacks — arbitrary closures bound onto kernel objects — are
  rendered as *descriptors* (:func:`describe_callback`): the function's
  qualified name plus stable descriptions of its bound arguments.
  A descriptor cannot be called, but it is a deterministic fingerprint
  of the callback's identity, which is all attestation needs (restore
  re-executes the program; it never rehydrates callbacks from the
  document — see ``docs/SNAPSHOTS.md``).
"""

import functools
import hashlib
import json


def describe_value(value):
    """Stable, JSON-safe description of a callback argument."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    tid = getattr(value, "tid", None)
    name = getattr(value, "name", None)
    if tid is not None and isinstance(name, str):
        return f"thread:{name}"
    if isinstance(name, str):
        return f"{type(value).__name__}:{name}"
    return type(value).__name__


def describe_callback(callback):
    """Stable descriptor for a scheduled callback (never invokable)."""
    if isinstance(callback, functools.partial):
        inner = describe_callback(callback.func)
        bound = ",".join(describe_value(arg) for arg in callback.args)
        return f"partial({inner})[{bound}]"
    bound_self = getattr(callback, "__self__", None)
    if bound_self is not None:
        return (f"{describe_value(bound_self)}"
                f".{callback.__func__.__qualname__}")
    qualname = getattr(callback, "__qualname__", None)
    if qualname is not None:
        return qualname
    return type(callback).__name__


def _capture_heap(engine):
    """Canonical event-queue rows.

    Rows are ``[time, priority, seq, status, callback-descriptor]``
    sorted by ``(time, priority, seq)`` — the heap's partial order is
    an implementation detail, the sorted multiset is the state.
    Lazily-cancelled entries are included (status ``"cancelled"``):
    they are part of the physical state the deterministic replay must
    reproduce (compaction timing depends on them).
    """
    rows = [
        [time, priority, seq, status, describe_callback(callback)]
        for time, priority, seq, status, callback in engine.records()
    ]
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def capture_engine(engine):
    """Engine section: clock, progress counters, the full event queue,
    and the telemetry counters (compaction history included — replay
    must reproduce those too)."""
    return {
        "now": engine.now,
        "events_processed": engine.events_processed,
        "pending": engine.pending_count,
        "heap_size": engine.heap_size,
        "heap": _capture_heap(engine),
        "counters": engine.counters(),
    }


def _capture_level_queue(queue):
    levels = {}
    for prio in range(queue.min_prio, queue.max_prio + 1):
        names = [thread.name for thread in queue.items_at(prio)]
        if names:
            levels[str(prio)] = names
    return {"kind": "levels", "levels": levels}


def capture_queues(kernel):
    """Per-CPU ready/other queue contents, by thread name in queue
    order (FIFO order within a level is scheduling state)."""
    cpus = []
    for cpu in range(len(kernel.runqueues)):
        cpus.append({
            "cpu": cpu,
            "ready": _capture_level_queue(kernel.runqueues[cpu]),
            "other": [thread.name
                      for thread in kernel.other_queues[cpu]],
        })
    return cpus


def capture_threads(kernel):
    """Every kernel thread, sorted by tid (spawn order — stable)."""
    threads = []
    for thread in sorted(kernel.threads, key=lambda t: t.tid):
        threads.append({
            "tid": thread.tid,
            "name": thread.name,
            "cpu": thread.cpu,
            "priority": thread.priority,
            "policy": getattr(thread.policy, "name", str(thread.policy)),
            "state": getattr(thread.state, "name", str(thread.state)),
            "blocked_on": describe_value(thread.blocked_on)
            if thread.blocked_on is not None else None,
            "signal_mask": sorted(thread.signal_mask),
            "pending_signals": list(thread.pending_signals),
            "signal_handlers": sorted(thread.signal_handlers),
            "cpu_time": thread.cpu_time,
        })
    return threads


def capture_timers(kernel):
    """Armed timers sorted by ``(expires_at, owner, signum)`` — never
    by the process-global ``timer_id`` (not reproducible)."""
    return sorted(
        (
            {
                "owner": timer.owner.name,
                "signum": timer.signum,
                "expires_at": timer.expires_at,
            }
            for timer in kernel.armed_timers
        ),
        key=lambda entry: (entry["expires_at"], entry["owner"],
                           entry["signum"]),
    )


def capture_cores(kernel):
    """Per-core speed (fault windows change these at run time)."""
    return [core.speed for core in kernel.topology.cores]


def _rng_state(rng):
    """A numpy Generator's bit-generator state, JSON-normalized."""

    def normalize(value):
        if isinstance(value, dict):
            return {key: normalize(val) for key, val in value.items()}
        if isinstance(value, (list, tuple)):
            return [normalize(item) for item in value]
        if hasattr(value, "item"):  # numpy scalar / 0-d array
            return value.item()
        if hasattr(value, "tolist"):
            return value.tolist()
        return value

    return normalize(rng.bit_generator.state)


def capture_cost_model(cost_model):
    """Noise-stream state: the RNG cursor is load-bearing (one draw per
    priced event), the batched stream adds its chunk cursor and the
    still-buffered draws."""
    if cost_model is None:
        return None
    rng = getattr(cost_model, "_rng", None)
    if rng is None:
        return {"kind": type(cost_model).__name__}
    state = {
        "kind": type(cost_model).__name__,
        "noise_sigma": getattr(cost_model, "noise_sigma", None),
        "rng": _rng_state(rng),
    }
    stream = getattr(cost_model, "_noise_stream", None)
    if stream is not None:
        state["stream"] = {
            "chunk": stream._chunk,
            "index": stream._idx,
            "buffered": [float(value)
                         for value in stream._buf[stream._idx:]],
        }
    return state


def capture_resilience(retry=None, watchdog=None, degrade=None):
    """Resilience-controller counters (an *extras* helper)."""
    state = {}
    if retry is not None:
        state["retry"] = {
            "max_attempts": retry.max_attempts,
            "backoff": retry.backoff,
            "backoff_factor": retry.backoff_factor,
            "reserve": retry.reserve,
        }
    if watchdog is not None:
        state["watchdog"] = {
            "grace": watchdog.grace,
            "fired": [list(entry) for entry in watchdog.fired],
        }
    if degrade is not None:
        state["degrade"] = {
            "enter_after": degrade.enter_after,
            "exit_after": degrade.exit_after,
            "degraded": degrade.degraded,
            "episodes": [list(episode)
                         for episode in degrade.episodes],
            "shed_jobs": degrade.shed_jobs,
            "consecutive_miss": dict(sorted(
                degrade._consecutive_miss.items()
            )),
            "consecutive_met": degrade._consecutive_met,
            "entered_at": degrade._entered_at,
        }
    return state


def capture_trading(task, broker):
    """Trading feed/broker progress (an *extras* helper)."""
    account = broker.account
    return {
        "decisions": len(task.decisions),
        "last_decision": None if not task.decisions else {
            "job": task.decisions[-1][0],
            "kind": task.decisions[-1][1].kind.name,
        },
        "broker_failures": len(task.broker_failures),
        "risk_vetoes": len(task.risk_vetoes),
        "account": {
            "balance": account.balance,
            "position": account.position,
            "average_price": account.average_price,
            "realized_pnl": account.realized_pnl,
        },
        "orders": len(broker.orders),
    }


def capture_flight(recorder):
    """The passive flight-recorder ring (an *extras* helper)."""
    if recorder is None:
        return None
    return {
        "capacity": recorder.capacity,
        "recorded": recorder.recorded,
        "dropped": recorder.dropped,
        "events": recorder.events(),
    }


def capture_state(kernel, extras=None):
    """The complete simulation state of ``kernel``, JSON-ready.

    :param extras: optional dict of additional sections the owning
        program contributes (``resilience``, ``trading``, ``flight``,
        ...); merged under their own keys.
    """
    state = {
        "engine": capture_engine(kernel.engine),
        "queues": capture_queues(kernel),
        "current": [None if thread is None else thread.name
                    for thread in kernel.current],
        "threads": capture_threads(kernel),
        "timers": capture_timers(kernel),
        "cores": capture_cores(kernel),
        "next_tid": kernel._next_tid,
        "cost_model": capture_cost_model(kernel.cost_model),
    }
    if extras:
        for key, value in extras.items():
            state[key] = value
    return state


def canonical_json(state):
    """The canonical byte form the digest is computed over."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def state_digest(state):
    """SHA-256 over the canonical JSON of ``state`` — the attestation
    token a restore must reproduce before it may continue the run."""
    return hashlib.sha256(canonical_json(state).encode()).hexdigest()
