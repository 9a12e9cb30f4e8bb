"""The scenario farm: seed-sharded multiprocessing with a merge that is
byte-identical regardless of worker count.

:func:`farm_map` runs ``task(item)`` for every item of a batch across
``n_workers`` processes.  The batch is split by
:func:`~repro.farm.partition.partition_shards` (static round-robin over
item indices — no work stealing, so the item -> worker map is a pure
function of the worker count), each worker executes its shard in index
order, and the parent merges per-item payloads back into index order.
Because every item's work must depend only on the item itself (seeded
work derives its RNG from the item, never from process state), the
merged result is independent of the worker count and of scheduling
noise; wall-clock data lives only in :attr:`FarmResult.stats`, which
deterministic reports must not include.

Resilience (exercised by ``tests/farm/test_crash.py``):

* each worker messages the parent over its own pipe, whose ``send``
  is synchronous: no feeder thread, no lock shared between workers, so
  a worker killed mid-message cannot wedge its siblings and what it
  sent before dying arrives;
* a worker that **crashes** (the process dies without draining its
  shard) or **hangs** (no message for ``heartbeat`` seconds) is
  detected by the parent;
* the shard's *remaining* items are retried once on a fresh process;
* a shard that fails again is **quarantined**: its unfinished item
  indices are recorded on the result — never silently dropped — a
  ``farm.quarantine`` event is published, and the farm's own
  flight-recorder ring (the ``farm.*`` lifecycle event stream) is
  snapshotted and, when ``flight_dir`` is set, dumped to disk.

The farm publishes its lifecycle on a private
:class:`~repro.obs.bus.ProbeBus` stamped with an event *sequence
number* (it has no simulated clock, and wall time would make dumps
unstable): ``farm.start``, ``farm.item_start``, ``farm.item_done``,
``farm.shard_done``, ``farm.worker_lost``, ``farm.retry``,
``farm.quarantine``, ``farm.done``.
"""

import multiprocessing
import os
import signal as signal_module
import time
from multiprocessing.connection import wait as wait_readable

from repro.farm.checkpoint import FarmCheckpoint, load_farm_checkpoint
from repro.farm.partition import partition_shards
from repro.obs.bus import ProbeBus
from repro.obs.flightrec import FlightRecorder

#: Seconds of worker silence before the parent declares a hang.  Items
#: are expected to take milliseconds to low seconds; anything past this
#: without a single message is wedged, not slow.
DEFAULT_HEARTBEAT = 120.0

#: Automatic re-executions of a failed shard's remaining items.
DEFAULT_RETRIES = 1


class FarmInterrupted(Exception):
    """A graceful SIGTERM/SIGINT drain stopped the batch early.

    Carries the partial :class:`FarmResult` (everything completed
    before the signal, all of it already flushed to the checkpoint
    when one is configured) so the caller can report progress and the
    resume path.
    """

    def __init__(self, signum, result, checkpoint_path=None):
        self.signum = signum
        self.result = result
        self.checkpoint_path = checkpoint_path
        name = signal_module.Signals(signum).name \
            if signum is not None else "signal"
        pending = result.n_items - len(result.results)
        super().__init__(
            f"farm interrupted by {name}: "
            f"{len(result.results)}/{result.n_items} item(s) done, "
            f"{pending} pending"
            + (f"; resume from checkpoint {checkpoint_path}"
               if checkpoint_path else "")
        )


class _SeqClock:
    """Deterministic 'clock' for the farm bus: publish sequence number."""

    __slots__ = ("now",)

    def __init__(self):
        self.now = 0


def resolve_context(context=None):
    """The multiprocessing context the farm uses.

    ``fork`` when the platform offers it (fast, and task callables
    need not be importable), else ``spawn``; override with the
    ``context`` argument or ``RTSEED_FARM_START``.
    """
    if context is None:
        context = os.environ.get("RTSEED_FARM_START") or None
    if context is None:
        methods = multiprocessing.get_all_start_methods()
        context = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(context)


def _run_item(task, item):
    """Execute one item, never letting a task exception kill the shard.

    A task-level exception is deterministic for the item, so it merges
    like any payload (``farm_error`` key) instead of poisoning the
    whole worker.
    """
    try:
        return task(item)
    except Exception as error:
        return {"farm_error": f"{type(error).__name__}: {error}"}


def _worker_main(shard_id, generation, task, numbered_items, conn):
    """Worker process body: run the shard in index order, message home.

    Messages are ``(kind, shard_id, generation, index, payload)``, sent
    on the worker's own pipe ``conn``; ``generation`` lets the parent
    discard stale lifecycle messages from a worker it already replaced
    (results are always accepted — they are deterministic per item).
    """
    for index, item in numbered_items:
        conn.send(("start", shard_id, generation, index, None))
        payload = _run_item(task, item)
        conn.send(("result", shard_id, generation, index, payload))
    conn.send(("exit", shard_id, generation, None, None))
    conn.close()


class FarmResult:
    """Outcome of one :func:`farm_map` batch.

    :attr:`results` maps item index -> payload (missing only for
    quarantined items); :attr:`quarantined` lists per-shard quarantine
    records (``reason``, ``indices``, ``attempts``, ``flight`` snapshot
    and ``flight_dump`` path); :attr:`stats` holds wall-clock and
    worker-count diagnostics that deterministic reports must exclude.
    """

    def __init__(self, n_items):
        self.n_items = n_items
        self.results = {}
        self.quarantined = []
        self.retries = 0
        self.stats = {}

    @property
    def ok(self):
        return not self.quarantined and len(self.results) == self.n_items

    def ordered(self):
        """Payloads in item-index order (the deterministic merge order)."""
        return [self.results[index] for index in sorted(self.results)]

    def ordered_items(self):
        """``(index, payload)`` pairs in index order."""
        return [(index, self.results[index])
                for index in sorted(self.results)]

    def __repr__(self):
        return (
            f"<FarmResult {len(self.results)}/{self.n_items} "
            f"retries={self.retries} "
            f"quarantined={len(self.quarantined)}>"
        )


def farm_map(task, items, n_workers=1, heartbeat=DEFAULT_HEARTBEAT,
             max_retries=DEFAULT_RETRIES, context=None, flight_dir=None,
             flight_seed=None, on_event=None, checkpoint_path=None,
             checkpoint_meta=None, handle_signals=False):
    """Run ``task(item)`` for every item, sharded across processes.

    :param task: callable executed in the workers.  Under the ``spawn``
        start method it must be importable (module-level); under
        ``fork`` any callable works.  Exceptions it raises become
        ``{"farm_error": ...}`` payloads.
    :param items: finite iterable of picklable work items; item index
        in this sequence is the determinism key.
    :param n_workers: worker processes, at least 1 (``ValueError``
        below).  ``1`` executes in-process (identical merge path, no
        multiprocessing machinery) — the reference the invariance
        tests compare multi-worker runs against.
    :param heartbeat: seconds of per-worker silence before the parent
        terminates it as hung.
    :param max_retries: fresh-process re-executions of a failed shard's
        remaining items before quarantine.
    :param context: multiprocessing start method (default: ``fork``
        where available, see :func:`resolve_context`).
    :param flight_dir: directory for the quarantine flight dump
        (``flightrec-farm_quarantine-seed<flight_seed>.jsonl``).
    :param flight_seed: seed stamped into the flight dump header.
    :param on_event: optional ``f(topic, data)`` mirror of every
        ``farm.*`` event (the CLI progress line).
    :param checkpoint_path: JSONL checkpoint the parent appends every
        completed payload to (see :mod:`repro.farm.checkpoint`).  If
        the file already holds results for this batch fingerprint,
        those items are *not* re-run — the farm resumes where the
        previous run (crashed, killed, or drained) stopped, and the
        merged result is byte-identical to an uninterrupted run.
    :param checkpoint_meta: JSON-able batch fingerprint stamped into
        the checkpoint header; a resume against a checkpoint with a
        different fingerprint is refused.
    :param handle_signals: install SIGTERM/SIGINT handlers for the
        duration of the batch (restored on exit).  On signal the farm
        stops dispatching, terminates workers, flushes the checkpoint,
        and raises :class:`FarmInterrupted` with the partial result.
    :returns: :class:`FarmResult`.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    items = list(items)
    result = FarmResult(len(items))
    clock = _SeqClock()
    bus = ProbeBus(clock=clock)
    recorder = FlightRecorder(dump_dir=flight_dir,
                              seed=flight_seed).wire_bus(bus)

    def publish(topic, **data):
        clock.now += 1
        bus.publish(topic, **data)
        if on_event is not None:
            on_event(topic, data)

    checkpoint = None
    if checkpoint_path is not None:
        completed = load_farm_checkpoint(checkpoint_path,
                                         meta=checkpoint_meta)
        # only indices of *this* batch count (a shrunk batch reuses a
        # larger checkpoint's prefix; indices past the end are ignored)
        completed = {index: payload
                     for index, payload in completed.items()
                     if 0 <= index < len(items)}
        result.results.update(completed)
        checkpoint = FarmCheckpoint(checkpoint_path,
                                    meta=checkpoint_meta,
                                    completed=completed)

    def record(index, payload):
        if index not in result.results:
            result.results[index] = payload
            if checkpoint is not None:
                checkpoint.record(index, payload)

    stop = {"signum": None}
    previous_handlers = {}
    if handle_signals:
        def _on_signal(signum, _frame):
            stop["signum"] = signum

        for signum in (signal_module.SIGINT, signal_module.SIGTERM):
            previous_handlers[signum] = signal_module.signal(signum,
                                                             _on_signal)

    def interrupted():
        result.stats = _stats(result, n_workers, "interrupted",
                              started)
        publish("farm.interrupt", signum=stop["signum"],
                completed=len(result.results))
        raise FarmInterrupted(stop["signum"], result,
                              checkpoint_path=checkpoint_path)

    shards = partition_shards(len(items), n_workers)
    pending_shards = [
        [index for index in shard if index not in result.results]
        for shard in shards
    ]
    started = time.monotonic()
    publish("farm.start", items=len(items), workers=n_workers,
            shard_sizes=[len(shard) for shard in shards])
    if checkpoint is not None and any(
            len(pending) < len(shard)
            for shard, pending in zip(shards, pending_shards)):
        publish("farm.resume", checkpoint=checkpoint_path,
                completed=len(result.results),
                remaining=sum(len(p) for p in pending_shards))

    readers = set()  # open pipe ends; a worker's closes at its EOF
    try:
        if n_workers == 1:
            for index, item in enumerate(items):
                if index in result.results:
                    continue
                if stop["signum"] is not None:
                    interrupted()
                publish("farm.item_start", shard=0, index=index)
                record(index, _run_item(task, item))
                publish("farm.item_done", shard=0, index=index)
            publish("farm.shard_done", shard=0)
            result.stats = _stats(result, n_workers, "in-process",
                                  started)
            publish("farm.done", completed=len(result.results))
            return result

        ctx = resolve_context(context)
        states = {}

        def spawn(shard_id, indices, attempt):
            numbered = [(index, items[index]) for index in indices]
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(shard_id, attempt, task, numbered, writer),
                daemon=True,
            )
            process.start()
            # the worker holds the only write end, so its death is EOF
            writer.close()
            readers.add(reader)
            states[shard_id] = {
                "process": process,
                "generation": attempt,
                "pending": set(indices),
                "attempt": attempt,
                "last_seen": time.monotonic(),
                "exited": False,
            }

        for shard_id, shard in enumerate(pending_shards):
            if shard:
                spawn(shard_id, shard, attempt=1)
        active = set(states)

        def handle(message):
            kind, shard_id, generation, index, payload = message
            state = states.get(shard_id)
            if state is None:
                return
            if kind == "result":
                # results are deterministic per item: accept from any
                # generation, first write wins
                record(index, payload)
                state["pending"].discard(index)
            if generation != state["generation"]:
                return  # stale lifecycle message from a replaced worker
            state["last_seen"] = time.monotonic()
            if kind == "start":
                publish("farm.item_start", shard=shard_id, index=index)
            elif kind == "result":
                publish("farm.item_done", shard=shard_id, index=index)
            elif kind == "exit":
                state["exited"] = True
                publish("farm.shard_done", shard=shard_id)

        def receive(timeout):
            """Handle what is ready within ``timeout``; False if none."""
            ready = wait_readable(list(readers), timeout)
            for reader in ready:
                try:
                    message = reader.recv()
                except EOFError:
                    readers.discard(reader)
                    reader.close()
                    continue
                handle(message)
            return bool(ready)

        def drain():
            while receive(0):
                pass

        def fail_shard(shard_id, reason):
            state = states[shard_id]
            pending = sorted(state["pending"])
            publish("farm.worker_lost", shard=shard_id, reason=reason,
                    attempt=state["attempt"], pending=len(pending))
            if not pending:
                # died after finishing its items (lost only the exit
                # message): the shard is complete
                active.discard(shard_id)
                return
            if state["attempt"] <= max_retries:
                result.retries += 1
                publish("farm.retry", shard=shard_id,
                        attempt=state["attempt"] + 1,
                        items=len(pending))
                spawn(shard_id, pending, attempt=state["attempt"] + 1)
                return
            publish("farm.quarantine", shard=shard_id, reason=reason,
                    indices=pending)
            document = recorder.record_failure("farm_quarantine")
            result.quarantined.append({
                "shard": shard_id,
                "reason": reason,
                "indices": pending,
                "attempts": state["attempt"],
                "flight": document,
                "flight_dump": recorder.dumps[-1]
                if recorder.dumps else None,
                "checkpoint": checkpoint_path,
            })
            active.discard(shard_id)

        poll = max(0.02, min(0.25, heartbeat / 5.0))
        while active:
            if stop["signum"] is not None:
                # graceful drain: stop the workers, keep every result
                # already landed (and checkpointed), report the rest
                for shard_id in sorted(active):
                    process = states[shard_id]["process"]
                    process.terminate()
                    process.join(timeout=2)
                    if process.is_alive():
                        process.kill()
                        process.join(timeout=2)
                drain()
                interrupted()
            receive(poll)
            now = time.monotonic()
            for shard_id in sorted(active):
                state = states[shard_id]
                process = state["process"]
                if state["exited"]:
                    process.join(timeout=5)
                    active.discard(shard_id)
                elif not process.is_alive():
                    # read what the worker sent (possibly the exit
                    # marker) before declaring a crash
                    drain()
                    process.join(timeout=5)
                    if state["exited"]:
                        active.discard(shard_id)
                    else:
                        fail_shard(shard_id, "crash")
                elif now - state["last_seen"] > heartbeat:
                    process.terminate()
                    process.join(timeout=2)
                    if process.is_alive():
                        process.kill()
                        process.join(timeout=2)
                    drain()
                    fail_shard(shard_id, "hang")
        drain()

        result.stats = _stats(result, n_workers, ctx.get_start_method(),
                              started)
        publish("farm.done", completed=len(result.results))
        return result
    finally:
        for reader in readers:
            reader.close()
        if checkpoint is not None:
            checkpoint.close()
        for signum, handler in previous_handlers.items():
            signal_module.signal(signum, handler)


def _stats(result, n_workers, method, started):
    """Wall-clock/worker diagnostics — never part of report bytes."""
    elapsed = time.monotonic() - started
    return {
        "workers": n_workers,
        "start_method": method,
        "items": result.n_items,
        "completed": len(result.results),
        "retries": result.retries,
        "quarantined_shards": len(result.quarantined),
        "wall_seconds": round(elapsed, 4),
        "items_per_sec": round(len(result.results) / elapsed, 2)
        if elapsed > 0 else None,
    }
