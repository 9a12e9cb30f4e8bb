"""Flight-recorder smoke: planted violation, determinism, tail parity.

Three checks (all seeded, CI-friendly):

1. **Planted violation dumps** — run the ``baseline`` fault-campaign
   scenario with a sabotage callback that corrupts a ready queue
   mid-run and calls the invariant checker; the run must die with
   ``InvariantViolationError`` and leave a flight-recorder dump in the
   ``--flight-dir``.
2. **Byte determinism** — the same planted run executed twice must
   write byte-identical dumps (the artifact is a function of the seed,
   nothing else).
3. **Tail parity** — a quick fig10 workload runs with an activating
   subscriber that records the full probe stream and a flight
   recorder riding along; the ring's tail must equal the canonical
   tail of that same run's full stream.

Usage::

    PYTHONPATH=src python tools/flightrec_smoke.py \
        [--flight-dir flight-dumps] [--jobs 6] [--seconds 2]
"""

import argparse
import os
import sys
import tempfile

#: Simulated-time offset of the planted corruption (0.5s into the run).
SABOTAGE_DELAY_SEC = 0.5


def plant_violation(kernel):
    """Schedule a mid-run callback that corrupts a ready queue and
    trips the invariant checker (``RUNNING yet still in a ready
    queue``)."""
    from repro.faults.invariants import check_kernel_invariants
    from repro.simkernel.thread import SchedPolicy
    from repro.simkernel.time_units import MSEC, SEC

    def corrupt():
        for cpu, thread in enumerate(kernel.current):
            if thread is None:
                continue
            if thread.policy is SchedPolicy.FIFO:
                kernel.runqueues[cpu].enqueue(thread, thread.priority)
            else:
                kernel.other_queues[cpu].append(thread)
            check_kernel_invariants(kernel)
            return
        # every CPU idle at this instant — retry deterministically
        kernel.engine.schedule_after(1 * MSEC, corrupt)

    kernel.engine.schedule_after(SABOTAGE_DELAY_SEC * SEC, corrupt)


def planted_run(flight_dir, n_seconds, seed):
    """One sabotaged baseline scenario; returns the dump paths."""
    from repro.faults.campaign import run_scenario
    from repro.simkernel.errors import InvariantViolationError

    try:
        run_scenario("baseline", n_seconds=n_seconds, seed=seed,
                     flight_dir=flight_dir, _sabotage=plant_violation)
    except InvariantViolationError as error:
        snapshot = getattr(error, "flight", None)
        if snapshot is None:
            print("FAIL: InvariantViolationError carried no flight "
                  "snapshot")
            return None
        dumps = sorted(os.listdir(flight_dir))
        if not dumps:
            print(f"FAIL: no dump written to {flight_dir}")
            return None
        return dumps
    print("FAIL: planted violation did not raise "
          "InvariantViolationError")
    return None


def check_planted(flight_dir, n_seconds, seed):
    """Checks 1+2: the planted run dumps, twice, byte-identically."""
    os.makedirs(flight_dir, exist_ok=True)
    dumps = planted_run(flight_dir, n_seconds, seed)
    if dumps is None:
        return False
    with tempfile.TemporaryDirectory() as second_dir:
        second = planted_run(second_dir, n_seconds, seed)
        if second is None:
            return False
        if dumps != second:
            print(f"FAIL: dump file sets differ: {dumps} vs {second}")
            return False
        for name in dumps:
            with open(os.path.join(flight_dir, name), "rb") as handle:
                first_bytes = handle.read()
            with open(os.path.join(second_dir, name), "rb") as handle:
                second_bytes = handle.read()
            if first_bytes != second_bytes:
                print(f"FAIL: {name} differs between two runs of "
                      f"seed {seed}")
                return False
    print(f"planted-violation check OK: {len(dumps)} byte-identical "
          f"dump(s) in {flight_dir}: {', '.join(dumps)}")
    return True


def _observed_run(n_jobs):
    """Quick fig10 run; returns (canonical probe stream, recorder)."""
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
    from repro.core.middleware import RTSeed
    from repro.hardware.loads import BackgroundLoad
    from repro.obs.flightrec import FlightRecorder

    middleware = RTSeed(load=BackgroundLoad.NONE, seed=0)
    middleware.add_task(
        make_eval_task(57),
        n_jobs=n_jobs,
        cpu=0,
        policy="one_by_one",
        optional_deadline=OPTIONAL_DEADLINE,
    )
    stream = []
    middleware.probes.subscribe(
        lambda topic, time, data: stream.append(
            (topic, time, tuple(sorted(data.items())))
        ),
    )
    recorder = FlightRecorder.attach(middleware.kernel, seed=0)
    middleware.run()
    return stream, recorder


def check_tail_parity(n_jobs):
    """Check 3: the ring tail == the same run's full-stream tail."""
    stream, recorder = _observed_run(n_jobs)
    tail = recorder.tail()
    if not tail:
        print("FAIL: the flight recorder's ring is empty")
        return False
    expected = stream[-len(tail):]
    if tail != expected:
        for index, (got, want) in enumerate(zip(tail, expected)):
            if got != want:
                print(f"FAIL: ring tail diverges from the probe "
                      f"stream at tail event {index}:\n"
                      f"  ring:   {got!r}\n  stream: {want!r}")
                return False
        print(f"FAIL: ring tail length {len(tail)} mismatches")
        return False
    print(f"tail-parity check OK: {len(tail)} ring events match the "
          f"probe stream tail ({recorder.recorded} recorded, "
          f"{recorder.dropped} dropped)")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flight-dir", default="flight-dumps",
                        help="keep the first run's dumps here "
                             "(CI uploads them as an artifact)")
    parser.add_argument("--seconds", type=int, default=2,
                        help="trading duration of the sabotaged run")
    parser.add_argument("--jobs", type=int, default=6,
                        help="fig10 jobs for the tail-parity check")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    ok = check_planted(args.flight_dir, args.seconds, args.seed)
    ok = check_tail_parity(args.jobs) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
