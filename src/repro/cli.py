"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``admit``
    Demonstrate admission control on a random workload.

``run``
    Run one program of the registry (:mod:`repro.snapshot.programs`):
    ``overheads`` (the Section V-A task), ``trade``, ``faults`` or
    ``check``.  Each repeatable ``--emit KIND[=PATH]`` asks for one
    document (``table``, the default, ``trace``, ``jsonl``, ``flight``,
    ``metrics``, ``report`` or ``payload``) and attaches only the
    observers it needs.  ``=PATH`` writes a file and prints a status
    line; at most one document goes to stdout, and then prints alone.

``faults``
    Run seeded fault-injection scenarios against the trading system and
    emit a deterministic JSON resilience report.

``check``
    Differential conformance fuzzing: random scenarios run on both the
    theory simulator and the middleware simkernel, compared in
    lockstep and checked against trace oracles; failures are shrunk to
    replayable JSON repro artifacts (see docs/CHECKING.md).

``check``, ``faults`` and ``scale`` run their batches through the
parallel scenario farm (docs/FARM.md): ``--workers`` (default 1,
in-process) never changes the report bytes, and ``--checkpoint FILE``
resumes an interrupted batch.  Without ``--out`` the report document
alone goes to stdout; with it, farm progress and status lines do.
Exit codes: 0 clean, 1 failures, errors or a failed sweep claim, 2
quarantine, incomplete batch or refused checkpoint, 3 interrupted.
``run`` and ``snapshot`` exit 2 with a one-line message on input they
refuse, including a program spec that cannot be built.

``farm status``
    Inspect farm checkpoints on disk without running anything.

``scale``
    Full-topology scale campaigns (docs/FARM.md "Full-topology
    sweeps"): fill a 57-core x 4-HT Xeon Phi (or any subset) with
    thousands of RMWP-schedulable tasks, one farm shard per core, with
    a jobs/minute throughput line.  ``--what sweep`` farms the Figures
    10-13 grid and the three ablations and checks the paper's claims
    on the merged points (EXPERIMENTS.md); it exits 1 when any claim
    fails.

``snapshot``
    Deterministic checkpoint/restore: dump an ``rtseed-snapshot/3`` of
    a program at an event barrier, inspect a snapshot, or resume one to
    the end — the resumed payload is byte-identical to ``repro run
    --emit payload`` with the same program arguments (see
    docs/SNAPSHOTS.md).
"""

import argparse
import sys


def _add_admit_parser(subparsers):
    parser = subparsers.add_parser(
        "admit", help="admission-control demonstration"
    )
    parser.add_argument("--cpus", type=int, default=2)
    parser.add_argument("--tasks", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)


def _add_program_arguments(parser, required):
    """The program spec, shared by ``run`` and ``snapshot``."""
    parser.add_argument("--program", required=required,
                        choices=["overheads", "trade", "faults",
                                 "check"],
                        help="which program of the registry to run")
    parser.add_argument("--np", dest="n_parallel", type=int, default=8,
                        help="parallel optional parts (overheads)")
    parser.add_argument("--jobs", type=int, default=5,
                        help="jobs (overheads)")
    parser.add_argument("--seconds", type=int, default=6,
                        help="trading duration (trade / faults)")
    parser.add_argument("--policy", default="one_by_one",
                        choices=["one_by_one", "two_by_two",
                                 "all_by_all"])
    parser.add_argument("--load", default="none",
                        choices=["none", "cpu", "cpu_memory"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", default="cpu_stall",
                        help="faults program: campaign scenario name")
    parser.add_argument("--artifact", default=None, metavar="FILE",
                        help="check program: repro artifact supplying "
                             "the scenario")
    parser.add_argument("--od-ms", type=float, default=None,
                        help="trade program: relative optional deadline "
                             "in ms (default: the system's)")


#: ``repro run`` emissions, in the order their documents are written.
_EMISSIONS = ("table", "trace", "jsonl", "metrics", "report", "payload",
              "flight")


def _emission(value):
    kind, _, path = value.partition("=")
    if kind not in _EMISSIONS:
        raise argparse.ArgumentTypeError(
            f"unknown emission {kind!r} (choose from "
            f"{', '.join(_EMISSIONS)})"
        )
    return kind, path or None


def _add_run_parser(subparsers):
    parser = subparsers.add_parser(
        "run", help="run one program and emit its documents"
    )
    _add_program_arguments(parser, required=True)
    parser.add_argument("--emit", action="append", type=_emission,
                        metavar="KIND[=PATH]",
                        help="document to emit (repeatable): "
                             f"{', '.join(_EMISSIONS)}; default table. "
                             "Without =PATH it goes to stdout")
    parser.add_argument("--no-wallclock", action="store_true",
                        help="omit the report's wall-clock profile "
                             "section (byte-deterministic report)")


def _add_faults_parser(subparsers):
    parser = subparsers.add_parser(
        "faults", help="run a fault-injection resilience campaign"
    )
    parser.add_argument("--scenario", default="all",
                        help="scenario name, comma-separated names, or "
                             "'all' (see --list)")
    parser.add_argument("--seconds", type=int, default=30,
                        help="trading duration per scenario")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here instead of "
                             "stdout")
    parser.add_argument("--list", action="store_true",
                        help="list the canned scenarios and exit")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="dump flight-recorder artifacts into "
                             "DIR/<scenario>/ at every failure edge "
                             "(invariant violation, degraded-mode "
                             "entry, watchdog fire), and the farm's "
                             "ring into DIR on quarantine")
    parser.add_argument("--workers", type=int, default=1,
                        help="farm worker processes (1 runs "
                             "in-process); the report bytes are "
                             "identical at any worker count "
                             "(docs/FARM.md)")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="checkpoint completed scenarios here and "
                             "resume from it on the next run; also "
                             "enables graceful SIGTERM/SIGINT drain "
                             "(docs/SNAPSHOTS.md)")


def _add_check_parser(subparsers):
    parser = subparsers.add_parser(
        "check", help="differential conformance fuzzing"
    )
    parser.add_argument("--runs", type=int, default=100,
                        help="number of generated scenarios")
    parser.add_argument("--seed", type=int, default=0,
                        help="batch seed; run k's scenario seed is "
                             "derived independently as "
                             "derive_run_seed(seed, k)")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="fraction of scenarios carrying a fault "
                             "plan (default 0; oracle checks only, no "
                             "differential)")
    parser.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="delta-debug failing scenarios (default on)")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="keep this many failing scenarios in the "
                             "report; every run still executes and "
                             "the failure list is truncated afterwards")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write one repro JSON per kept failure "
                             "here, and the farm's flight ring on "
                             "quarantine")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run a saved repro artifact and exit")
    parser.add_argument("--from-snapshot", default=None, metavar="FILE",
                        help="with --replay: restore this divergence "
                             "snapshot (written next to the artifact "
                             "by --artifacts) and re-execute only the "
                             "tail (docs/SNAPSHOTS.md)")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="checkpoint completed runs here and "
                             "resume from it on the next run; also "
                             "enables graceful SIGTERM/SIGINT drain")
    parser.add_argument("--workers", type=int, default=1,
                        help="farm worker processes (1 runs "
                             "in-process); the merged report is "
                             "byte-identical at any worker count "
                             "(docs/FARM.md)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the merged JSON report here")


def _add_farm_parser(subparsers):
    parser = subparsers.add_parser(
        "farm", help="inspect scenario-farm checkpoints"
    )
    parser.add_argument("action", choices=["status"],
                        help="status: summarize farm checkpoints on "
                             "disk without running anything")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="inspect this checkpoint file")
    parser.add_argument("--checkpoint-dir", default=".", metavar="DIR",
                        help="directory to scan for farm checkpoints "
                             "(default: current directory)")


def _add_scale_parser(subparsers):
    parser = subparsers.add_parser(
        "scale",
        help="full-topology scale campaigns on the scenario farm",
    )
    parser.add_argument("--what", default="campaign",
                        choices=["campaign", "sweep"],
                        help="campaign: fill the topology with "
                             "RMWP-schedulable tasks (one shard per "
                             "core); sweep: farm the Figures 10-13 grid "
                             "and the three ablations and check the "
                             "paper's claims")
    parser.add_argument("--cores", type=int, default=57,
                        help="cores of the (subset) Xeon Phi topology")
    parser.add_argument("--threads-per-core", type=int, default=4,
                        help="hardware threads per core (1..4)")
    parser.add_argument("--tasks", type=int, default=2000,
                        help="total tasks across the topology "
                             "(campaign)")
    parser.add_argument("--utilization", type=float, default=0.5,
                        help="per-core task-set utilization (campaign)")
    parser.add_argument("--horizon-periods", type=int, default=2,
                        help="horizon as a multiple of each core's "
                             "longest period (campaign)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed; core k's scenario seed is "
                             "derive_run_seed(seed, k)")
    parser.add_argument("--workers", type=int, default=1,
                        help="farm worker processes; the merged report "
                             "is byte-identical at any count")
    parser.add_argument("--heartbeat", type=float, default=None,
                        help="seconds of worker silence before the "
                             "parent declares a hang")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="dump the farm flight ring here on "
                             "quarantine")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the merged JSON report here "
                             "instead of stdout")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="checkpoint completed shards here and "
                             "resume from it on the next run; also "
                             "enables graceful SIGTERM/SIGINT drain "
                             "(exit code 3)")


def _non_negative(value):
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"{number} is negative")
    return number


def _add_snapshot_parser(subparsers):
    parser = subparsers.add_parser(
        "snapshot",
        help="deterministic checkpoint/restore of a seeded run",
    )
    parser.add_argument("action", choices=["dump", "inspect", "resume"],
                        help="dump: snapshot --program at --at-events; "
                             "inspect: summarize a snapshot; resume: "
                             "restore + finish (payload JSON, "
                             "byte-identical to run --emit payload)")
    _add_program_arguments(parser, required=False)
    parser.add_argument("--at-events", type=_non_negative, default=None,
                        help="dump: engine event barrier to snapshot "
                             "at (required for dump)")
    parser.add_argument("--snapshot", default=None, metavar="FILE",
                        help="snapshot path (dump writes it; "
                             "inspect/resume read it)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="resume: write the payload JSON here "
                             "instead of stdout")


def cmd_admit(args, out):
    from repro.bench.reporting import format_table
    from repro.core.admission import AdmissionController
    from repro.model import TaskSetGenerator

    controller = AdmissionController(n_cpus=args.cpus)
    generator = TaskSetGenerator(seed=args.seed)
    taskset = generator.extended_task_set(args.tasks,
                                          0.55 * args.cpus)
    rows = []
    for model in taskset:
        cpu, decision = controller.admit_anywhere(model,
                                                  heuristic="worst_fit")
        rows.append([
            model.name,
            f"{model.utilization:.3f}",
            "-" if cpu is None else cpu,
            decision.reason if not decision else "admitted",
        ])
    utilization_rows = [
        [cpu, f"{controller.utilization(cpu):.3f}",
         len(controller.admitted(cpu))]
        for cpu in range(args.cpus)
    ]
    print(format_table(["task", "U", "cpu", "outcome"], rows,
                       title="admission decisions (worst-fit)"),
          file=out)
    print(format_table(["cpu", "U", "tasks"], utilization_rows,
                       title="\nfinal per-CPU state"), file=out)
    return 0


#: What building a program from its spec raises on input it refuses.
_BUILD_ERRORS = (ValueError, LookupError, OSError)


def _program_spec(args):
    """The program spec the ``run`` / ``snapshot`` arguments describe."""
    load = args.load.upper()
    if args.program == "overheads":
        return {"kind": "overheads", "np": args.n_parallel,
                "jobs": args.jobs, "policy": args.policy, "load": load,
                "seed": args.seed}
    if args.program == "trade":
        spec = {"kind": "trade", "seconds": args.seconds,
                "policy": args.policy, "load": load, "seed": args.seed}
        if args.od_ms is not None:
            spec["od_ms"] = args.od_ms
        return spec
    if args.program == "faults":
        from repro.faults.campaign import SCENARIOS

        if args.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {args.scenario!r}; "
                             f"valid: {sorted(SCENARIOS)}")
        return {"kind": "faults", "scenario": args.scenario,
                "seconds": args.seconds, "seed": args.seed}
    if args.artifact is None:
        raise ValueError("--program check needs --artifact FILE (a "
                         "repro artifact supplying the scenario)")
    from repro.check.shrink import load_artifact
    from repro.check.timetravel import artifact_check_spec

    return artifact_check_spec(load_artifact(args.artifact))


def _attach(program, emits, out):
    """Attach the observers the emissions need (before the spawn);
    ``payload`` brings the attested set, whose metrics and flight
    recorder the other emissions then share."""
    from repro.obs import (
        ChromeTraceExporter,
        FlightRecorder,
        JsonlExporter,
        SchedulerMetrics,
    )

    kernel = program.kernel
    if "payload" in emits:
        program.attach_attested()
    observers = {}
    if "trace" in emits:
        observers["trace"] = ChromeTraceExporter.attach(kernel)
    if "jsonl" in emits:
        path = emits["jsonl"]
        observers["jsonl"] = JsonlExporter.attach(
            kernel, open(path, "w") if path else out)
    if "metrics" in emits or "report" in emits:
        observers["metrics"] = (
            program.metrics if program.metrics is not None
            else SchedulerMetrics.attach(kernel))
    if "flight" in emits:
        # on its own the ring must keep the bus active to see anything
        observers["flight"] = (
            program.recorder if program.recorder is not None
            else FlightRecorder.attach(kernel, seed=program.seed,
                                       passive=False))
    return observers


def _table(args, result):
    from repro.bench.reporting import format_table

    if args.program == "trade":
        rows = [[key, f"{value:.2f}" if isinstance(value, float)
                 else value] for key, value in result.summary().items()]
        return format_table(["metric", "value"], rows,
                            title=f"trading session ({args.seconds}s)") \
            + "\n"
    from repro.bench.overheads import OverheadSample
    from repro.hardware.loads import BackgroundLoad

    sample = OverheadSample(args.policy, BackgroundLoad[args.load.upper()],
                            args.n_parallel, result.tasks["tau1"])
    rows = [
        [f"Δ{which}", f"{sample.mean(which):.1f}",
         f"{sample.std(which):.1f}", f"{sample.max(which):.1f}"]
        for which in "mbse"
    ]
    title = (f"np={args.n_parallel} policy={args.policy} "
             f"load={args.load} jobs={args.jobs}")
    return (format_table(["overhead", "mean [us]", "std", "max [us]"],
                         rows, title=title)
            + f"\npart fates: {sample.fates}\n")


def _documents(args, emits, program, result, observers, profile):
    """``(kind, text, what)`` per emission, in :data:`_EMISSIONS`
    order; ``what`` names what a file holds, and ``jsonl``'s text is
    ``None`` because it streamed during the run."""
    import json as json_module

    from repro.obs import validate_chrome_trace
    from repro.obs.flightrec import render_dump

    if "table" in emits:
        yield "table", _table(args, result), "table"
    if "trace" in emits:
        document = observers["trace"].to_dict()
        validate_chrome_trace(document)
        yield ("trace", json_module.dumps(document, separators=(",", ":")),
               f"{len(observers['trace'].events)} trace events")
    if "jsonl" in emits:
        yield "jsonl", None, f"{observers['jsonl'].lines} probe events"
    if "metrics" in emits:
        yield ("metrics", observers["metrics"].format() + "\n",
               "metrics table")
    if "report" in emits:
        report = program.run_report(observers["metrics"], profile,
                                    not args.no_wallclock)
        yield ("report", report.to_json(),
               f"run report ({len(report.sections) - 1} sections)")
    if "payload" in emits:
        yield ("payload", json_module.dumps(program.payload(result),
                                            indent=2, sort_keys=True)
               + "\n", "payload")
    if "flight" in emits:
        document = observers["flight"].snapshot("on_demand")
        yield ("flight", render_dump(document),
               f"flight dump ({len(document['events'])} events, "
               f"{document['header']['dropped']} dropped)")


def cmd_run(args, out):
    from repro.obs import WallClockProfile
    from repro.snapshot import build_program

    emits = {}
    for kind, path in args.emit or [("table", None)]:
        if kind in emits:
            print(f"run: --emit {kind} given twice", file=out)
            return 2
        emits[kind] = path
    to_stdout = [kind for kind, path in emits.items() if path is None]
    if len(to_stdout) > 1:
        print(f"run: only one emission may go to stdout, got "
              f"{', '.join(to_stdout)}", file=out)
        return 2
    if "table" in emits and args.program not in ("overheads", "trade"):
        print(f"run: --program {args.program} has no table; emit one of "
              f"{', '.join(_EMISSIONS[1:])}", file=out)
        return 2

    profile = WallClockProfile()
    observers = {}
    try:
        try:
            with profile.section("report.build"):
                program = build_program(_program_spec(args)).build()
                observers = _attach(program, emits, out)
                program.spawn()
        except _BUILD_ERRORS as error:
            # refused before the first event; a failing run propagates
            print(f"run: {error}", file=out)
            return 2
        with profile.section("report.run"):
            result = program.drain()
    finally:
        if "jsonl" in observers and emits["jsonl"]:
            observers["jsonl"].stream.close()
    for kind, text, what in _documents(args, emits, program, result,
                                       observers, profile):
        path = emits[kind]
        if path is None:
            out.write(text)
            continue
        if text is not None:
            with open(path, "w") as handle:
                handle.write(text)
        if not to_stdout:
            print(f"wrote {what} to {path}", file=out)
            if kind == "trace":
                print("open in https://ui.perfetto.dev or "
                      "chrome://tracing", file=out)
    return 0


def _write_report(args, out, rendered, what):
    """Write a rendered document to ``--out`` and announce it as
    ``what``; without ``--out`` the document alone goes to ``out``."""
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote {what} to {args.out}", file=out)
    else:
        out.write(rendered)


class _FarmProgress:
    """Render ``farm.*`` lifecycle events as a per-worker status line.

    On a TTY the line is rewritten in place (``\\r``); otherwise only
    the milestone events print (start, shard completions, losses,
    retries, quarantines), keeping CI logs readable.
    """

    def __init__(self, out):
        self.out = out
        self.tty = getattr(out, "isatty", lambda: False)()
        self.sizes = []
        self.done = {}

    def _status(self):
        workers = " ".join(
            f"w{shard}:{self.done.get(shard, 0)}/{size}"
            for shard, size in enumerate(self.sizes)
        )
        total = sum(self.done.values())
        return f"farm: {workers} ({total}/{sum(self.sizes)} items)"

    def _line(self, text):
        if self.tty:
            self.out.write("\r\x1b[K")
        print(text, file=self.out)

    def __call__(self, topic, data):
        if topic == "farm.start":
            self.sizes = list(data["shard_sizes"])
            self.done = {}
            self._line(f"farm: {data['items']} item(s) across "
                       f"{data['workers']} worker(s), shard sizes "
                       f"{self.sizes}")
        elif topic == "farm.item_done":
            shard = data["shard"]
            self.done[shard] = self.done.get(shard, 0) + 1
            if self.tty:
                self.out.write("\r\x1b[K" + self._status())
                self.out.flush()
        elif topic == "farm.shard_done":
            self._line(f"farm: shard {data['shard']} done "
                       f"({self.done.get(data['shard'], 0)} item(s))")
        elif topic == "farm.worker_lost":
            self._line(f"farm: worker lost on shard {data['shard']} "
                       f"({data['reason']}, attempt {data['attempt']}, "
                       f"{data['pending']} item(s) pending)")
        elif topic == "farm.retry":
            self._line(f"farm: retrying shard {data['shard']} on a "
                       f"fresh process (attempt {data['attempt']}, "
                       f"{data['items']} item(s))")
        elif topic == "farm.quarantine":
            self._line(f"farm: QUARANTINED shard {data['shard']} "
                       f"({data['reason']}); unfinished indices "
                       f"{data['indices']}")
        elif topic == "farm.done":
            self._line(self._status())


def _farm_status(result, out):
    stats = result.stats
    print(
        f"farm: {stats['completed']}/{stats['items']} item(s), "
        f"{stats['workers']} worker(s) ({stats['start_method']}), "
        f"{stats['retries']} retr{'y' if stats['retries'] == 1 else 'ies'}, "
        f"{stats['quarantined_shards']} quarantined, "
        f"{stats['wall_seconds']}s",
        file=out,
    )


def cmd_faults(args, out):
    from repro.farm import farm_campaign
    from repro.faults.campaign import SCENARIOS, render_report

    if args.list:
        for name in sorted(SCENARIOS):
            print(f"{name:18s} {SCENARIOS[name]['description']}",
                  file=out)
        return 0
    if args.scenario == "all":
        names = None
    else:
        names = [name.strip() for name in args.scenario.split(",")]
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)} "
                  f"(try --list)", file=out)
            return 2
    report, farm_result = farm_campaign(
        scenarios=names, n_seconds=args.seconds, seed=args.seed,
        workers=args.workers, flight_dir=args.flight_dir,
        on_event=_FarmProgress(out) if args.out else None,
        checkpoint_path=args.checkpoint,
        handle_signals=bool(args.checkpoint),
    )
    _write_report(args, out, render_report(report),
                  f"{len(report['scenarios'])} scenario report(s)")
    if args.out:
        _farm_status(farm_result, out)
    return 2 if farm_result.quarantined or report.get("incomplete") else 0


def cmd_check(args, out):
    from repro.check import load_artifact, replay_artifact
    from repro.check.shrink import save_artifact
    from repro.farm import farm_check, render_check_report

    if args.replay:
        artifact = load_artifact(args.replay)
        if args.from_snapshot:
            from repro.check.timetravel import replay_from_snapshot
            from repro.snapshot import load_snapshot

            document = load_snapshot(args.from_snapshot)
            barrier = document["barrier"]["events_processed"]
            report, _payload = replay_from_snapshot(document)
            print(f"replay {args.replay} from snapshot "
                  f"{args.from_snapshot} (restored at {barrier} "
                  f"events): {report.summary()}", file=out)
        else:
            report = replay_artifact(artifact)
            print(f"replay {args.replay}: {report.summary()}",
                  file=out)
        expected = set(artifact["failure_kinds"])
        got = set(report.failure_kinds())
        if expected and not (expected & got):
            print(f"DID NOT REPRODUCE (expected {sorted(expected)}, "
                  f"got {sorted(got)})", file=out)
            return 1
        return 0

    document, farm_result = farm_check(
        args.runs,
        seed=args.seed,
        fault_rate=args.fault_rate,
        shrink=args.shrink,
        max_failures=args.max_failures,
        workers=args.workers,
        flight_dir=args.artifacts,
        on_event=_FarmProgress(out) if args.out else None,
        checkpoint_path=args.checkpoint,
        handle_signals=bool(args.checkpoint),
    )
    if args.out:
        _write_report(args, out, render_check_report(document),
                      "farm report")
        _farm_status(farm_result, out)
    failures = document["failures"]
    for artifact in failures:
        print(f"seed {artifact['seed']}: FAIL — {artifact['summary']}",
              file=out)
    for error in document["errors"]:
        print(f"seed {error['seed']}: ERROR — {error['error']}",
              file=out)
    for entry in document["quarantined"]:
        for seed in entry["seeds"]:
            print(f"seed {seed}: QUARANTINED — {entry['reason']}",
                  file=out)
    if args.artifacts and failures:
        import os

        from repro.check.timetravel import divergence_snapshot
        from repro.snapshot import write_snapshot

        os.makedirs(args.artifacts, exist_ok=True)
        for artifact in failures:
            path = os.path.join(args.artifacts,
                                f"repro-seed{artifact['seed']}.json")
            save_artifact(path, artifact)
            print(f"wrote {path}", file=out)
            snapshot_path = os.path.join(
                args.artifacts,
                f"repro-seed{artifact['seed']}-snapshot.json",
            )
            snapshot, info = divergence_snapshot(artifact)
            write_snapshot(snapshot_path, snapshot)
            print(f"wrote {snapshot_path} (barrier {info['barrier']}/"
                  f"{info['total_events']} events, "
                  f"{info['barrier_source']})", file=out)
    failed = document["total_failures"] + len(document["errors"])
    print(
        f"{document['completed_runs']} runs from seed {args.seed}: "
        f"{document['differential_runs']} differential, "
        f"{failed} failure(s)",
        file=out,
    )
    if farm_result.quarantined:
        return 2
    return 1 if failed else 0


def cmd_farm(args, out):
    """``repro farm status``: inspect checkpoints without running.

    A missing or checkpoint-free location reports "no checkpoints" and
    exits 0 — status is a question, not an assertion.
    """
    from repro.farm import inspect_checkpoint, inspect_checkpoint_dir

    if args.checkpoint:
        summaries = [s for s in [inspect_checkpoint(args.checkpoint)]
                     if s is not None]
        where = args.checkpoint
    else:
        summaries = inspect_checkpoint_dir(args.checkpoint_dir)
        where = args.checkpoint_dir
    if not summaries:
        print(f"no checkpoints in {where}", file=out)
        return 0
    for summary in summaries:
        meta = summary["meta"] or {}
        what = meta.get("what", "?")
        detail = " ".join(
            f"{key}={meta[key]}" for key in sorted(meta)
            if key != "what"
        )
        torn = " (torn tail)" if summary["torn_tail"] else ""
        print(f"{summary['path']}: {what} "
              f"{summary['completed']} item(s) completed{torn}"
              + (f" [{detail}]" if detail else ""), file=out)
    return 0


def cmd_scale(args, out):
    from repro.farm import DEFAULT_HEARTBEAT
    from repro.hardware.xeonphi import XEON_PHI_3120A
    from repro.scale import farm_scale, farm_scale_sweep, \
        render_scale_report

    try:
        spec = XEON_PHI_3120A.subset(args.cores, args.threads_per_core)
    except ValueError as error:
        print(f"scale: {error}", file=out)
        return 2
    batch = {
        "workers": args.workers,
        "heartbeat": (DEFAULT_HEARTBEAT if args.heartbeat is None
                      else args.heartbeat),
        "flight_dir": args.flight_dir,
        "on_event": _FarmProgress(out) if args.out else None,
        "checkpoint_path": args.checkpoint,
        "handle_signals": bool(args.checkpoint),
    }
    if args.what == "sweep":
        document, farm_result = farm_scale_sweep(seed=args.seed, **batch)
        failed_claims = [claim for claim in document["claims"]
                         if not claim["holds"]]
        failed = bool(document["errors"] or failed_claims)
    else:
        document, farm_result = farm_scale(
            n_cores=spec.n_cores,
            threads_per_core=spec.threads_per_core,
            n_tasks=args.tasks,
            seed=args.seed,
            utilization=args.utilization,
            horizon_periods=args.horizon_periods,
            **batch,
        )
        failed = bool(document["totals"]["violations"]
                      or document["total_crashes"]
                      or document["errors"])
    _write_report(args, out, render_scale_report(document),
                  "merged report")
    if args.out:
        _farm_status(farm_result, out)
    if args.out and args.what == "sweep":
        claims = document["claims"]
        print(f"scale: {len(claims) - len(failed_claims)}/{len(claims)} "
              f"claim(s) hold", file=out)
        for claim in failed_claims:
            if claim["missing"]:
                detail = f"{len(claim['missing'])} point(s) missing"
            else:
                detail = f"at {claim['point']}"
                if claim["margin"] is not None:
                    detail += f", margin {claim['margin']}"
            print(f"scale: claim {claim['id']} FAILED ({detail})",
                  file=out)
    if args.out and args.what == "campaign":
        totals = document["totals"]
        wall = farm_result.stats.get("wall_seconds") or 0
        throughput = (f"{totals['jobs_done'] / wall * 60.0:,.0f} "
                      f"jobs/minute" if wall else "n/a")
        print(
            f"scale: {spec.n_cores}c x {spec.threads_per_core}t, "
            f"{totals['tasks']} task(s), {totals['jobs_done']} job(s) "
            f"in {totals['events']} kernel events — {throughput}",
            file=out,
        )
    if farm_result.quarantined:
        return 2
    return 1 if failed else 0


def cmd_snapshot(args, out):
    import json as json_module

    from repro.snapshot import (
        SnapshotError,
        build_program,
        inspect_snapshot,
        load_snapshot,
        resume_to_end,
        write_snapshot,
    )
    from repro.snapshot import snapshot as take_snapshot

    try:
        if args.action == "inspect":
            if not args.snapshot:
                print("inspect needs --snapshot FILE", file=out)
                return 2
            summary = inspect_snapshot(load_snapshot(args.snapshot))
            out.write(json_module.dumps(summary, indent=2,
                                        sort_keys=True) + "\n")
            return 0
        if args.action == "resume":
            if not args.snapshot:
                print("resume needs --snapshot FILE", file=out)
                return 2
            payload = resume_to_end(load_snapshot(args.snapshot))
            _write_report(args, out, json_module.dumps(
                payload, indent=2, sort_keys=True) + "\n", "payload")
            return 0
        if not args.program or args.at_events is None \
                or not args.snapshot:
            print("dump needs --program, --at-events N and --snapshot "
                  "FILE", file=out)
            return 2
        try:
            spec = _program_spec(args)
            run = build_program(spec).start()
        except _BUILD_ERRORS as error:
            print(f"snapshot: {error}", file=out)
            return 2
        document = take_snapshot(run, at_events=args.at_events)
        write_snapshot(args.snapshot, document)
        print(f"wrote snapshot of {spec['kind']} at {args.at_events} "
              f"events to {args.snapshot}", file=out)
        return 0
    except SnapshotError as error:
        print(f"snapshot: {error}", file=out)
        return 2


_COMMANDS = {
    "admit": cmd_admit,
    "run": cmd_run,
    "faults": cmd_faults,
    "check": cmd_check,
    "farm": cmd_farm,
    "scale": cmd_scale,
    "snapshot": cmd_snapshot,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RT-Seed reproduction: middleware for semi-fixed-"
                    "priority scheduling (MIDDLEWARE 2014)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_admit_parser(subparsers)
    _add_run_parser(subparsers)
    _add_faults_parser(subparsers)
    _add_check_parser(subparsers)
    _add_farm_parser(subparsers)
    _add_scale_parser(subparsers)
    _add_snapshot_parser(subparsers)
    return parser


def main(argv=None, out=None):
    from repro.farm import CheckpointMismatchError, FarmInterrupted

    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except FarmInterrupted as interrupt:
        # graceful SIGTERM/SIGINT drain; the message names the resume
        print(f"{args.command}: {interrupt}", file=out)
        return 3
    except CheckpointMismatchError as error:
        print(f"{args.command}: {error}", file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
