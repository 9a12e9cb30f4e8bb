"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.tier1


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_seven_verbs():
    parser = build_parser()
    verbs = next(action for action in parser._actions
                 if action.dest == "command").choices
    assert list(verbs) == ["admit", "run", "faults", "check", "farm",
                           "scale", "snapshot"]


def test_overheads_command():
    code, output = run_cli([
        "run", "--program", "overheads", "--np", "8", "--jobs", "3",
        "--policy", "all_by_all", "--load", "cpu",
    ])
    assert code == 0
    for which in "mbse":
        assert f"Δ{which}" in output
    assert "terminated" in output


def test_trade_command():
    code, output = run_cli([
        "run", "--program", "trade", "--seconds", "5", "--seed", "1",
        "--od-ms", "700",
    ])
    assert code == 0
    assert "trading session" in output
    assert "deadline_misses" in output
    assert "equity" in output


def test_admit_command():
    code, output = run_cli(["admit", "--cpus", "2", "--tasks", "6"])
    assert code == 0
    assert "admission decisions" in output
    assert "final per-CPU state" in output


def test_trace_command(tmp_path):
    from repro.obs import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    jsonl_path = tmp_path / "trace.jsonl"
    code, output = run_cli([
        "run", "--program", "overheads", "--np", "4", "--jobs", "2",
        "--emit", f"trace={trace_path}", "--emit", f"jsonl={jsonl_path}",
    ])
    assert code == 0
    assert "trace events" in output
    assert "perfetto" in output
    document = json.loads(trace_path.read_text())
    assert validate_chrome_trace(document) > 0
    lines = jsonl_path.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)


def test_trace_command_trade_workload(tmp_path):
    from repro.obs import validate_chrome_trace

    trace_path = tmp_path / "trade.json"
    code, _output = run_cli([
        "run", "--program", "trade", "--seconds", "3",
        "--emit", f"trace={trace_path}",
    ])
    assert code == 0
    assert validate_chrome_trace(json.loads(trace_path.read_text())) > 0


def test_metrics_command():
    code, output = run_cli(["run", "--program", "overheads", "--np", "4",
                            "--jobs", "2", "--emit", "metrics"])
    assert code == 0
    assert "rtseed.response_time[tau1]" in output
    assert "kernel.dispatches" in output


def test_metrics_command_json():
    """The metrics snapshot as JSON is the run report's ``metrics``
    section."""
    code, output = run_cli([
        "run", "--program", "overheads", "--np", "4", "--jobs", "2",
        "--emit", "report", "--no-wallclock",
    ])
    assert code == 0
    snapshot = json.loads(output)["metrics"]
    assert snapshot["counters"]["rtseed.jobs[tau1]"] == 2
    assert "p99" in snapshot["histograms"]["rtseed.response_time[tau1]"]


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "admit"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "admission decisions" in result.stdout


def test_report_command(tmp_path):
    run = ["run", "--program", "overheads", "--np", "4", "--jobs", "2"]
    code, output = run_cli(run + ["--emit", "report"])
    assert code == 0
    report = json.loads(output)
    assert report["schema"] == "rtseed-run-report/1"
    assert report["engine"]["counters"]["events_processed"] > 0
    assert report["metrics"]["counters"]["rtseed.jobs[tau1]"] == 2
    assert "report.run" in report["wallclock"]

    out_path = tmp_path / "report.json"
    code, output = run_cli(run + ["--no-wallclock",
                                  "--emit", f"report={out_path}"])
    assert code == 0
    assert "wrote run report" in output
    written = json.loads(out_path.read_text())
    assert "wallclock" not in written
    assert written["queues"]["cpu0"]["peak_depth"] >= 1


def test_report_command_is_deterministic_without_wallclock():
    run = ["run", "--program", "overheads", "--np", "4", "--jobs", "2",
           "--emit", "report", "--no-wallclock"]
    code_a, first = run_cli(run)
    code_b, second = run_cli(run)
    assert code_a == code_b == 0
    assert first == second


def test_trace_command_flight_dump(tmp_path):
    dump = tmp_path / "flight.jsonl"
    code, output = run_cli([
        "run", "--program", "overheads", "--np", "4", "--jobs", "2",
        "--emit", f"trace={tmp_path / 'trace.json'}",
        "--emit", f"flight={dump}",
    ])
    assert code == 0
    lines = dump.read_text().splitlines()
    header = json.loads(lines[0])
    # the status line's counts are the dump header's
    assert (f"wrote flight dump ({len(lines) - 2} events, "
            f"{header['dropped']} dropped)") in output
    assert header["schema"] == "rtseed-flightrec/1"
    assert header["reason"] == "on_demand"
    kernel = json.loads(lines[1])
    assert kernel["threads_alive"] == 0  # run completed
    assert len(lines) - 2 == min(header["recorded"], header["capacity"])


def test_faults_command_flight_dir(tmp_path):
    code, output = run_cli([
        "faults", "--scenario", "overload_degrade", "--seconds", "12",
        "--flight-dir", str(tmp_path),
    ])
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "overload_degrade").iterdir())
    # degraded-mode entry is a failure edge: the recorder auto-dumped
    assert any(name.startswith("flightrec-degrade_enter") for name in names)


def test_faults_flight_dir_same_at_any_worker_count(tmp_path, monkeypatch):
    """Regression: a farmed campaign wrote no scenario dumps.  Each
    scenario now dumps into ``DIR/<scenario>/``, so the tree — names
    and bytes — is the same at 1 and 2 workers."""
    trees = {}
    for workers in (1, 2):
        run_dir = tmp_path / f"w{workers}"
        run_dir.mkdir()
        # dumps record the paths of earlier dumps: use one relative DIR
        monkeypatch.chdir(run_dir)
        code, _ = run_cli([
            "faults", "--scenario", "signal_storm,overload_degrade",
            "--seconds", "12", "--workers", str(workers),
            "--flight-dir", "flight", "--out", "report.json",
        ])
        assert code == 0
        trees[workers] = {
            str(path.relative_to(run_dir)): path.read_bytes()
            for path in run_dir.rglob("*") if path.is_file()
        }
    assert trees[1] == trees[2]
    assert ("flight/signal_storm/flightrec-degrade_watchdog_fire-seed0-2"
            ".jsonl") in trees[1]
    assert "flight/overload_degrade/flightrec-degrade_enter-seed0.jsonl" \
        in trees[1]


@pytest.mark.parametrize("argv", [
    ["faults", "--scenario", "baseline,cpu_stall", "--seconds", "2"],
    ["scale", "--cores", "2", "--threads-per-core", "2", "--tasks", "8"],
], ids=["faults", "scale"])
def test_batch_stdout_is_the_json_document(argv):
    """Regression: without ``--out``, farm progress and status lines
    were printed into the same stream as the document."""
    code, output = run_cli(argv + ["--workers", "2"])
    assert code == 0
    assert json.loads(output)


@pytest.mark.parametrize("argv", [
    ["check", "--runs", "2"],
    ["faults", "--scenario", "baseline", "--seconds", "2"],
    ["scale", "--cores", "2", "--threads-per-core", "2", "--tasks", "8"],
], ids=["check", "faults", "scale"])
def test_refused_checkpoint_exits_2(tmp_path, argv):
    """Regression: resuming another batch's checkpoint (here seed 0's,
    as seed 1) raised a traceback — exit 1, the "scenarios failed"
    code — instead of printing a one-line refusal."""
    checkpoint = str(tmp_path / "seed0.jsonl")
    code, _ = run_cli(argv + ["--seed", "0", "--checkpoint", checkpoint])
    assert code == 0
    code, output = run_cli(argv + ["--seed", "1",
                                   "--checkpoint", checkpoint])
    assert code == 2
    assert output.startswith(f"{argv[0]}: {checkpoint}: ")
    assert output.endswith("refusing to resume\n")
    assert output.count("\n") == 1


def test_check_counts_item_errors_and_all_failures(monkeypatch):
    """Regression: ``repro check`` ignored item errors and printed the
    length of the truncated failure list."""
    import repro.check.runner as runner_mod
    from repro.check.scenario import derive_run_seed

    real = runner_mod.run_fuzz_index

    def planted(base_seed, index, **kwargs):
        if index == 1:
            raise RuntimeError("boom")
        payload = real(base_seed, index, **kwargs)
        if index >= 2:
            payload.update(ok=False, summary="planted",
                           artifact={"seed": payload["seed"],
                                     "summary": "planted"})
        return payload

    monkeypatch.setattr(runner_mod, "run_fuzz_index", planted)
    code, output = run_cli(["check", "--runs", "4", "--max-failures", "1"])
    assert code == 1
    lines = output.splitlines()
    assert lines == [
        f"seed {derive_run_seed(0, 2)}: FAIL — planted",
        f"seed {derive_run_seed(0, 1)}: ERROR — RuntimeError: boom",
        "3 runs from seed 0: 3 differential, 3 failure(s)",
    ]


def test_interrupted_batch_exits_3(monkeypatch):
    import signal

    import repro.farm as farm_pkg
    from repro.farm import FarmInterrupted, FarmResult

    def interrupted(*args, **kwargs):
        raise FarmInterrupted(signal.SIGTERM, FarmResult(2),
                              checkpoint_path="c.jsonl")

    monkeypatch.setattr(farm_pkg, "farm_check", interrupted)
    code, output = run_cli(["check", "--runs", "2",
                            "--checkpoint", "c.jsonl"])
    assert code == 3
    assert output == ("check: farm interrupted by SIGTERM: 0/2 item(s) "
                      "done, 2 pending; resume from checkpoint "
                      "c.jsonl\n")


def test_farm_status_empty_dir(tmp_path):
    """Regression: a missing or checkpoint-free location is a normal
    answer ("no checkpoints", exit 0), not a traceback."""
    code, output = run_cli([
        "farm", "status", "--checkpoint-dir", str(tmp_path),
    ])
    assert code == 0
    assert "no checkpoints" in output

    # files that are not checkpoints, binary ones included, are skipped
    (tmp_path / "notes.txt").write_text("not json\n")
    (tmp_path / "blob.bin").write_bytes(b"\xff\xfe\x00")
    code, output = run_cli([
        "farm", "status", "--checkpoint-dir", str(tmp_path),
    ])
    assert code == 0
    assert "no checkpoints" in output

    missing = tmp_path / "does-not-exist"
    code, output = run_cli([
        "farm", "status", "--checkpoint-dir", str(missing),
    ])
    assert code == 0
    assert "no checkpoints" in output


def test_farm_status_lists_checkpoints(tmp_path):
    checkpoint = tmp_path / "scale.jsonl"
    code, _ = run_cli([
        "scale", "--cores", "2", "--threads-per-core", "2",
        "--tasks", "8", "--workers", "1",
        "--checkpoint", str(checkpoint),
        "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0

    code, output = run_cli([
        "farm", "status", "--checkpoint-dir", str(tmp_path),
    ])
    assert code == 0
    assert "scale" in output
    assert "2 item(s) completed" in output

    # pointing at the file directly works too
    code, output = run_cli(["farm", "status",
                            "--checkpoint", str(checkpoint)])
    assert code == 0
    assert "2 item(s) completed" in output


def test_scale_command_workers_invariant(tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    code, output = run_cli([
        "scale", "--cores", "2", "--threads-per-core", "2",
        "--tasks", "8", "--workers", "1", "--out", str(serial),
    ])
    assert code == 0
    assert "jobs/minute" in output
    code, _ = run_cli([
        "scale", "--cores", "2", "--threads-per-core", "2",
        "--tasks", "8", "--workers", "2", "--out", str(parallel),
    ])
    assert code == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_scale_command_rejects_oversized_topology():
    code, output = run_cli(["scale", "--cores", "99"])
    assert code == 2
    assert "subset" in output
