"""``repro run``: one verb over the program registry.

Every emission attaches only the observers it needs, so asking for
more documents never changes the bytes of any one of them; the table
runs with nothing attached; and input no program can be built from is
refused with one line and exit code 2, before the first event.
"""

import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.snapshot.programs import OverheadsProgram, TradeProgram

pytestmark = pytest.mark.tier1

PROGRAMS = {
    "overheads": ["--program", "overheads", "--np", "8", "--jobs", "3"],
    "trade": ["--program", "trade", "--seconds", "3", "--seed", "2"],
    "faults": ["--program", "faults", "--scenario", "cpu_stall",
               "--seconds", "4"],
}
EVERY = ["table", "trace", "jsonl", "metrics", "report", "payload",
         "flight"]


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _emit(tmp_path, program, kinds, tag):
    """Run ``program`` once emitting ``kinds`` to files; returns their
    bytes by kind."""
    paths = {kind: tmp_path / f"{tag}-{kind}" for kind in kinds}
    argv = ["run", *PROGRAMS[program], "--no-wallclock"]
    for kind, path in paths.items():
        argv += ["--emit", f"{kind}={path}"]
    code, _output = run_cli(argv)
    assert code == 0
    return {kind: path.read_bytes() for kind, path in paths.items()}


@pytest.mark.parametrize("program, kinds", [
    ("overheads", EVERY),
    ("trade", EVERY),
    ("faults", ["payload", "trace"]),
])
def test_emissions_do_not_change_each_other(tmp_path, program, kinds):
    supported = EVERY if program != "faults" else EVERY[1:]
    together = _emit(tmp_path, program, supported, "all")
    for kind in kinds:
        alone = _emit(tmp_path, program, [kind], kind)
        assert alone[kind] == together[kind], kind


@pytest.mark.parametrize("program", ["overheads", "trade"])
def test_report_is_the_payloads_run_report(program):
    code, report = run_cli(["run", *PROGRAMS[program], "--emit", "report",
                            "--no-wallclock"])
    assert code == 0
    code, payload = run_cli(["run", *PROGRAMS[program], "--emit",
                             "payload"])
    assert code == 0
    assert json.loads(report) == json.loads(payload)["run_report"]


def test_report_metrics_section_is_the_metrics_json():
    """The report's ``metrics`` section, rendered as the removed
    ``repro metrics --json`` rendered it, has that command's bytes."""
    code, output = run_cli(["run", *PROGRAMS["overheads"], "--emit",
                            "report", "--no-wallclock"])
    assert code == 0
    metrics = json.loads(output)["metrics"]
    rendered = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(rendered.encode()).hexdigest()[:16] \
        == "d215ef10fb159be1"


def test_trade_payload_keeps_its_bytes(tmp_path):
    """The payload's ``trading`` summary and the ``trading.decision``
    events in its stream hash carry each decision's confidence at full
    precision, where the table rounds to two decimals.  Indicator
    signals reach the payload only through the decision kinds, so
    their bits are pinned by the exact-model tests of
    ``tests/trading/test_indicators.py``."""
    path = tmp_path / "payload.json"
    code, _output = run_cli(["run", "--program", "trade", "--seconds",
                             "30", "--emit", f"payload={path}"])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] \
        == "ec254e5682832035"


@pytest.mark.parametrize("argv, digest", [
    # MACD needs slow + signal = 35 ticks of history, so the 30 s run
    # never refines it; this one does
    (["--program", "trade", "--seconds", "60"], "ed4ceecc1150dd27"),
    # the Section V-A task on the loaded evaluation topology: lock
    # handoffs priced by background pressure, and SMT rates on cores
    # whose every hardware thread carries the load flag
    (["--program", "overheads", "--np", "57", "--jobs", "3", "--load",
      "cpu_memory"], "e8c06c3586dbf855"),
], ids=["trade-60s", "overheads-np57-cpu-memory"])
def test_long_and_loaded_payloads_keep_their_bytes(tmp_path, argv, digest):
    path = tmp_path / "payload.json"
    code, _output = run_cli(["run", *argv, "--emit", f"payload={path}"])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("program, cls", [
    ("overheads", OverheadsProgram),
    ("trade", TradeProgram),
])
def test_table_leaves_the_probe_bus_inactive(monkeypatch, program, cls):
    seen = []
    drain = cls.drain

    def watched(self):
        seen.append((self.kernel.probes.active,
                     len(self.kernel.probes._subs)))
        return drain(self)

    monkeypatch.setattr(cls, "drain", watched)
    code, _output = run_cli(["run", *PROGRAMS[program]])
    assert code == 0
    assert seen == [(False, 0)]


def test_status_lines_only_without_a_stdout_document(tmp_path):
    trace = tmp_path / "trace.json"
    code, output = run_cli(["run", *PROGRAMS["overheads"],
                            "--emit", f"trace={trace}", "--emit",
                            "metrics"])
    assert code == 0
    assert trace.exists()
    assert "wrote" not in output
    assert output.startswith("counters:")


@pytest.mark.parametrize("argv, message", [
    (["--program", "faults"], "has no table"),
    (["--program", "check", "--emit", "table"], "has no table"),
    (["--program", "trade", "--emit", "trace", "--emit", "payload"],
     "only one emission may go to stdout"),
    (["--program", "trade", "--emit", "trace=a", "--emit", "trace=b"],
     "given twice"),
])
def test_refused_emissions_exit_2(argv, message):
    code, output = run_cli(["run", *argv])
    assert code == 2
    assert message in output
    assert output.count("\n") == 1


def test_table_refusal_names_the_supported_emissions():
    code, output = run_cli(["run", "--program", "faults"])
    assert code == 2
    for kind in EVERY[1:]:
        assert kind in output


@pytest.mark.parametrize("argv", [
    ["--program", "overheads", "--np", "0"],
    ["--program", "overheads", "--jobs", "0"],
    ["--program", "overheads", "--jobs", "-1"],
    ["--program", "trade", "--seconds", "0"],
    ["--program", "trade", "--od-ms", "-5"],
    ["--program", "trade", "--od-ms", "nan"],
    ["--program", "overheads", "--np", "300", "--emit", "payload"],
    ["--program", "check", "--artifact", "/nonexistent.json",
     "--emit", "payload"],
], ids=["np0", "jobs0", "jobs-1", "seconds0", "od-5", "od-nan", "np300",
        "no-artifact"])
def test_unbuildable_spec_exits_2(argv):
    """Regression: out-of-range input raised a traceback and exit 1,
    the code for a failed run."""
    code, output = run_cli(["run", *argv])
    assert code == 2
    assert output.startswith("run: ")
    assert output.count("\n") == 1


def test_unbuildable_snapshot_dump_exits_2(tmp_path):
    code, output = run_cli(["snapshot", "dump", "--program", "overheads",
                            "--np", "0", "--at-events", "5",
                            "--snapshot", str(tmp_path / "s.json")])
    assert code == 2
    assert output.startswith("snapshot: ")
    assert output.count("\n") == 1


def test_negative_barrier_rejected_when_parsing(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["snapshot", "dump", "--program", "trade", "--at-events",
              "-3", "--snapshot", str(tmp_path / "s.json")])
    assert exit_info.value.code == 2
    assert "--at-events" in capsys.readouterr().err


def test_error_while_running_propagates(monkeypatch):
    def failing(self):
        raise ValueError("broke mid-run")

    monkeypatch.setattr(OverheadsProgram, "drain", failing)
    with pytest.raises(ValueError, match="broke mid-run"):
        run_cli(["run", *PROGRAMS["overheads"]])
