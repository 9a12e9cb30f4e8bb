"""``repro snapshot`` CLI surface (with ``repro run --emit payload``
as the uninterrupted reference) and the resumable campaign."""

import io
import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.tier1


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_snapshot_run_emits_deterministic_payload():
    run = ["run", "--program", "trade", "--seconds", "4", "--seed", "3",
           "--emit", "payload"]
    code1, text1 = _run(run)
    code2, text2 = _run(run)
    assert code1 == code2 == 0
    assert text1 == text2
    payload = json.loads(text1)
    assert payload["program"]["kind"] == "trade"
    assert payload["probe_stream_sha256"]


def test_snapshot_dump_inspect_resume_flow(tmp_path):
    snap = str(tmp_path / "snap.json")
    program = ["--program", "trade", "--seconds", "4", "--seed", "3"]
    code, text = _run(["snapshot", "dump", *program,
                       "--at-events", "300", "--snapshot", snap])
    assert code == 0
    assert "wrote snapshot of trade at 300 events" in text

    code, text = _run(["snapshot", "inspect", "--snapshot", snap])
    assert code == 0
    summary = json.loads(text)
    assert summary["schema"] == "rtseed-snapshot/3"
    assert "backend" not in summary
    assert summary["barrier"]["events_processed"] == 300
    assert summary["engine"]["events_processed"] == 300

    out_path = str(tmp_path / "resumed.json")
    code, _text = _run(["snapshot", "resume", "--snapshot", snap,
                        "--out", out_path])
    assert code == 0
    resumed = json.loads(open(out_path).read())

    code, full_text = _run(["run", *program, "--emit", "payload"])
    assert code == 0
    assert resumed == json.loads(full_text)


def test_snapshot_errors_are_exit_code_2(tmp_path):
    code, text = _run(["snapshot", "dump", "--program", "trade",
                       "--snapshot", str(tmp_path / "s.json")])
    assert code == 2
    assert "--at-events" in text

    code, text = _run(["snapshot", "inspect"])
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, text = _run(["snapshot", "resume", "--snapshot", str(bad)])
    assert code == 2
    assert "snapshot" in text

    code, text = _run(["run", "--program", "faults", "--emit", "payload",
                       "--scenario", "not_a_scenario"])
    assert code == 2
    assert "unknown scenario" in text

    code, text = _run(["run", "--program", "check", "--emit", "payload"])
    assert code == 2
    assert "--artifact" in text


def test_two_engine_snapshot_resume_exits_2(tmp_path):
    """A ``rtseed-snapshot/1`` document (backend header, spec pinned to
    an engine) is refused with a take-it-again message."""
    snap = tmp_path / "snap.json"
    code, _text = _run(["snapshot", "dump", "--program", "trade",
                        "--seconds", "4", "--at-events", "200",
                        "--snapshot", str(snap)])
    assert code == 0
    document = json.loads(snap.read_text())
    document["schema"] = "rtseed-snapshot/1"
    document["backend"] = "fast"
    document["program"]["engine"] = "fast"
    snap.write_text(json.dumps(document))

    code, text = _run(["snapshot", "resume", "--snapshot", str(snap)])
    assert code == 2
    assert "two-engine build" in text
    assert "take the snapshot again" in text


def test_faults_checkpoint_resume_identical(tmp_path):
    """A campaign cut short after one scenario resumes from its farm
    checkpoint to the uninterrupted report bytes."""
    checkpoint = tmp_path / "c.jsonl"
    argv = ["faults", "--scenario", "cpu_stall,net_timeouts",
            "--seconds", "4", "--checkpoint", str(checkpoint)]
    full = tmp_path / "full.json"
    code, _ = _run(argv + ["--out", str(full)])
    assert code == 0

    lines = checkpoint.read_text().splitlines(True)
    assert len(lines) == 3  # header + one line per scenario
    checkpoint.write_text("".join(lines[:2]))

    resumed = tmp_path / "resumed.json"
    code, _ = _run(argv + ["--out", str(resumed)])
    assert code == 0
    assert resumed.read_bytes() == full.read_bytes()
    # the pending scenario ran once more and was checkpointed
    assert len(checkpoint.read_text().splitlines()) == 3
