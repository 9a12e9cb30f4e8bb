"""Pinned bytes of documents whose runs the program registry
(:mod:`repro.snapshot.programs`) builds: the resilience campaign, a
clean and a faulted check batch, and the ``faults`` payload.  A change
that moves one of these digests changes a seeded document, and says
which bytes moved and why."""

import hashlib
import io

import pytest

from repro.cli import main

pytestmark = pytest.mark.tier1


def _sha16(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _stdout(argv):
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return out.getvalue().encode()


def test_campaign_keeps_its_bytes():
    document = _stdout([
        "faults", "--scenario",
        "baseline,cpu_stall,net_timeouts,signal_storm,overload_degrade",
        "--seconds", "12", "--seed", "7",
    ])
    assert _sha16(document) == "7b98b8d0c0ed5fe8"


@pytest.mark.parametrize("argv, digest", [
    (["--runs", "50", "--seed", "5"], "3f1da5dd5103989b"),
    (["--runs", "25", "--seed", "105", "--fault-rate", "0.5"],
     "c96397b50c8294f2"),
], ids=["clean", "faulted"])
def test_check_document_keeps_its_bytes(tmp_path, argv, digest):
    path = tmp_path / "check.json"
    _stdout(["check", *argv, "--out", str(path)])
    assert _sha16(path.read_bytes()) == digest


def test_faults_payload_keeps_its_bytes():
    payload = _stdout(["run", "--program", "faults", "--scenario",
                       "cpu_stall", "--seconds", "4", "--emit", "payload"])
    assert _sha16(payload) == "73875a487596d876"
