"""The guarantee that matters operationally: restore in a FRESH
process.

The in-process round-trip (``test_roundtrip``) could in principle lean
on leftover interpreter state; these tests dump a snapshot in one
``python -m repro.cli`` process and resume it in another, then require
the resumed payload to be byte-identical (``cmp`` semantics: exact
file equality) to an uninterrupted ``repro run --emit payload`` —
plain, and for a fault-plan scenario.  This is the same flow the CI
``snapshot-smoke`` job drives.  In the ``reference`` case the
uninterrupted run executes
on the model of the execution core (``tests/engine/reference.py``),
so the checkpointed core must also reproduce the model's bytes.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.tier1

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
REPO_SRC = os.path.join(REPO_ROOT, "src")

# ``repro.cli`` run inside ``model_core()``
ON_MODEL = (
    "import sys\n"
    "from repro.cli import main\n"
    "from tests.engine.reference import model_core\n"
    "with model_core():\n"
    "    status = main(sys.argv[1:])\n"
    "sys.exit(status)\n"
)


def _cli(args, cwd, engine="fast"):
    environment = dict(os.environ)
    if engine == "fast":
        environment["PYTHONPATH"] = REPO_SRC
        command = ["-m", "repro.cli"]
    else:
        environment["PYTHONPATH"] = os.pathsep.join([REPO_SRC, REPO_ROOT])
        command = ["-c", ON_MODEL]
    return subprocess.run(
        [sys.executable, *command, *args],
        cwd=cwd, env=environment, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_fresh_process_resume_is_byte_identical(tmp_path, engine):
    base = ["snapshot"]
    program = ["--program", "trade", "--seconds", "4", "--seed", "3"]
    run = _cli(["run", *program, "--emit", "payload=full.json"],
               cwd=str(tmp_path), engine=engine)
    assert run.returncode == 0, run.stdout + run.stderr
    dump = _cli(base + ["dump", *program, "--at-events", "300",
                        "--snapshot", "snap.json"], cwd=str(tmp_path))
    assert dump.returncode == 0, dump.stdout + dump.stderr
    resume = _cli(base + ["resume", "--snapshot", "snap.json",
                          "--out", "resumed.json"], cwd=str(tmp_path))
    assert resume.returncode == 0, resume.stdout + resume.stderr
    full = (tmp_path / "full.json").read_bytes()
    resumed = (tmp_path / "resumed.json").read_bytes()
    assert full == resumed  # cmp-level equality


def test_fresh_process_resume_with_fault_plan(tmp_path):
    base = ["snapshot"]
    program = ["--program", "faults", "--scenario", "cpu_stall",
               "--seconds", "5"]
    run = _cli(["run", *program, "--emit", "payload=full.json"],
               cwd=str(tmp_path))
    assert run.returncode == 0, run.stdout + run.stderr
    dump = _cli(base + ["dump", *program, "--at-events", "250",
                        "--snapshot", "snap.json"], cwd=str(tmp_path))
    assert dump.returncode == 0, dump.stdout + dump.stderr
    resume = _cli(base + ["resume", "--snapshot", "snap.json",
                          "--out", "resumed.json"], cwd=str(tmp_path))
    assert resume.returncode == 0, resume.stdout + resume.stderr
    assert (tmp_path / "full.json").read_bytes() \
        == (tmp_path / "resumed.json").read_bytes()
