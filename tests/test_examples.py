"""Every script in ``examples/`` runs to exit status 0.

The examples are the library's usage documentation; nothing else
executes them, so an API change that breaks one would go unnoticed.
Each runs in a fresh interpreter, as a reader would run it.
"""

import os
import pathlib
import subprocess
import sys

import pytest

pytestmark = pytest.mark.tier1

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_are_collected():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(script)], cwd=str(tmp_path), env=environment,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
