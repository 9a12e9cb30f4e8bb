"""Slow tier: the pinned bytes of the checked sweep.

``repro scale`` is the only document that covers every load x policy x
np point of Figures 10-13 (plus the three ablations), so it is the one
pin that reaches every cost-model branch the evaluation uses: SMT rates
on loaded cores, background-pressure lock handoffs, every assignment
policy.  About 5 s at 2 workers on a 2-vCPU host.  Run with
``-m slow``.
"""

import hashlib
import io

import pytest

from repro.cli import main

pytestmark = pytest.mark.slow


def test_sweep_keeps_its_bytes_and_every_claim(tmp_path):
    path = tmp_path / "sweep.json"
    out = io.StringIO()
    code = main(["scale", "--workers", "2", "--seed", "0", "--out",
                 str(path)], out=out)
    assert code == 0
    assert "scale: 27/27 claim(s) hold" in out.getvalue()
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] \
        == "6c3b28f322e82c69"
