"""The probe-stream hash behind every snapshot payload's
``probe_stream_sha256``: its cached encoder must give exactly the bytes
of ``json.dumps(..., sort_keys=True, default=str)``, or every recorded
payload hash would move."""

import hashlib
import json

import pytest

from repro.snapshot.programs import _StreamHash

pytestmark = pytest.mark.tier1


class _Opaque:
    """Not JSON-serializable: routed through ``default=str``."""

    def __str__(self):
        return "<opaque 7>"


EVENTS = [
    ("engine.event_pop", 0.0, {"seq": 1, "priority": 0}),
    ("kernel.dispatch", 1_000_000.25,
     {"thread": "tau1-optional-3", "cpu": 12, "prio": None}),
    ("rtseed.job_done", 1.0e9 / 3.0,
     {"met": True, "delta_m": 18255.74852421665, "qos": -0.0,
      "nested": [[1, 2.5], {"b": None, "a": [3, [4.125]]}]}),
    ("custom", 2e9, {"obj": _Opaque(), "items": [_Opaque(), 1e-300]}),
]


def test_stream_hash_matches_the_json_dumps_form():
    stream = _StreamHash()
    expected = hashlib.sha256()
    for topic, time, data in EVENTS:
        stream(topic, time, data)
        expected.update(json.dumps(
            [topic, time, sorted(data.items())],
            sort_keys=True, default=str,
        ).encode())
    assert stream.events == len(EVENTS)
    assert stream.hexdigest() == expected.hexdigest()
