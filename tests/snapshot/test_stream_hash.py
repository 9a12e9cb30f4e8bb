"""The probe-stream hash behind every snapshot payload's
``probe_stream_sha256``.

Its bytes are defined here independently of the implementation: the
rows ``[topic, time, data]`` of each batch of
:data:`~repro.snapshot.programs.STREAM_HASH_BATCH` events, and then of
the partial last batch, are encoded with ``json.dumps(...,
sort_keys=True, default=str)``, and each batch's bytes extend one
SHA-256.  Reading the digest mid-stream must not move the final one.

The hash encodes a batch only when it is full, so it holds payloads by
reference until then.  The publish-time guard runs every program of
the registry with a second hash fed copies taken when each event is
published: a publisher that mutated a payload after publishing it would
make the two digests differ.
"""

import hashlib
import json

import pytest

from repro.check.scenario import generate_scenario
from repro.snapshot import build_program
from repro.snapshot.programs import STREAM_HASH_BATCH, _StreamHash

pytestmark = pytest.mark.tier1


class _Opaque:
    """Not JSON-serializable: routed through ``default=str``."""

    def __str__(self):
        return "<opaque 7>"


EVENTS = [
    ("engine.compact", 0.0, {"swept": 64, "survivors": 3}),
    ("kernel.dispatch", 1_000_000.25,
     {"thread": "tau1-optional-3", "cpu": 12, "prio": None}),
    ("rtseed.job_done", 1.0e9 / 3.0,
     {"met": True, "delta_m": 18255.74852421665, "qos": -0.0,
      "nested": [[1, 2.5], {"b": None, "a": [3, [4.125]]}]}),
    ("custom", 2e9, {"obj": _Opaque(), "items": [_Opaque(), 1e-300]}),
]


def _stream(n_events):
    """``n_events`` distinct events cycling through :data:`EVENTS`."""
    for index in range(n_events):
        topic, time, data = EVENTS[index % len(EVENTS)]
        yield topic, time + index, dict(data, index=index)


def _expected_digest(events):
    digest = hashlib.sha256()
    for start in range(0, len(events), STREAM_HASH_BATCH):
        rows = [[topic, time, data] for topic, time, data
                in events[start:start + STREAM_HASH_BATCH]]
        digest.update(json.dumps(rows, sort_keys=True,
                                 default=str).encode())
    return digest.hexdigest()


def test_stream_hash_matches_the_json_dumps_form():
    assert STREAM_HASH_BATCH == 1024
    events = list(_stream(2 * STREAM_HASH_BATCH + 3))
    stream = _StreamHash()
    for index, event in enumerate(events, start=1):
        stream(*event)
        if index in (1, STREAM_HASH_BATCH, STREAM_HASH_BATCH + 500):
            # a mid-stream read sees exactly the prefix ...
            assert stream.hexdigest() == _expected_digest(events[:index])
            assert stream.events == index
    # ... and leaves the final digest where it would be without it
    assert stream.events == len(events)
    assert stream.hexdigest() == _expected_digest(events)
    assert stream.hexdigest() == stream.hexdigest()


def test_empty_stream_is_the_empty_sha256():
    assert _StreamHash().hexdigest() == hashlib.sha256().hexdigest()
    assert _StreamHash().events == 0


#: Every program kind, a fault plan under ``faults`` and ``check``;
#: the first and third streams outgrow one batch.
GUARDED_PROGRAMS = {
    "overheads": {"kind": "overheads", "np": 16, "jobs": 10},
    "trade": {"kind": "trade", "seconds": 12, "seed": 3},
    "faults": {"kind": "faults", "scenario": "signal_storm",
               "seconds": 12, "seed": 7},
    "check": {"kind": "check",
              "scenario": generate_scenario(3, fault_rate=1.0).to_dict()},
}


@pytest.mark.parametrize("spec", GUARDED_PROGRAMS.values(),
                         ids=GUARDED_PROGRAMS.keys())
def test_payloads_are_not_mutated_after_publishing(spec):
    program = build_program(dict(spec)).build()
    guard = _StreamHash()
    program.kernel.probes.subscribe(
        lambda topic, time, data: guard(
            topic, time, json.loads(json.dumps(data, default=str))))
    program.attach_attested()
    payload = program.spawn().finish()
    assert payload["probe_events"] == guard.events > 0
    assert payload["probe_stream_sha256"] == guard.hexdigest()
