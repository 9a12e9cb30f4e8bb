"""The probe-stream hash behind every snapshot payload's
``probe_stream_sha256``.

Its bytes are defined here independently of the implementation: the
rows ``(topic, time, data)`` of each batch of
:data:`~repro.snapshot.programs.STREAM_HASH_BATCH` events, and then of
the partial last batch, are pickled as one list with protocol 5 in
memo-free (``fast``) mode, any value whose type is not exactly ``str``,
``int``, ``float``, ``bool``, ``None``, ``list``, ``tuple``, ``dict``,
``bytes`` or ``bytearray`` being written as its ``str()``, and each
batch's bytes extend one SHA-256.  The model below pickles with the
pure-Python pickler, the hash with the C one.  Reading the digest
mid-stream must not move the final one.  Without a memo the bytes
depend on the values alone: rows that share objects hash as rows
holding fresh copies, and a cyclic payload cannot be hashed.

The hash encodes a batch only when it is full, so it holds payloads by
reference until then.  The publish-time guard runs every program of
the registry with a second hash fed copies taken when each event is
published: a publisher that mutated a payload after publishing it would
make the two digests differ.  The guard also requires that no payload
carries a set or a frozenset, which the C pickler writes natively in
string-hash order (and, for frozensets, fails on in memo-free mode).
"""

import copy
import hashlib
import io
import pickle

import pytest

from repro.check.scenario import generate_scenario
from repro.snapshot import build_program
from repro.snapshot.programs import STREAM_HASH_BATCH, _StreamHash

pytestmark = pytest.mark.tier1


class _Opaque:
    """Not a native pickle type: pickled as its ``str()``."""

    def __str__(self):
        return "<opaque 7>"


class _Level(int):
    """A subclass of a native type is not that type: its ``str()``."""


EVENTS = [
    ("engine.compact", 0.0, {"swept": 64, "survivors": 3}),
    ("kernel.dispatch", 1_000_000.25,
     {"thread": "tau1-optional-3", "cpu": 12, "prio": None}),
    ("rtseed.job_done", 1.0e9 / 3.0,
     {"met": True, "delta_m": 18255.74852421665, "qos": -0.0,
      "nested": [[1, 2.5], {"b": None, "a": (3, [4.125])}],
      "huge": 2 ** 70}),
    ("custom", 2e9, {"obj": _Opaque(), "items": [_Opaque(), 1e-300],
                     "level": _Level(99), "name": "x" * 300,
                     "raw": b"\x00\x01"}),
]

#: What the hash pickles as itself.  The C pickler writes sets and
#: frozensets natively too, but no payload may carry them.
_NATIVE = (str, int, float, bool, type(None), list, tuple, dict,
           bytes, bytearray)


class _ModelPickler(pickle._Pickler):
    """The pure-Python pickler, which calls the override for every
    value, natives included."""

    def reducer_override(self, obj):
        if type(obj) in _NATIVE or isinstance(obj, type):
            return NotImplemented
        return str, (str(obj),)


def _pickled(rows):
    buffer = io.BytesIO()
    pickler = _ModelPickler(buffer, protocol=5)
    pickler.fast = True
    pickler.dump(rows)
    return buffer.getvalue()


def _stream(n_events):
    """``n_events`` distinct events cycling through :data:`EVENTS`."""
    for index in range(n_events):
        topic, time, data = EVENTS[index % len(EVENTS)]
        yield topic, time + index, dict(data, index=index)


def _expected_digest(events):
    digest = hashlib.sha256()
    for start in range(0, len(events), STREAM_HASH_BATCH):
        digest.update(_pickled(
            [tuple(event)
             for event in events[start:start + STREAM_HASH_BATCH]]))
    return digest.hexdigest()


def _digest(events):
    stream = _StreamHash()
    for event in events:
        stream(*event)
    return stream.hexdigest()


def test_stream_hash_matches_the_pickled_form():
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


def _fresh(text):
    """An equal string that is a different object."""
    copied = (text + ".")[:-1]
    assert copied == text and copied is not text
    return copied


@pytest.mark.parametrize("n_events", [3, STREAM_HASH_BATCH + 3])
def test_shared_objects_hash_as_fresh_copies(n_events):
    """One payload's strings and containers shared by every row give
    the digest of rows that each hold their own copies: a memo would
    write the shared objects as back-references."""
    topic, thread = "kernel.dispatch", "tau1-optional-3"
    nested = {"path": [thread, thread], "at": (thread, 2.5)}
    shared = [(topic, float(index), {"thread": thread, "nested": nested})
              for index in range(n_events)]
    copies = [
        (_fresh(topic), float(index),
         {_fresh("thread"): _fresh(thread),
          _fresh("nested"): {
              _fresh("path"): [_fresh(thread), _fresh(thread)],
              _fresh("at"): (_fresh(thread), 2.5)}})
        for index in range(n_events)
    ]
    assert _digest(shared) == _digest(copies) == _expected_digest(copies)


def test_cyclic_payload_raises_value_error():
    payload = {"thread": "tau1"}
    payload["self"] = [payload]
    stream = _StreamHash()
    stream("custom", 0.0, payload)
    with pytest.raises(ValueError):
        stream.hexdigest()


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


def _carries_a_set(value):
    if isinstance(value, (set, frozenset)):
        return True
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple)):
        return any(_carries_a_set(item) for item in value)
    return False


@pytest.mark.parametrize("spec", GUARDED_PROGRAMS.values(),
                         ids=GUARDED_PROGRAMS.keys())
def test_payloads_are_not_mutated_after_publishing(spec):
    program = build_program(dict(spec)).build()
    guard = _StreamHash()
    with_sets = []

    def on_event(topic, time, data):
        if _carries_a_set(data):
            with_sets.append(topic)
        guard(topic, time, copy.deepcopy(data))

    program.kernel.probes.subscribe(on_event)
    program.attach_attested()
    payload = program.spawn().finish()
    assert payload["probe_events"] == guard.events > 0
    assert payload["probe_stream_sha256"] == guard.hexdigest()
    assert with_sets == []
