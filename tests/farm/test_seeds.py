"""Regression tests for per-run seed derivation.

The check batch used to seed run ``k`` as ``base_seed + k`` — a
*sequential* scheme that made a run's identity depend on its position
relative to every other run, exactly what a sharded farm cannot
preserve.  ``derive_run_seed`` replaces it with an order-free spawn
(:class:`numpy.random.SeedSequence` with a per-index ``spawn_key``):
run ``k``'s scenario is a pure function of ``(base_seed, k)``, so a
shard can run any subset of indices in isolation and still produce the
serial batch's scenarios.  These tests pin the derived values and the
generated scenarios so the mapping can never silently drift — a drift
would invalidate every recorded artifact seed.
"""

import pytest

from repro.check.runner import run_fuzz_index
from repro.check.scenario import derive_run_seed
from repro.farm import farm_check

pytestmark = pytest.mark.tier1


def test_derived_seeds_pinned():
    # frozen forever: recorded repro artifacts embed these seeds
    assert [derive_run_seed(0, i) for i in range(4)] == [
        3757552657, 673228719, 3241444873, 3685993406,
    ]
    assert [derive_run_seed(5, i) for i in range(4)] == [
        803261128, 3767054407, 3210010690, 2928346150,
    ]
    assert derive_run_seed(123456, 789) == 1599372551


def test_derivation_is_order_free():
    # any index is computable alone, without deriving its predecessors
    alone = derive_run_seed(7, 50)
    batch = [derive_run_seed(7, i) for i in range(60)]
    assert batch[50] == alone


def test_distinct_across_indices_and_bases():
    seeds = {derive_run_seed(base, index)
             for base in range(8) for index in range(64)}
    assert len(seeds) == 8 * 64


def test_scenarios_identical_serial_vs_sharded():
    # the in-process batch and a 3-worker farm run the SAME scenarios:
    # run k's seed is derive_run_seed(base, k) whichever worker runs it
    expected = [derive_run_seed(9, index) for index in range(6)]
    for workers in (1, 3):
        document, result = farm_check(6, seed=9, shrink=False,
                                      workers=workers)
        assert document["completed_runs"] == 6
        assert [payload["seed"] for payload in result.ordered()] \
            == expected


def test_run_index_payload_reports_derived_seed():
    payload = run_fuzz_index(5, 2, shrink=False)
    assert payload["index"] == 2
    assert payload["seed"] == derive_run_seed(5, 2)
    assert payload["ok"] is True
