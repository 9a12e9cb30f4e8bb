"""The paper's evaluation shapes as checked claims on the farmed sweep.

:data:`CLAIMS` is the one definition of what the Figures 10-13 grid
and the three ablations must show.  Each entry is ``(id, anchor,
check)``:

* ``anchor`` is the EXPERIMENTS.md heading that discusses the claim;
* ``check(read)`` reads sweep points through a :class:`_Reader` and
  returns ``(holds, margin, point)``.  ``margin`` is observed ÷
  threshold at the point closest to flipping, oriented so that a value
  above 1 holds; it is ``None`` for exact claims (dominance by
  construction, zero counts).  ``point`` names the grid coordinates
  that decided the margin, or an exact claim's first failure.

:func:`evaluate` runs every check over a sweep document's points.  A
claim that reads a point the document lacks — a farm error, a
quarantine, a custom ``items=`` grid — fails and names the missing
items, so a missing point never lets a claim pass.  Margins come from
the payloads' rounded means and are rounded to 4 places, which keeps
the verdicts byte-identical at any worker count.

Thresholds and np scopes are those the Section V evaluation was first
checked with; each check's docstring states its scope and the reason
for it.
"""

import math

from repro.bench.overheads import PARALLEL_COUNTS
from repro.bench.sweeps import (
    GLOBAL_UTILIZATIONS,
    QOS_COUNTS,
    SCHEDULABILITY_UTILIZATIONS,
    SWEEP_LOADS,
    SWEEP_POLICIES,
)

FIG10 = "Figure 10 — Δm, overhead of beginning the mandatory part"
FIG11 = "Figure 11 — Δs, overhead of switching mandatory → optional thread"
FIG12 = "Figure 12 — Δb, overhead of beginning the parallel optional parts"
FIG13 = "Figure 13 — Δe, overhead of ending the parallel optional parts"
SCHEDULABILITY = "Schedulability"
QOS = "QoS vs policy"
GLOBAL = "Global vs partitioned"

#: The two background loads.
LOADED = ("cpu", "cpu_memory")

#: np values where the three policies place parts differently; at 228
#: every policy fills all 228 hardware threads (EXPERIMENTS.md
#: deviation 2).
DISTINCT_PLACEMENTS = tuple(n for n in PARALLEL_COUNTS if n <= 171)

#: Item fields that set a point's resolution, not its grid coordinates.
_RESOLUTION = ("jobs", "seed", "trials")


def _key(item):
    return tuple(sorted((name, value) for name, value in item.items()
                        if name not in _RESOLUTION))


class _Reader:
    """One claim's view of the sweep points.

    A point the document lacks, or a value its payload lacks, reads as
    NaN and is recorded in :attr:`missing`.
    """

    def __init__(self, index):
        self._index = index
        self.missing = []

    def value(self, item, *path):
        value = self._index.get(_key(item))
        for step in path:
            if value is None:
                break
            value = value.get(step)
        if value is None:
            if item not in self.missing:
                self.missing.append(item)
            return math.nan
        return value

    def overhead(self, which, load, policy, n):
        """Mean Δ``which`` [µs] of one Figures 10-13 configuration."""
        item = {"kind": "figure", "load": load, "policy": policy, "np": n}
        return self.value(item, "overheads_us", which, "mean_us")

    def acceptance(self, utilization, algorithm):
        item = {"kind": "ablation_schedulability",
                "utilization": utilization}
        return self.value(item, "acceptance_ratio", algorithm)

    def qos(self, policy, n):
        item = {"kind": "ablation_qos", "policy": policy, "np": n}
        return self.value(item, "qos_work_seconds_per_job")

    def placement(self, utilization, mode, field):
        item = {"kind": "ablation_global_vs_partitioned",
                "utilization": utilization}
        return self.value(item, mode, field)


def _above(pairs, strict=True):
    """Verdict of ``x > y`` (``x >= y`` unless ``strict``) over
    ``(point, x, y)`` triples: it holds when every pair does; the
    margin is the smallest ``x / y``, at ``point``."""
    holds, margin, where = True, math.inf, None
    for point, x, y in list(pairs):
        holds = holds and (x > y if strict else x >= y)
        ratio = x / y if y else math.inf
        if where is None or ratio < margin:
            margin, where = ratio, point
    return holds, margin, where


def _exact(pairs):
    """Verdict of exact predicates over ``(point, ok)`` pairs: no
    margin; the point is the first failure."""
    failures = [point for point, ok in list(pairs) if not ok]
    return not failures, None, failures[0] if failures else None


def _load_over(read, which, high, low, policies=SWEEP_POLICIES,
               counts=PARALLEL_COUNTS):
    """Pairs for Δ``which`` under load ``high`` above load ``low``."""
    return [({"policy": policy, "np": n},
             read.overhead(which, high, policy, n),
             read.overhead(which, low, policy, n))
            for policy in policies for n in counts]


def _flat(read, which, loads, factor):
    """One-by-one's Δ``which`` series: largest under ``factor`` x the
    smallest, at each load."""
    pairs = []
    for load in loads:
        series = [read.overhead(which, load, "one_by_one", n)
                  for n in PARALLEL_COUNTS]
        pairs.append(({"load": load}, factor * min(series), max(series)))
    return _above(pairs)


def _fig10_flat(read):
    """Δm depends on the number of tasks, not on np (n = 1): flat
    within 1.6x at every load."""
    return _flat(read, "m", SWEEP_LOADS, 1.6)


def _fig10_cpu_over_none(read):
    """The CPU load slows the post-sleep wake-up: above no load at
    every policy and np."""
    return _above(_load_over(read, "m", "cpu", "none"))


def _fig10_cpu_memory_over_cpu(read):
    """The CPU-Memory load's cache pollution hurts most: above CPU
    load at every policy and np."""
    return _above(_load_over(read, "m", "cpu_memory", "cpu"))


def _fig11_rises_without_load(read):
    """Under no load the wake burst's dispatch pressure grows with np:
    one-by-one's Δs at np = 228 over 3x its value at np = 4."""
    first, last = PARALLEL_COUNTS[0], PARALLEL_COUNTS[-1]
    return _above([(
        {"load": "none", "policy": "one_by_one"},
        read.overhead("s", "none", "one_by_one", last),
        3.0 * read.overhead("s", "none", "one_by_one", first),
    )])


def _fig11_flat_under_load(read):
    """Under either load the load's constant interference dominates:
    flat within 1.5x."""
    return _flat(read, "s", LOADED, 1.5)


def _fig12_linear(read):
    """One priced signal per part, O(np): one-by-one's Δb at np = 228
    over 3x its value at np = 57 (228/57 = 4), at every load."""
    return _above([
        ({"load": load, "policy": "one_by_one"},
         read.overhead("b", load, "one_by_one", 228),
         3.0 * read.overhead("b", load, "one_by_one", 57))
        for load in SWEEP_LOADS
    ])


def _fig12_policies_close(read):
    """Policy differences are small: at np = 228 the largest Δb is
    under 1.2x the smallest, at every load."""
    pairs = []
    for load in SWEEP_LOADS:
        at228 = [read.overhead("b", load, policy, 228)
                 for policy in SWEEP_POLICIES]
        pairs.append(({"load": load, "np": 228}, 1.2 * min(at228),
                      max(at228)))
    return _above(pairs)


def _fig12_cpu_over_cpu_memory(read):
    """The paper's inversion: ``pthread_cond_signal`` is branch-heavy
    and the CPU load saturates the branch units, so one-by-one's Δb
    under CPU load tops CPU-Memory load at every np."""
    return _above(_load_over(read, "b", "cpu", "cpu_memory",
                             policies=("one_by_one",)))


def _fig12_cpu_memory_over_none(read):
    """One-by-one's Δb under CPU-Memory load tops no load at every np."""
    return _above(_load_over(read, "b", "cpu_memory", "none",
                             policies=("one_by_one",)))


def _fig13_growth(read):
    """Strong growth in np: Δe at np = 228 over 2.5x its value at
    np = 57, for every load and policy (one-by-one grows less than 4x
    because its sibling penalty fades as placements converge at full
    occupancy)."""
    return _above([
        ({"load": load, "policy": policy},
         read.overhead("e", load, policy, 228),
         2.5 * read.overhead("e", load, policy, 57))
        for load in SWEEP_LOADS for policy in SWEEP_POLICIES
    ])


def _fig13_above_fig12(read):
    """Δe is the largest overhead: above Δb at np = 228, for every load
    and policy."""
    return _above([
        ({"load": load, "policy": policy, "np": 228},
         read.overhead("e", load, policy, 228),
         read.overhead("b", load, policy, 228))
        for load in SWEEP_LOADS for policy in SWEEP_POLICIES
    ])


def _obo_over_aba(read, counts):
    return _above([
        ({"load": load, "np": n},
         read.overhead("e", load, "one_by_one", n),
         1.1 * read.overhead("e", load, "all_by_all", n))
        for load in LOADED for n in counts
    ])


def _fig13_one_by_one_over_all_by_all(read):
    """Under load one-by-one's completion-lock handoffs contend with
    warm load on sibling threads: over 1.1x all-by-all at np in
    {16, 32, 57}."""
    return _obo_over_aba(read, (16, 32, 57))


def _fig13_one_by_one_over_all_by_all_to_171(read):
    """The same ordering wherever the placements differ: over 1.1x
    all-by-all at every np <= 171.  At np = 228 every policy fills
    every hardware thread and the curves converge (deviation 2)."""
    return _obo_over_aba(read, DISTINCT_PLACEMENTS)


def _fig13_two_by_two_between(read):
    """Under load two-by-two sits strictly between one-by-one and
    all-by-all at every np <= 171.  At np = 114 one-by-one and
    two-by-two both put two parts on every core: they tie within 0.1%
    and swap order with the seed, so only two-by-two over all-by-all
    is checked there."""
    pairs = []
    for load in LOADED:
        for n in DISTINCT_PLACEMENTS:
            middle = read.overhead("e", load, "two_by_two", n)
            if n != 114:
                pairs.append(({"load": load, "np": n},
                              read.overhead("e", load, "one_by_one", n),
                              middle))
            pairs.append(({"load": load, "np": n}, middle,
                          read.overhead("e", load, "all_by_all", n)))
    return _above(pairs)


def _fig13_equal_without_load(read):
    """Under no load the policies coincide: one-by-one's Δe under 1.1x
    all-by-all's at every np."""
    return _above([
        ({"load": "none", "np": n},
         1.1 * read.overhead("e", "none", "all_by_all", n) + 1e-9,
         read.overhead("e", "none", "one_by_one", n))
        for n in PARALLEL_COUNTS
    ])


def _fig13_cpu_memory_over_cpu(read):
    """One-by-one's Δe under CPU-Memory load tops CPU load from
    np = 16 up; at np <= 8 both sit within noise of each other, as at
    the paper's near-zero left edge."""
    return _above(_load_over(read, "e", "cpu_memory", "cpu",
                             policies=("one_by_one",),
                             counts=[n for n in PARALLEL_COUNTS
                                     if n >= 16]))


def _schedulability_rta_over_bound(read):
    """Exact response-time analysis accepts every set the Liu-Layland
    bound accepts."""
    return _exact(
        ({"utilization": u},
         read.acceptance(u, "RM-RTA") >= read.acceptance(u, "RM-LL"))
        for u in SCHEDULABILITY_UTILIZATIONS
    )


def _schedulability_rmwp_within_rm(read):
    """RMWP never beats exact RM on the same m + w workload (it adds
    the optional-deadline check)."""
    return _exact(
        ({"utilization": u},
         read.acceptance(u, "RMWP") <= read.acceptance(u, "RM-RTA") + 1e-9)
        for u in SCHEDULABILITY_UTILIZATIONS
    )


def _schedulability_partitioned_keeps_uniprocessor(read):
    """Partitioning onto 4 CPUs accepts at least the uniprocessor
    sets."""
    return _exact(
        ({"utilization": u},
         read.acceptance(u, "P-RMWP-FF") >= read.acceptance(u, "RMWP") - 1e-9)
        for u in SCHEDULABILITY_UTILIZATIONS
    )


def _schedulability_partitioned_past_saturation(read):
    """At utilization 0.9 first-fit P-RMWP keeps accepting where
    uniprocessor RMWP saturates."""
    return _above([({"utilization": 0.9},
                     read.acceptance(0.9, "P-RMWP-FF"),
                     read.acceptance(0.9, "RMWP"))])


def _qos_one_by_one_at_least_two_by_two(read):
    """One-by-one completes at least two-by-two's optional work at
    np in {32, 57}.  They tie there by the model (a lone Xeon Phi
    hardware thread peaks at half a core), so there is no margin."""
    return _exact(
        ({"np": n}, read.qos("one_by_one", n) >= read.qos("two_by_two", n))
        for n in (32, 57)
    )


def _qos_two_by_two_over_all_by_all(read):
    """Packing 3-4 parts per core costs throughput: two-by-two
    completes more optional work than all-by-all at np in {32, 57}."""
    return _above(({"np": n}, read.qos("two_by_two", n),
                   read.qos("all_by_all", n)) for n in (32, 57))


def _qos_one_by_one_over_all_by_all(read):
    """The paper's conclusion: one-by-one completes over 1.5x
    all-by-all's optional work at np in {32, 57}."""
    return _above(({"np": n}, read.qos("one_by_one", n),
                   1.5 * read.qos("all_by_all", n)) for n in (32, 57))


def _qos_grows_with_np(read):
    """More parts complete more work under every policy: optional work
    never falls from one np to the next."""
    return _above(
        [({"policy": policy, "np": high}, read.qos(policy, high),
          read.qos(policy, low))
         for policy in SWEEP_POLICIES
         for low, high in zip(QOS_COUNTS, QOS_COUNTS[1:])],
        strict=False,
    )


def _global_partitioned_never_migrates(read):
    """Partitioned tasks never migrate, by construction."""
    return _exact(
        ({"utilization": u},
         read.placement(u, "partitioned", "migrations") == 0)
        for u in GLOBAL_UTILIZATIONS
    )


def _global_partitioned_never_misses(read):
    """P-RMWP misses no deadline on the sets it accepts."""
    return _exact(
        ({"utilization": u}, read.placement(u, "partitioned", "misses") == 0)
        for u in GLOBAL_UTILIZATIONS
    )


def _global_migrates(read):
    """Global scheduling migrates: the overhead the paper avoids."""
    total = sum(read.placement(u, "global", "migrations")
                for u in GLOBAL_UTILIZATIONS)
    return _exact([(None, total > 0)])


#: ``(id, anchor, check)``, sorted by id.
CLAIMS = (
    ("fig10.cpu_memory_over_cpu", FIG10, _fig10_cpu_memory_over_cpu),
    ("fig10.cpu_over_none", FIG10, _fig10_cpu_over_none),
    ("fig10.flat", FIG10, _fig10_flat),
    ("fig11.flat_under_load", FIG11, _fig11_flat_under_load),
    ("fig11.rises_without_load", FIG11, _fig11_rises_without_load),
    ("fig12.cpu_memory_over_none", FIG12, _fig12_cpu_memory_over_none),
    ("fig12.cpu_over_cpu_memory", FIG12, _fig12_cpu_over_cpu_memory),
    ("fig12.linear", FIG12, _fig12_linear),
    ("fig12.policies_close", FIG12, _fig12_policies_close),
    ("fig13.above_fig12", FIG13, _fig13_above_fig12),
    ("fig13.cpu_memory_over_cpu", FIG13, _fig13_cpu_memory_over_cpu),
    ("fig13.equal_without_load", FIG13, _fig13_equal_without_load),
    ("fig13.growth", FIG13, _fig13_growth),
    ("fig13.one_by_one_over_all_by_all", FIG13,
     _fig13_one_by_one_over_all_by_all),
    ("fig13.one_by_one_over_all_by_all_to_171", FIG13,
     _fig13_one_by_one_over_all_by_all_to_171),
    ("fig13.two_by_two_between", FIG13, _fig13_two_by_two_between),
    ("global_vs_partitioned.global_migrates", GLOBAL, _global_migrates),
    ("global_vs_partitioned.partitioned_never_migrates", GLOBAL,
     _global_partitioned_never_migrates),
    ("global_vs_partitioned.partitioned_never_misses", GLOBAL,
     _global_partitioned_never_misses),
    ("qos.grows_with_np", QOS, _qos_grows_with_np),
    ("qos.one_by_one_at_least_two_by_two", QOS,
     _qos_one_by_one_at_least_two_by_two),
    ("qos.one_by_one_over_all_by_all", QOS, _qos_one_by_one_over_all_by_all),
    ("qos.two_by_two_over_all_by_all", QOS, _qos_two_by_two_over_all_by_all),
    ("schedulability.partitioned_keeps_uniprocessor", SCHEDULABILITY,
     _schedulability_partitioned_keeps_uniprocessor),
    ("schedulability.partitioned_past_saturation", SCHEDULABILITY,
     _schedulability_partitioned_past_saturation),
    ("schedulability.rmwp_within_rm", SCHEDULABILITY,
     _schedulability_rmwp_within_rm),
    ("schedulability.rta_over_bound", SCHEDULABILITY,
     _schedulability_rta_over_bound),
)


def evaluate(points):
    """Every claim's verdict over a sweep document's ``points``, sorted
    by id: ``{"id", "anchor", "holds", "margin", "point", "missing"}``."""
    index = {_key(point["item"]): point["result"] for point in points}
    verdicts = []
    for claim_id, anchor, check in sorted(CLAIMS):
        read = _Reader(index)
        holds, margin, point = check(read)
        if read.missing:
            holds, margin, point = False, None, None
        if margin is not None and not math.isfinite(margin):
            margin = None
        verdicts.append({
            "id": claim_id,
            "anchor": anchor,
            "holds": bool(holds),
            "margin": None if margin is None else round(margin, 4),
            "point": point,
            "missing": read.missing,
        })
    return verdicts
