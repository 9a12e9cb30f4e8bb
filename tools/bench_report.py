"""Render the engine-throughput trajectory and watch for regressions.

Reads the committed ``BENCH_engine.json`` history (append-only, one
entry per PR per engine — see ``benchmarks/bench_engine_perf.py``) and
prints a per-engine table with a sparkline of the ``fig10_mandatory``
events/sec trajectory.  Any entry more than 10% below its predecessor
for the same engine is flagged and fails the run.  Entries from before
the two execution cores became one keep their ``reference`` / ``fast``
tags; later entries continue the ``fast`` line.

Optionally cross-checks a run report (``repro run --emit report``,
``--report``):
the run report's engine counters are summarized next to the
trajectory, tying "what the engine did" to "how fast it went".

Usage::

    PYTHONPATH=src python tools/bench_report.py [--bench BENCH_engine.json]
        [--report report.json] [--tolerance 0.10]
"""

import argparse
import json
import sys

#: Largest tolerated drop from one entry to the next.
REGRESSION_TOLERANCE = 0.10

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values):
    """Map ``values`` onto block glyphs (min→``▁``, max→``█``)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high == low:
        return _SPARK_GLYPHS[-1] * len(values)
    span = high - low
    glyphs = []
    for value in values:
        index = int((value - low) / span * (len(_SPARK_GLYPHS) - 1))
        glyphs.append(_SPARK_GLYPHS[index])
    return "".join(glyphs)


def trajectory_by_engine(history):
    """Group history entries per engine, preserving append order."""
    by_engine = {}
    for entry in history:
        by_engine.setdefault(entry.get("engine", "default"),
                             []).append(entry)
    return by_engine


def find_regressions(entries, tolerance=REGRESSION_TOLERANCE):
    """Entries >``tolerance`` below their predecessor, as
    ``(entry, previous, drop_ratio)`` tuples."""
    regressions = []
    for previous, entry in zip(entries, entries[1:]):
        before = previous["fig10_mandatory"]["events_per_sec_median"]
        after = entry["fig10_mandatory"]["events_per_sec_median"]
        drop = 1.0 - after / before
        if drop > tolerance:
            regressions.append((entry, previous, drop))
    return regressions


def render_trajectory(bench, tolerance=REGRESSION_TOLERANCE, out=None):
    """Print the trajectory; return the list of regressions found."""
    out = out if out is not None else sys.stdout
    history = bench.get("history", [])
    all_regressions = []
    for engine, entries in sorted(trajectory_by_engine(history).items()):
        rates = [e["fig10_mandatory"]["events_per_sec_median"]
                 for e in entries]
        regressions = find_regressions(entries, tolerance)
        flagged = {id(entry) for entry, _previous, _drop in regressions}
        print(f"\n{engine} — fig10_mandatory events/sec "
              f"{sparkline(rates)}", file=out)
        print(f"  {'pr':24s} {'ev/s median':>12s} {'delta':>8s}",
              file=out)
        previous_rate = None
        for entry, rate in zip(entries, rates):
            if previous_rate is None:
                delta = "-"
            else:
                delta = f"{(rate / previous_rate - 1.0) * 100:+.1f}%"
            marker = "  << REGRESSION" if id(entry) in flagged else ""
            print(f"  {entry['pr']:24s} {rate:>12,.1f} {delta:>8s}"
                  f"{marker}", file=out)
            previous_rate = rate
        all_regressions.extend(regressions)
    return all_regressions


def render_run_report(report, out=None):
    """Summarize a ``rtseed-run-report/1`` document's engine section."""
    out = out if out is not None else sys.stdout
    engine = report.get("engine", {})
    counters = engine.get("counters", {})
    print(f"\nrun report: now={engine.get('now', '?')}", file=out)
    for key in ("events_processed", "events_scheduled",
                "events_cancelled", "peak_heap_size", "compactions",
                "compacted_swept"):
        if key in counters:
            print(f"  {key:20s} {counters[key]:>12,}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="BENCH_engine.json")
    parser.add_argument("--report", default=None,
                        help="also summarize a run report JSON "
                             "(repro run --emit report)")
    parser.add_argument("--tolerance", type=float,
                        default=REGRESSION_TOLERANCE,
                        help="flag drops larger than this fraction "
                             "(default 0.10)")
    args = parser.parse_args(argv)

    with open(args.bench) as handle:
        bench = json.load(handle)
    regressions = render_trajectory(bench, tolerance=args.tolerance)
    if args.report:
        with open(args.report) as handle:
            render_run_report(json.load(handle))
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.tolerance:.0%}:")
        for entry, previous, drop in regressions:
            print(f"  {entry['engine']}: {previous['pr']} -> "
                  f"{entry['pr']} dropped {drop:.1%}")
        return 1
    print("\ntrajectory OK: no entry more than "
          f"{args.tolerance:.0%} below its predecessor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
