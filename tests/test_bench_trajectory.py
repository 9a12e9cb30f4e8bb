"""The committed BENCH_engine.json trajectory stays parseable and
append-only, and tools/bench_report.py reads it correctly."""

import importlib.util
import json
import pathlib

import pytest

pytestmark = pytest.mark.tier1

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_engine.json"

#: History length at the time this test was written.  Append-only means
#: the list can only grow; shrinking or rewriting history fails here.
MIN_HISTORY_ENTRIES = 6

REQUIRED_ENTRY_KEYS = {"pr", "engine", "seed", "n_jobs", "runs",
                       "fig10_mandatory"}
VALID_ENGINES = {"default", "reference", "fast"}


def load_bench():
    with open(BENCH_PATH) as handle:
        return json.load(handle)


def load_bench_report_module():
    spec = importlib.util.spec_from_file_location(
        "bench_report", REPO_ROOT / "tools" / "bench_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_history_parses_against_schema():
    bench = load_bench()
    assert bench["description"]
    assert bench["methodology"]["metric"]
    history = bench["history"]
    assert isinstance(history, list)
    for entry in history:
        missing = REQUIRED_ENTRY_KEYS - set(entry)
        assert not missing, f"entry {entry.get('pr')} missing {missing}"
        assert entry["engine"] in VALID_ENGINES
        fig10 = entry["fig10_mandatory"]
        assert fig10["events"] > 0
        assert fig10["events_per_sec_median"] > 0


def test_history_is_append_only():
    history = load_bench()["history"]
    assert len(history) >= MIN_HISTORY_ENTRIES, (
        f"history shrank to {len(history)} entries — BENCH_engine.json "
        f"is append-only; never rewrite or drop recorded entries"
    )
    # the backfilled pre-seam entries must still open the list
    assert history[0]["pr"] == "pre-engine-refactor"
    assert history[1]["pr"] == "engine-refactor"


def test_every_engine_has_a_recent_pair():
    history = load_bench()["history"]
    engines = {entry["engine"] for entry in history}
    assert {"reference", "fast"} <= engines


#: farm_history length when the farm bench landed; append-only too.
MIN_FARM_HISTORY_ENTRIES = 1

REQUIRED_FARM_ENTRY_KEYS = {"pr", "seed", "workload", "farm"}


def test_farm_history_parses_against_schema():
    farm_history = load_bench()["farm_history"]
    assert isinstance(farm_history, list)
    assert len(farm_history) >= MIN_FARM_HISTORY_ENTRIES, (
        "farm_history shrank — BENCH_engine.json is append-only"
    )
    for entry in farm_history:
        missing = REQUIRED_FARM_ENTRY_KEYS - set(entry)
        assert not missing, f"entry {entry.get('pr')} missing {missing}"
        assert entry["workload"] == "farm_check"
        farm = entry["farm"]
        assert farm["runs"] > 0
        # cpus is mandatory context: a speedup number is meaningless
        # without the core count it was measured on
        assert farm["cpus"] >= 1
        assert set(farm["scenarios_per_sec"]) == set(farm["speedup"])
        assert {"1", "2", "4"} <= set(farm["scenarios_per_sec"])
        for rate in farm["scenarios_per_sec"].values():
            assert rate > 0
        assert farm["speedup"]["1"] == pytest.approx(1.0)


#: scale_history length when the scale bench landed; append-only too.
MIN_SCALE_HISTORY_ENTRIES = 1

REQUIRED_SCALE_ENTRY_KEYS = {"pr", "seed", "workload", "scale"}


def test_scale_history_parses_against_schema():
    scale_history = load_bench()["scale_history"]
    assert isinstance(scale_history, list)
    assert len(scale_history) >= MIN_SCALE_HISTORY_ENTRIES, (
        "scale_history shrank — BENCH_engine.json is append-only"
    )
    for entry in scale_history:
        missing = REQUIRED_SCALE_ENTRY_KEYS - set(entry)
        assert not missing, f"entry {entry.get('pr')} missing {missing}"
        assert entry["workload"] == "scale_campaign"
        scale = entry["scale"]
        assert scale["topology"]["n_cores"] >= 1
        assert scale["topology"]["threads_per_core"] >= 1
        assert scale["tasks"] >= 1
        assert scale["cpus"] >= 1
        if "backends" in scale:
            # recorded while two execution cores existed: one
            # jobs/minute measurement per core, and the simulated
            # outcomes must agree across them
            assert set(scale["backends"]) == {"reference", "fast"}
            outcomes = {
                (backend["jobs_done"], backend["events"])
                for backend in scale["backends"].values()
            }
            assert len(outcomes) == 1
            measurements = list(scale["backends"].values())
        else:
            measurements = [scale]
        for measurement in measurements:
            assert measurement["jobs_per_minute"] > 0
            assert measurement["events_per_sec"] > 0


def test_bench_report_renders_without_regression(capsys):
    bench_report = load_bench_report_module()
    regressions = bench_report.render_trajectory(load_bench())
    output = capsys.readouterr().out
    assert "fig10_mandatory" in output
    assert regressions == [], (
        "committed trajectory contains a >10% regression: "
        + "; ".join(
            f"{entry['engine']} {previous['pr']}->{entry['pr']} "
            f"({drop:.1%})"
            for entry, previous, drop in regressions
        )
    )


def test_bench_report_flags_synthetic_regression():
    bench_report = load_bench_report_module()
    entries = [
        {"pr": "a", "engine": "fast",
         "fig10_mandatory": {"events_per_sec_median": 100.0}},
        {"pr": "b", "engine": "fast",
         "fig10_mandatory": {"events_per_sec_median": 85.0}},
        {"pr": "c", "engine": "fast",
         "fig10_mandatory": {"events_per_sec_median": 84.0}},
    ]
    regressions = bench_report.find_regressions(entries)
    assert len(regressions) == 1
    entry, previous, drop = regressions[0]
    assert (previous["pr"], entry["pr"]) == ("a", "b")
    assert drop == pytest.approx(0.15)


def test_sparkline_maps_extremes():
    bench_report = load_bench_report_module()
    assert bench_report.sparkline([]) == ""
    assert bench_report.sparkline([5.0, 5.0]) == "██"
    line = bench_report.sparkline([1.0, 2.0, 3.0])
    assert line[0] == "▁"
    assert line[-1] == "█"
