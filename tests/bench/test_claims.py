"""The paper-claim registry on a synthetic full-grid sweep document.

The synthetic payloads follow the paper's shapes with wide margins, so
every claim holds on them; each planted violation below then breaks
exactly the claims it names.  A real sweep is too slow for tier-1; the
``claims`` CI job runs it at three seeds.
"""

import copy
import io
import json
import pathlib
import re

import pytest

from repro.bench.claims import CLAIMS, evaluate
from repro.bench.sweeps import sweep_items
from repro.cli import main

pytestmark = pytest.mark.tier1

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

#: Per-load Δm [µs], Δb and Δe per part [µs].
M = {"none": 30.0, "cpu": 100.0, "cpu_memory": 190.0}
B = {"none": 25.0, "cpu": 48.0, "cpu_memory": 40.0}
E = {"none": 90.0, "cpu": 100.0, "cpu_memory": 115.0}
#: Δe factor under load where the placements differ (np <= 171).
E_POLICY = {"one_by_one": 1.5, "two_by_two": 1.3, "all_by_all": 1.0}


def synthetic_result(item):
    kind = item["kind"]
    if kind == "figure":
        load, policy, n = item["load"], item["policy"], item["np"]
        factor = (1.0 if load == "none" or n == 228
                  else E_POLICY[policy])
        means = {
            "m": M[load],
            "s": 10.0 + 0.4 * n if load == "none" else 50.0,
            "b": B[load] * n,
            "e": E[load] * n * factor,
        }
        return {"overheads_us": {which: {"mean_us": mean}
                                 for which, mean in means.items()}}
    if kind == "ablation_schedulability":
        high = item["utilization"] >= 0.9
        return {"acceptance_ratio": {
            "RM-LL": 1.0 if item["utilization"] <= 0.7 else 0.0,
            "RM-RTA": 0.85 if high else 1.0,
            "RMWP": 0.85 if high else 1.0,
            "P-RMWP-FF": 1.0,
            "P-RMWP-WF": 1.0,
            "G-RMWP": 1.0,
        }}
    if kind == "ablation_qos":
        per_part = 0.15 if item["policy"] == "all_by_all" else 0.3
        return {"qos_work_seconds_per_job": per_part * item["np"]}
    return {"global": {"migrations": 20, "misses": 0, "sets": 25},
            "partitioned": {"migrations": 0, "misses": 0, "sets": 25}}


def synthetic_points():
    return [{"item": item, "result": synthetic_result(item)}
            for item in sweep_items()]


def figure(load, policy, n):
    return {"kind": "figure", "load": load, "policy": policy, "np": n}


def sched(utilization):
    return {"kind": "ablation_schedulability", "utilization": utilization}


def qos(policy, n):
    return {"kind": "ablation_qos", "policy": policy, "np": n}


def placement(utilization):
    return {"kind": "ablation_global_vs_partitioned",
            "utilization": utilization}


def overhead(which):
    return ("overheads_us", which, "mean_us")


#: claim id -> ([(item, path, value), ...], claims the planting flips).
PLANTINGS = {
    "fig10.flat": (
        [(figure("none", "one_by_one", 228), overhead("m"), 51.0)], None),
    "fig10.cpu_over_none": (
        [(figure("cpu", "two_by_two", 57), overhead("m"), 29.0)], None),
    "fig10.cpu_memory_over_cpu": (
        [(figure("cpu_memory", "two_by_two", 57), overhead("m"), 99.0)],
        None),
    "fig11.rises_without_load": (
        [(figure("none", "one_by_one", 228), overhead("s"), 30.0)], None),
    "fig11.flat_under_load": (
        [(figure("cpu", "one_by_one", 228), overhead("s"), 80.0)], None),
    "fig12.linear": (
        [(figure("none", "one_by_one", 57), overhead("b"), 1995.0)], None),
    "fig12.policies_close": (
        [(figure("cpu", "all_by_all", 228), overhead("b"), 13680.0)], None),
    "fig12.cpu_over_cpu_memory": (
        [(figure("cpu", "one_by_one", 4), overhead("b"), 156.0)], None),
    "fig12.cpu_memory_over_none": (
        [(figure("cpu_memory", "one_by_one", 4), overhead("b"), 96.0)],
        None),
    "fig13.growth": (
        [(figure("cpu", "all_by_all", 228), overhead("e"), 13680.0)], None),
    "fig13.above_fig12": (
        [(figure("none", "two_by_two", 57), overhead("e"), 1000.0),
         (figure("none", "two_by_two", 228), overhead("e"), 5000.0)], None),
    # np = 32 lies in both scopes, so the wider claim flips too
    "fig13.one_by_one_over_all_by_all": (
        [(figure("cpu", "two_by_two", 32), overhead("e"), 4706.0),
         (figure("cpu", "all_by_all", 32), overhead("e"), 4571.0)],
        {"fig13.one_by_one_over_all_by_all",
         "fig13.one_by_one_over_all_by_all_to_171"}),
    "fig13.one_by_one_over_all_by_all_to_171": (
        [(figure("cpu", "two_by_two", 114), overhead("e"), 16500.0),
         (figure("cpu", "all_by_all", 114), overhead("e"), 16286.0)], None),
    "fig13.two_by_two_between": (
        [(figure("cpu", "two_by_two", 16), overhead("e"), 2401.0)], None),
    "fig13.equal_without_load": (
        [(figure("none", "one_by_one", 16), overhead("e"), 1728.0)], None),
    "fig13.cpu_memory_over_cpu": (
        [(figure("cpu", "one_by_one", 16), overhead("e"), 2800.0)], None),
    "schedulability.rta_over_bound": (
        [(sched(0.9), ("acceptance_ratio", "RM-LL"), 0.9)], None),
    "schedulability.rmwp_within_rm": (
        [(sched(0.9), ("acceptance_ratio", "RMWP"), 0.9)], None),
    "schedulability.partitioned_keeps_uniprocessor": (
        [(sched(0.5), ("acceptance_ratio", "P-RMWP-FF"), 0.9)], None),
    "schedulability.partitioned_past_saturation": (
        [(sched(0.9), ("acceptance_ratio", "P-RMWP-FF"), 0.85)], None),
    "qos.one_by_one_at_least_two_by_two": (
        [(qos("two_by_two", 32), ("qos_work_seconds_per_job",), 9.696)],
        None),
    "qos.two_by_two_over_all_by_all": (
        [(qos("two_by_two", 32), ("qos_work_seconds_per_job",), 4.8)], None),
    "qos.one_by_one_over_all_by_all": (
        [(qos("all_by_all", 57), ("qos_work_seconds_per_job",), 12.2)],
        None),
    "qos.grows_with_np": (
        [(qos("all_by_all", 114), ("qos_work_seconds_per_job",), 8.0)],
        None),
    "global_vs_partitioned.partitioned_never_migrates": (
        [(placement(0.5), ("partitioned", "migrations"), 1)], None),
    "global_vs_partitioned.partitioned_never_misses": (
        [(placement(0.5), ("partitioned", "misses"), 1)], None),
    "global_vs_partitioned.global_migrates": (
        [(placement(u), ("global", "migrations"), 0)
         for u in (0.4, 0.5, 0.6)], None),
}


def _coords(item):
    return {name: value for name, value in item.items()
            if name not in ("jobs", "seed", "trials")}


def plant(points, planting):
    points = copy.deepcopy(points)
    for item, path, value in planting:
        [result] = [point["result"] for point in points
                    if _coords(point["item"]) == item]
        for step in path[:-1]:
            result = result[step]
        result[path[-1]] = value
    return points


def failed(verdicts):
    return {verdict["id"] for verdict in verdicts if not verdict["holds"]}


def test_every_claim_holds_on_the_synthetic_grid():
    verdicts = evaluate(synthetic_points())
    assert [verdict["id"] for verdict in verdicts] == sorted(
        claim_id for claim_id, _anchor, _check in CLAIMS
    )
    assert failed(verdicts) == set()
    for verdict in verdicts:
        assert verdict["missing"] == []
        assert verdict["margin"] is None or verdict["margin"] > 1.0


def test_every_claim_has_a_planting():
    assert set(PLANTINGS) == {claim_id for claim_id, _a, _c in CLAIMS}


@pytest.mark.parametrize("claim_id", sorted(PLANTINGS))
def test_planted_violation_flips_exactly_its_claims(claim_id):
    planting, flips = PLANTINGS[claim_id]
    verdicts = evaluate(plant(synthetic_points(), planting))
    assert failed(verdicts) == (flips or {claim_id})
    [verdict] = [v for v in verdicts if v["id"] == claim_id]
    assert verdict["missing"] == []
    if verdict["margin"] is not None:
        assert verdict["margin"] <= 1.0
    if claim_id != "global_vs_partitioned.global_migrates":
        assert verdict["point"] is not None


def test_margin_is_observed_over_threshold_at_the_closest_point():
    # Δe one-by-one / all-by-all is 1.5 everywhere but one point
    points = plant(synthetic_points(), [
        (figure("cpu_memory", "all_by_all", 57), overhead("e"),
         115.0 * 57 * 1.5 / 1.2),
    ])
    [verdict] = [v for v in evaluate(points)
                 if v["id"] == "fig13.one_by_one_over_all_by_all"]
    assert verdict["holds"]
    assert verdict["margin"] == round(1.2 / 1.1, 4)
    assert verdict["point"] == {"load": "cpu_memory", "np": 57}


def test_a_missing_point_fails_every_claim_that_reads_it():
    points = synthetic_points()
    for dropped in range(len(points)):
        kept = points[:dropped] + points[dropped + 1:]
        verdicts = evaluate(kept)
        missing = [_coords(points[dropped]["item"])]
        losers = [v for v in verdicts if not v["holds"]]
        assert losers, f"no claim reads {missing}"
        for verdict in losers:
            assert verdict["missing"] == missing
            assert verdict["margin"] is None and verdict["point"] is None
        for verdict in verdicts:
            if verdict["holds"]:
                assert verdict["missing"] == []


def test_missing_point_fails_a_claim_its_other_points_would_pass():
    points = [point for point in synthetic_points()
              if _coords(point["item"]) != figure("cpu", "one_by_one", 57)]
    verdicts = {v["id"]: v for v in evaluate(points)}
    for claim_id in ("fig10.cpu_over_none", "fig10.flat", "fig13.growth",
                     "fig13.one_by_one_over_all_by_all"):
        assert not verdicts[claim_id]["holds"]
        assert verdicts[claim_id]["missing"] == [
            figure("cpu", "one_by_one", 57)
        ]
    assert verdicts["qos.grows_with_np"]["holds"]


def test_every_anchor_is_an_experiments_heading():
    headings = {
        match.group(1).strip()
        for match in re.finditer(r"^#+ (.+)$", EXPERIMENTS.read_text(),
                                 re.MULTILINE)
    }
    for claim_id, anchor, _check in CLAIMS:
        assert anchor in headings, (claim_id, anchor)


def test_every_claim_is_listed_in_experiments():
    text = EXPERIMENTS.read_text()
    for claim_id, _anchor, _check in CLAIMS:
        assert f"`{claim_id}`" in text, claim_id


def _run_sweep_cli(monkeypatch, tmp_path, planting):
    import repro.bench.sweeps

    results = {json.dumps(_coords(point["item"]), sort_keys=True):
               point["result"]
               for point in plant(synthetic_points(), planting)}
    monkeypatch.setattr(
        repro.bench.sweeps, "run_sweep_item",
        lambda item: results[json.dumps(_coords(item), sort_keys=True)],
    )
    path = tmp_path / "sweep.json"
    out = io.StringIO()
    code = main(["scale", "--what", "sweep", "--workers", "1",
                 "--out", str(path)], out=out)
    return code, out.getvalue(), json.loads(path.read_text())


def test_sweep_cli_exits_0_when_every_claim_holds(monkeypatch, tmp_path):
    code, output, document = _run_sweep_cli(monkeypatch, tmp_path, [])
    assert code == 0
    assert f"{len(CLAIMS)}/{len(CLAIMS)} claim(s) hold" in output
    assert "FAILED" not in output
    assert all(claim["holds"] for claim in document["claims"])


def test_sweep_cli_exits_1_on_a_failed_claim(monkeypatch, tmp_path):
    planting, _flips = PLANTINGS["fig12.cpu_over_cpu_memory"]
    code, output, document = _run_sweep_cli(monkeypatch, tmp_path,
                                            planting)
    assert code == 1
    failed_lines = [line for line in output.splitlines()
                    if "FAILED" in line]
    assert failed_lines == [
        "scale: claim fig12.cpu_over_cpu_memory FAILED "
        "(at {'policy': 'one_by_one', 'np': 4}, margin 0.975)"
    ]
    assert failed(document["claims"]) == {"fig12.cpu_over_cpu_memory"}
