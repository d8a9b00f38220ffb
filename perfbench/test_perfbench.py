"""Consistency checks of the benchmark and its traced run, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

import run
from tracer import PER_LAYER
from workloads import WORKLOADS, Call

TINY = {"rates-hat": 2, "efficiency-diag": 2, "rates-wide": 2, "filters-check": 20}
SEED = 7


def traced(name: str) -> dict:
    return run.run(name, SEED, seconds=0, trace=True, size=TINY[name])


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_consistent(name):
    result = traced(name)["result"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in PER_LAYER}

    lines = (run.WORK / name / "spans.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]  # name, start, end, parent, run, rep, count
    self_time = [end - start for _, start, end, *_ in spans]
    roots = defaultdict(float)
    for span_name, start, end, parent, run_id, *_ in spans:
        if parent < 0:
            roots[run_id] += end - start
            continue
        _, p_start, p_end, *_ = spans[parent]
        assert p_start <= start and end <= p_end, f"{span_name} outlives its parent"
        self_time[parent] -= end - start
    assert roots and all(spans[i][0] == "cli.main" for i in range(len(spans)) if spans[i][3] < 0)
    summed = defaultdict(float)
    for span, own in zip(spans, self_time):
        assert own >= 0.0, f"{span[0]}: children exceed the parent"
        summed[span[4]] += own
    for run_id, root in roots.items():
        assert summed[run_id] == pytest.approx(root, rel=0.01)


def test_traced_counts_repeat_and_lepskii_reuse_shows():
    first, second = (traced("rates-hat")["result"]["metrics"] for _ in range(2))
    repeatable = [n for n in first if n.endswith(("calls_per_unit", "unique_share"))]
    assert {n: first[n] for n in repeatable} == {n: second[n] for n in repeatable}
    # the thresholds depend only on (sigma, grid point): one distinct value
    # per grid point, computed once per replication
    assert first["risk.lepskii_threshold.unique_share"]["value"] == 1 / TINY["rates-hat"]


def test_digest_gate_counts_mismatches_and_failures():
    gate = run.DigestGate(None)
    assert gate.admit(Call(1.0, 0, {"a.csv": "x"}, []))  # becomes the reference
    assert gate.admit(Call(1.0, 0, {"a.csv": "x"}, []))
    assert not gate.admit(Call(1.0, 0, {"a.csv": "y"}, []))
    assert not gate.admit(Call(1.0, 3, {}, ["simulate-rates exited 3"]))
    assert (gate.attempted, gate.failed) == (4, 2)
    recorded = run.DigestGate({"a.csv": "z"})
    assert not recorded.admit(Call(1.0, 0, {"a.csv": "x"}, []))


def test_timed_run_pairs_with_the_v0_worker():
    report = run.run("filters-check", SEED, seconds=0, trace=False, size=TINY["filters-check"])
    result, samples = report["result"], report["details"]["samples"]
    assert result["correct"] and result["attempted"] == len(samples["call_s"]) == len(samples["v0_call_s"]) >= 3
    assert set(result["metrics"]) == {"speedup_vs_v0", "setup_s", "setup_vs_v0", "peak_rss_mb"}
    assert result["metrics"]["speedup_vs_v0"]["value"] > 0
    assert len(samples["setup_s"]) == len(samples["v0_setup_s"]) >= 1
    # the scalar filter values are hashed besides the command's report
    assert set(report["details"]["digests"]) == {"filters_check.json", "filter_values.f64"}


def test_paired_ratio_cancels_the_order_effect():
    # the side that runs second is 10 % slower, whichever side it is
    pairs = [(1.1, 1.0, False), (1.0, 1.1, True)] * 3
    assert run.paired_ratio(pairs) == pytest.approx(1.0)
    assert run.paired_ratio([(2.0, 1.0, False)]) == 2.0
