"""Smoke test of the benchmark at the unit tests' tiny experiment scale.

Run from the repository root: ``python -m pytest perfbench/test_smoke.py``.
"""

import json
import os

import pytest

import layers
import run as bench

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, report, _ = bench.run(workload, seed=7, seconds=0, trace=False, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["metrics"]["ops"]["value"] == result["attempted"]
    assert report["environment"]["kernel_backend"] in ("python", "cython")
    assert report["fingerprint"]["dataset_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result, _, tracer = bench.run(workload, seed=7, seconds=0, trace=True, scale="tiny")
    assert result["correct"]
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _units(result["metrics"]) == {name: unit for name, unit, _ in layers.PER_LAYER}

    # every stage's layers account for no more time than the stage took
    sums = layers.subtree_self_sums(tracer)
    stages = [i for i, s in enumerate(tracer.spans) if s[0].startswith("pipeline.")]
    assert stages
    for i in stages:
        name, start, end, _ = tracer.spans[i]
        assert sums[i] <= end - start + 1e-9, name


def test_missing_package_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", str(tmp_path))
    code = bench.main(["--workload", "train", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
