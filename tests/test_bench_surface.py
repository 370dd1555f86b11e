"""The benchmark in ``perfbench/`` still runs against the package.

``perfbench/spans.py`` wraps ``bagbid`` functions and methods by name,
``perfbench/run.py`` reads package attributes and ``perfbench/workloads.py``
drives the pipeline's stage functions, so renaming, deleting or rewiring
one of them breaks a benchmark run; these checks make that fail here
instead.
"""

import importlib.util
import os

import pytest

import bagbid
from bagbid import pipeline

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_undoes():
    spans = _load("spans")
    untraced = pipeline.cmd_eval
    patches = spans.install(spans.Tracer())
    try:
        assert pipeline.cmd_eval is not untraced
    finally:
        patches.undo()
    assert pipeline.cmd_eval is untraced


def test_environment_reads_package():
    env = _load("run").environment(bagbid)
    assert env["kernel_backend"] == bagbid.KERNEL_BACKEND


@pytest.mark.parametrize("workload", ["datagen", "train", "eval"])
def test_workload_runs_traced(workload, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import run

    result, report, _ = run.run(workload, seed=7, seconds=0, trace=True, scale="tiny")
    assert result["correct"], report


def test_traced_datagen_scans_and_streams(monkeypatch):
    """Through the benchmark's own tracer: each hindsight solve runs one
    replay scan; gen-data builds one opportunity stream and solves once per
    day for both datasets, gen-expert reads the expert data back and does
    neither, and the ratio report, which reads r* from the expert data,
    does neither (``_kernels.replay_scan``/``step_scan`` and
    ``OpportunityStream`` keep the names and positional arguments the
    tracer wraps)."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    import workloads

    result, report, tracer = run.run("datagen", seed=7, seconds=0, trace=True, scale="tiny")
    assert result["correct"], report
    metric = {k: v["value"] for k, v in result["metrics"].items()}
    assert metric["expert.scans_per_solve"] == 1
    assert metric["kernels.replay_scan_calls"] == metric["expert.solve_calls"] > 0

    stages = ("pipeline.gen_data", "pipeline.gen_expert", "pipeline.ratio_report")
    inside = {}  # (span, enclosing stage) -> calls
    for name, _, _, parent in tracer.spans:
        if name in ("market.stream_build", "expert.solve"):
            while parent >= 0 and tracer.spans[parent][0] not in stages:
                parent = tracer.spans[parent][3]
            stage = tracer.spans[parent][0] if parent >= 0 else None
            inside[name, stage] = inside.get((name, stage), 0) + 1
    bodies = sum(name == "benchmark.body" for name, *_ in tracer.spans)
    reports = sum(name == "pipeline.ratio_report" for name, *_ in tracer.spans)
    exp = workloads.experiment("unused", 7, "tiny", workloads.NOISY_EXPERT_ONLY)
    days = len(pipeline.train_seeds(exp))
    assert bodies >= 1 and reports == bodies
    assert inside == {(name, "pipeline.gen_data"): days * bodies
                      for name in ("market.stream_build", "expert.solve")}
