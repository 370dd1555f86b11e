"""The names the benchmark in ``perfbench/`` hooks into still exist.

``perfbench/spans.py`` wraps ``bagbid`` functions and methods by name and
``perfbench/run.py`` reads package attributes, so renaming or deleting one
of them breaks a traced or an untraced benchmark run; these checks make
that fail here instead.
"""

import importlib.util
import os

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
