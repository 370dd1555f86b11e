"""Benchmark of the ``bagbid`` offline auto-bidding pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload {datagen,train,eval} --seed N \
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.  A run
sets its workload up three times (``setup_s`` is the median), warms up,
then runs the timed body until ``--seconds`` have passed, at least once.
Untraced (``--trace 0``) it reports the end-to-end metrics; traced
(``--trace 1``) it sets up once, alternates untraced and traced bodies and
reports the per-layer metrics, including the tracing overhead.

``wall_s`` and ``throughput_per_s`` are scaled to a machine of fixed
speed, measured between bodies with reference tasks like the workload's
own work (see ``speed.py``); the unscaled values and the reference time
are in the report line.  ``setup_s`` and per-layer timings are not
scaled.

Every workload writes into a fresh directory under ``.perfbench_work/``
of the checkout and removes it at the end.  The line before the last
holds the environment, the determinism fingerprint, the workload's
quality numbers and the check failures; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUPS = 3


class MissingPackageError(RuntimeError):
    pass


def bootstrap():
    """Put the checkout's ``src/`` first on the import path and import
    ``bagbid`` from there, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "bagbid", "__init__.py")):
        raise MissingPackageError(f"no bagbid package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import bagbid

    if os.path.dirname(os.path.dirname(os.path.abspath(bagbid.__file__))) != SRC:
        raise MissingPackageError(f"bagbid was imported from {bagbid.__file__}, not {SRC}")
    return bagbid


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


def _source_sha256() -> str:
    """sha256 over the package sources, so a result from a checkout without
    git history still names the code it measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bagbid")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(bagbid) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {
        "kernel_backend": bagbid.KERNEL_BACKEND,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "library default",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _kernel_parity(checks):
    """When the compiled kernels are importable, check that they agree with
    the pure-Python ones bit for bit on one default-shape stream."""
    from bagbid._kernels import get_backend
    from bagbid.market import MarketConfig, OpportunityStream

    try:
        compiled = get_backend("cython")
    except RuntimeError:
        return
    pure = get_backend("python")
    stream = OpportunityStream(MarketConfig(seed=123))
    for scale in (0.5, 1.5, 4.0):
        args = (scale, stream.values, stream.comp_bids, stream.eff_values, 50.0)
        checks.check(pure.replay_scan(*args) == compiled.replay_scan(*args),
                     f"kernel backends disagree at scale {scale}")


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "default"):
    """One benchmark run; returns the result and report dictionaries and,
    for a traced run, the tracer."""
    bagbid = bootstrap()
    import layers
    import spans
    import workloads
    from speed import Reference

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    wl = workloads.WORKLOADS[workload](seed, scale)
    checks = workloads.Checks()
    reference = Reference(wl.reference_tasks)
    tracer = None
    try:
        setup_times = []
        for k in range(1 if trace else SETUPS):
            t0 = time.perf_counter()
            wl.setup(os.path.join(work, f"setup{k}"), checks)
            setup_times.append(time.perf_counter() - t0)
            if k:
                shutil.rmtree(os.path.join(work, f"setup{k - 1}"), ignore_errors=True)

        wl.warm_up()
        plain, traced, rates = [], [], []
        if trace:
            tracer = spans.Tracer()
            _kernel_parity(checks)

        def one_body(traced_body: bool):
            reference.sample()
            patches = spans.install(tracer) if traced_body else None
            root = tracer.begin("benchmark.body") if traced_body else None
            t0 = time.perf_counter()
            try:
                items, busy = wl.body()
            finally:
                wall = time.perf_counter() - t0
                if traced_body:
                    tracer.end(root)
                    patches.undo()
            wl.verify(checks)
            if traced_body:
                traced.append(wall)
            else:
                plain.append(wall)
                rates.append(items / busy)

        deadline = time.perf_counter() + seconds
        while True:
            if trace:
                # alternate which side goes first so warm-up favours neither
                order = (False, True) if len(plain) % 2 == 0 else (True, False)
                for traced_body in order:
                    one_body(traced_body)
            else:
                one_body(False)
            if time.perf_counter() >= deadline:
                break
        reference.sample()

        wall, rate = statistics.median(plain), statistics.median(rates)
        slowdown = reference.slowdown
        e2e = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall / slowdown,
            "throughput_per_s": rate * slowdown,
            "peak_rss_mb": _peak_rss_mb(),
        }
        e2e_units = dict(layers.END_TO_END)
        if trace:
            overhead = statistics.median(traced) - wall
            values = layers.per_layer(tracer, len(traced), overhead, overhead / wall)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values, units = e2e, e2e_units
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

        # the same numbers under the names a reader of this workload expects
        named = {k: (v, e2e_units[k]) for k, v in e2e.items()}
        named[wl.throughput_name] = named.pop("throughput_per_s")
        named.update(wl.quality())
        named["ops"] = (checks.attempted, "count")
        named["ops_failed"] = (checks.failed, "count")
        report = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "body_walls_s": plain,
            "traced_body_walls_s": traced,
            "throughput_item": wl.item,
            "environment": environment(bagbid),
            "fingerprint": wl.fingerprint(),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "unadjusted": {"wall_s": wall, wl.throughput_name: rate},
            "reference_ms": statistics.median(reference.samples) * 1e3,
            "failures": checks.failures,
        }
        result = {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": metrics,
        }
        return result, report, tracer
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("datagen", "train", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    try:
        result, report, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingPackageError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
