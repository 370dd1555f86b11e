"""Machine-speed reference for the end-to-end timings.

On a shared two-vCPU machine the same code runs up to about 1.7 times
slower for minutes at a time, which is far wider than any bound a
regression gate can use.  Interpreted loops and tiny-array calls slow down
much more than BLAS-bound batched work does.  So each workload names the
reference tasks that mirror its own kind of work; a run times them
between its bodies and scales its body timings to the speed at which the
tasks take their nominal time.  The tasks are the benchmark's
own code, so a change to ``bagbid`` cannot change them.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

SAMPLES_PER_GAP = 5


class Reference:
    """Reference tasks and the times they took in one run."""

    # each task's time on an idle core of a 2-vCPU Xeon VM, in seconds
    NOMINAL_S = {"scan": 0.0018, "tiny": 0.0030, "batched": 0.0020, "parse": 0.0025}

    def __init__(self, tasks):
        self.tasks = tuple(tasks)
        rng = np.random.default_rng(0)
        self._values = rng.random(1000).tolist()
        self._bids = rng.random(1000).tolist()
        self._batch = rng.random((8, 144, 64))
        self._token = rng.random((1, 3, 64))
        self._w = rng.random((64, 64))
        self._gamma = rng.random(64)
        self._blob = json.dumps({"data": rng.random(4000).tolist()})
        self.samples: list[float] = []

    def _scan(self):
        """Interpreted loop, as in the pure-Python scan kernels."""
        for k in range(40):
            scale = 0.05 * (k + 1)
            spend = 0.0
            for v, c in zip(self._values, self._bids):
                if scale * v > c:
                    spend += c

    def _tiny(self):
        """Tiny-array calls, as in batch-1 inference."""
        for _ in range(100):
            y = self._token @ self._w
            y = (y - y.mean(axis=-1, keepdims=True)) / np.sqrt(
                y.var(axis=-1, keepdims=True) + 1e-5) * self._gamma

    def _batched(self):
        """Batched matmul and elementwise work, as in training."""
        for _ in range(5):
            y = self._batch @ self._w
            y = np.tanh(y) * 0.5 + y

    def _parse(self):
        """JSON parsing, as in loading checkpoints and datasets."""
        for _ in range(2):
            np.asarray(json.loads(self._blob)["data"])

    def sample(self):
        for _ in range(SAMPLES_PER_GAP):
            t0 = time.perf_counter()
            for task in self.tasks:
                getattr(self, f"_{task}")()
            self.samples.append(time.perf_counter() - t0)

    @property
    def slowdown(self) -> float:
        """Median time of the tasks over their nominal time: divide a time
        by it to get the time at nominal speed."""
        nominal = sum(self.NOMINAL_S[t] for t in self.tasks)
        return statistics.median(self.samples) / nominal
