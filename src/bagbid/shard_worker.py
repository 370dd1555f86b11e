"""Worker processes for the two shards of a train step.

``transformer.train_model`` splits every step's batch into two fixed
shards.  For a training of more than one step on at least two CPUs,
``ShardWorkers`` forks the training process twice before step 0, one
worker per shard; a worker has the model and the batch from the fork,
and runs its shard of every step.  Each step the parent writes the
current values into the shared mapping, sends each worker its shard's
row indices and reads back its squared-error sums (one pickle each way),
and adds the two gradients, which each worker leaves in its row of the
mapping: one anonymous shared (3, number of parameters) float64 array,
made before the fork, that no file backs and no model aliases.

Each worker runs one BLAS thread: two workers that kept the parent's
thread pool ran 3x slower on a 2-CPU machine.  The parent sets the loaded
OpenBLAS's thread count to one before it forks and back once the workers
stop; set in a worker, the count would restart the pool that OpenBLAS
stops at a fork, and its idle thread slowed the first steps.  Without
such an OpenBLAS, ``blas_threads`` is None and training stays in
process.  Python 3.12 and later warn when a process whose BLAS pool has
threads forks.

A worker ignores SIGINT (the parent handles an interrupt and stops it),
closes the other worker's pipe ends, exits through ``os._exit`` when its
request pipe closes, and replies its exception when it raises.  A fork
that fails, a worker that exits or raises, or a reply cut short or
garbled makes the parent raise ``ShardWorkerError``; ``close`` stops the
workers in every case.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import os
import pickle
import signal
import time

import numpy as np

_STOP_TIMEOUT_S = 5.0


class ShardWorkerError(RuntimeError):
    """A training worker exited or failed."""


def openblas_function(name: str):
    """The function ``name`` (such as ``"openblas_get_num_threads"``) of the
    OpenBLAS this process has loaded, under the symbol prefix and suffix
    of its build; None where none is loaded or it has no such function."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split(None, 5)[5].strip() for line in f if "openblas" in line}
    except OSError:
        return None
    for lib in map(ctypes.CDLL, sorted(paths)):
        for symbol in (p + name + s for p in ("", "scipy_") for s in ("", "64_", "_64")):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


@functools.cache
def blas_threads():
    """``(get, set)`` of the loaded OpenBLAS's thread count, or None."""
    get = openblas_function("openblas_get_num_threads")
    put = openblas_function("openblas_set_num_threads")
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class _Worker:
    """A forked worker, parent side: its pid, its request and reply pipes,
    and its exit code once reaped (minus the signal's number if killed)."""

    def __init__(self, pid: int, requests, replies):
        self.pid, self.requests, self.replies = pid, requests, replies
        self.code = None

    def wait(self, timeout: float = math.inf) -> int | None:
        """Reap the worker; returns its exit code, or None if it is still
        running after ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while self.code is None and time.monotonic() <= deadline:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.code = os.waitstatus_to_exitcode(status)
            else:
                time.sleep(0.001)
        return self.code

    def kill(self):
        if self.code is None:  # a reaped pid may belong to another process
            os.kill(self.pid, signal.SIGKILL)


class ShardWorkers:
    """Two running workers and the mapping they share (parent side).

    ``step(rows)`` adds the gradient of the rows ``rows`` into
    ``params.grads`` and returns their squared-error sums; each worker
    runs it on its own copy of ``params``.
    """

    def __init__(self, params, step):
        self._params = params
        shared = np.frombuffer(mmap.mmap(-1, 3 * params.values.nbytes)).reshape(3, -1)
        self._values, self._grads = shared[0], shared[1:]
        self._workers: list[_Worker] = []
        get_threads, self._set_threads = blas_threads()
        self._threads = get_threads()
        self._set_threads(1)  # for the workers, which inherit it
        try:
            for shard in range(2):
                self._workers.append(self._fork(shard, step))
        except BaseException:
            self.close()
            raise

    def _fork(self, shard: int, step) -> _Worker:
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError as e:
            for fd in fds:
                os.close(fd)
            raise ShardWorkerError(f"cannot start training worker {shard}: {e}") from None
        requests_in, requests_out, replies_in, replies_out = fds
        if pid == 0:
            os.close(requests_out)
            os.close(replies_in)
            self._serve(shard, step, open(requests_in, "rb"), open(replies_out, "wb"))
        os.close(requests_in)
        os.close(replies_out)
        return _Worker(pid, open(requests_out, "wb"), open(replies_in, "rb"))

    def _serve(self, shard: int, step, requests, replies):
        """The worker: answer each request of row indices with ``step`` on
        the shared values until the request pipe closes, then exit."""
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for other in self._workers:  # else the other worker never sees EOF
                other.requests.close()
                other.replies.close()
            params, grads = self._params, self._grads[shard]
            while True:
                try:
                    rows = pickle.load(requests)
                except EOFError:  # the training is over
                    break
                params.values[...] = self._values
                params.zero_grad()
                sums = step(rows)
                grads[...] = params.grads
                _reply(replies, sums)
            code = 0
        except Exception as e:
            _reply(replies, f"{type(e).__name__}: {e}")
        finally:
            os._exit(code)

    def step(self, shards) -> list[tuple[float, float]]:
        """Run one train step's shards on the current values; returns each
        shard's squared-error sums and leaves the step's gradient, the
        first shard's plus the second's, in ``params.grads``."""
        self._values[...] = self._params.values
        for shard, rows in enumerate(shards):
            self._send(shard, rows)
        sums = [self._receive(shard) for shard in range(2)]
        np.add(*self._grads, out=self._params.grads)
        return sums

    def _send(self, shard: int, message):
        worker = self._workers[shard]
        with contextlib.suppress(OSError):
            pickle.dump(message, worker.requests, pickle.HIGHEST_PROTOCOL)
            worker.requests.flush()
            return
        # the worker stopped reading: once it is gone, its pipe holds the
        # error it replied before it exited, if it replied one
        error = self._exited(shard)
        self._receive(shard)
        raise error

    def _receive(self, shard: int) -> tuple[float, float]:
        try:
            reply = pickle.load(self._workers[shard].replies)
        except (EOFError, pickle.UnpicklingError):  # no reply, or a cut or garbled one
            raise self._exited(shard) from None
        if isinstance(reply, str):
            raise ShardWorkerError(f"training worker {shard} failed: {reply}")
        return reply

    def _exited(self, shard: int) -> ShardWorkerError:
        worker = self._workers[shard]
        worker.kill()  # it may have closed its pipes without exiting
        return ShardWorkerError(f"training worker {shard} exited with code {worker.wait()}")

    def close(self):
        """Stop the workers: close their request pipes, then wait for them
        to exit, killing one that does not within ``_STOP_TIMEOUT_S``."""
        for worker in self._workers:
            with contextlib.suppress(OSError):
                worker.requests.close()
        for worker in self._workers:
            if worker.wait(_STOP_TIMEOUT_S) is None:
                worker.kill()
                worker.wait()
            worker.replies.close()
        self._workers = []
        self._set_threads(self._threads)


def _reply(out, message):
    pickle.dump(message, out)
    out.flush()
