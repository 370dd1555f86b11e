"""Worker processes for the two shards of a train step.

``transformer.train_model`` splits every step's batch into two fixed
shards.  For a training of more than one step on at least two CPUs,
``ShardWorkers`` forks the training process twice before step 0, one
worker per shard; a worker has the model and the batch from the fork,
and runs its shard and half of the Adam update of every step.

The parent and the workers share one anonymous mapping, made before the
fork, that no file backs: a (3, number of parameters) float64 array.
Row 0 is the model's value buffer, which ``ShardWorkers`` moves there
before it forks (``ParameterSet.place``), so the parent and both workers
read one arena.  Rows 1 and 2 are the two workers' gradient buffers,
each placed in its worker after the fork.  So the parent allocates no
gradients and no Adam state, and the trained values stay in the
mapping.  A step is two messages to each worker, one pickle each way:

1. the shard's row indices: the worker zeroes its gradient row, runs
   its shard into it and replies its squared-error sums;
2. the step's learning rate: the worker adds the two gradient rows over
   its half of the arena (worker 0 the first ``size // 2`` elements,
   worker 1 the rest) into a buffer of its own, checks the sum, and runs
   ``nncore.adam_region`` on that half of the values with the Adam
   moments of that half, which live in the worker; it replies None.

The parent waits for both replies to each message, so no worker writes
values while the other reads them.  Each element gets the additions and
the Adam ops of the in-process step, so the bytes do not depend on where
the step runs.  A non-finite sum makes the worker reply the
``NonFiniteGradientError`` of the in-process ``adam_step``, naming the
first non-finite parameter; the parent raises it, worker 0's first.

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
import itertools
import math
import mmap
import os
import pickle
import signal
import time

import numpy as np

from bagbid import nncore as nc

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

    The constructor's ``step(rows)`` adds the gradient of the rows
    ``rows`` into ``params.grads`` and returns their squared-error sums;
    each worker runs it on its own copy of ``params``, whose values are
    the parent's.  A train step is ``step(shards)``, then ``adam_step``.
    """

    def __init__(self, params, step):
        self._params = params
        shared = np.frombuffer(mmap.mmap(-1, 3 * params.size * np.dtype(np.float64).itemsize))
        shared = shared.reshape(3, -1)
        params.place("values", shared[0])
        self._grads = shared[1:]
        half = params.size // 2
        self._regions = (0, half), (half, params.size)
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
        """The worker: answer the requests, row indices and learning rates
        in turn, until the request pipe closes, then exit."""
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for other in self._workers:  # else the other worker never sees EOF
                other.requests.close()
                other.replies.close()
            params, grads = self._params, self._grads
            params.place("grads", grads[shard])
            adam = nc.AdamState(*self._regions[shard])
            summed = np.empty(adam.hi - adam.lo)

            def run_shard(rows):
                params.zero_grad()
                return step(rows)

            def update(settings):
                np.add(*grads[:, adam.lo:adam.hi], out=summed)
                params.check_finite(summed, adam.lo)
                nc.adam_region(params.values, summed, adam, **settings)

            for serve in itertools.cycle((run_shard, update)):
                try:
                    message = pickle.load(requests)
                except EOFError:  # the training is over
                    break
                _reply(replies, serve(message))
            code = 0
        except Exception as e:
            _reply(replies, e if isinstance(e, nc.NonFiniteGradientError)
                   else f"{type(e).__name__}: {e}")
        finally:
            os._exit(code)

    def step(self, shards) -> list[tuple[float, float]]:
        """Run one train step's shards on the current values; returns each
        shard's squared-error sums and leaves each shard's gradient in its
        worker's row of the mapping."""
        for shard, rows in enumerate(shards):
            self._send(shard, rows)
        return [self._receive(shard) for shard in range(2)]

    def adam_step(self, lr, **settings):
        """Update the values by one Adam step (``nncore.adam_region``, with
        ``lr`` and ``settings``) from the sum of the gradients that
        ``step`` left, each worker on its half; raises the
        ``NonFiniteGradientError`` of ``nncore.adam_step`` if the sum is
        not finite."""
        for shard in range(2):
            self._send(shard, {"lr": lr, **settings})
        for shard in range(2):
            self._receive(shard)

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

    def _receive(self, shard: int):
        try:
            reply = pickle.load(self._workers[shard].replies)
        except (EOFError, pickle.UnpicklingError):  # no reply, or a cut or garbled one
            raise self._exited(shard) from None
        if isinstance(reply, nc.NonFiniteGradientError):
            raise reply
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
