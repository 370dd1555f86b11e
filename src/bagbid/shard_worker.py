"""Worker processes for the two shards of a train step.

``transformer.train_model`` splits every step's batch into two fixed
shards.  Once training is long enough to pay for them, ``ShardWorkers``
starts two workers, one per shard, and sends each, as one pickle on its
stdin, what stays fixed for the training: the shared file's descriptor,
its shard index, the model's config and architecture, the
``TrainingBatch`` and the batch size.  A worker builds a model of its own
from them.  Then each step the parent

- writes the current values into the shared file,
- sends each worker its shard's row indices (one pickle),
- reads back each shard's squared-error sums (one pickle each).

For each request a worker zeroes its model's gradients, copies the
shared values into its model's arena, runs ``transformer.shard_step`` on
its model and copies the model's gradient into its own row of the shared
file, for the parent to add to the other worker's and to take the Adam
step with.  The parent's model and each worker's own arenas never alias
the mapping, so the model that training returns does not depend on it.

The shared file holds only one (3, number of parameters) float64 array:
the values, then the two shards' gradients.  It has no name: it is made
unlinked, in ``/dev/shm`` where it can be and in the temp directory
otherwise, and reaches each worker as a descriptor passed at its start.
The parent closes its descriptor once both workers have started and each
worker once it has mapped the file, so no file outlives a training.
Each worker is ``python -m bagbid.shard_worker`` with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``), the ``bagbid`` this module was imported
from first on its ``PYTHONPATH``, and its stdin and stdout as the request
and reply pipes.  It ignores SIGINT (the parent handles an interrupt and
stops it) and exits when its stdin closes.

A worker that exits or raises, or whose reply is cut short or does not
unpickle, makes the parent's next step raise ``ShardWorkerError`` (a
worker that fails to start, at step 1 at the latest); ``close`` stops
the workers in every case.  The error names the worker's exception when
it replied one, also when it exited before reading all of a request.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import subprocess
import sys
import tempfile

import numpy as np

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STOP_TIMEOUT_S = 5.0


class ShardWorkerError(RuntimeError):
    """A training worker exited or failed."""


def _mapping_dirs() -> list[str]:
    """Where the shared file may go, in order of preference."""
    return ["/dev/shm", tempfile.gettempdir()]


def _create_mapping(nbytes: int) -> tuple:
    """A new unnamed file of ``nbytes`` (its space reserved, so a full file
    system fails here and not as a bus error on first touch), as an open
    file object, and its mapping."""
    error = None
    for d in _mapping_dirs():
        try:
            f = tempfile.TemporaryFile(prefix="bagbid-train-", dir=d)
        except OSError as e:
            error = e
            continue
        try:
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(f.fileno(), 0, nbytes)
            else:
                os.ftruncate(f.fileno(), nbytes)
            return f, mmap.mmap(f.fileno(), nbytes)
        except OSError as e:
            f.close()
            error = e
    raise ShardWorkerError(f"cannot create the shared training file: {error}")


def _shared_rows(buf) -> np.ndarray:
    """The shared file as one (3, number of parameters) float64 array: the
    values, then shard 0's and shard 1's gradients."""
    return np.frombuffer(buf, np.float64).reshape(3, -1)


class ShardWorkers:
    """Two running workers and the mapping they share (parent side).

    ``grads`` holds the two shards' gradients, filled by ``step``.  The
    workers build models of ``model``'s config and architecture, and each
    step's shards are rows of ``data`` from one batch of ``batch_size``.
    """

    def __init__(self, model, data, batch_size: int):
        self._procs: list[subprocess.Popen] = []
        file, buf = _create_mapping(3 * model.params.values.nbytes)
        shared = _shared_rows(buf)
        self.values, self.grads = shared[0], shared[1:]
        fd = file.fileno()
        path_env = os.environ.get("PYTHONPATH")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=_SRC + (os.pathsep + path_env if path_env else ""))
        try:
            with file:  # each worker gets its own copy of the descriptor
                for _ in range(2):
                    self._procs.append(subprocess.Popen(
                        [sys.executable, "-m", "bagbid.shard_worker"],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                        pass_fds=(fd,)))
            for shard in range(2):
                self._send(shard, {"fd": fd, "shard": shard, "config": model.config,
                                   "arch": model.arch, "data": data,
                                   "batch_size": batch_size})
        except BaseException:
            self.close()
            raise

    def step(self, values: np.ndarray, shards) -> list[tuple[float, float]]:
        """Run one train step's shards on the current ``values``; returns
        each shard's squared-error sums, and leaves its gradient in
        ``grads``."""
        self.values[...] = values
        for shard, rows in enumerate(shards):
            self._send(shard, rows)
        return [self._receive(shard) for shard in range(2)]

    def _send(self, shard: int, message):
        proc = self._procs[shard]
        try:
            pickle.dump(message, proc.stdin, pickle.HIGHEST_PROTOCOL)
            proc.stdin.flush()
            return
        except OSError:
            pass
        # the worker stopped reading: once it is gone, its pipe holds the
        # error it replied before it exited, if it replied one
        proc.kill()
        proc.wait()
        self._receive(shard)
        raise self._exited(shard)

    def _receive(self, shard: int) -> tuple[float, float]:
        try:
            reply = pickle.load(self._procs[shard].stdout)
        except (EOFError, pickle.UnpicklingError):  # no reply, or a cut or garbled one
            raise self._exited(shard) from None
        if isinstance(reply, str):
            raise ShardWorkerError(f"training worker {shard} failed: {reply}")
        return reply

    def _exited(self, shard: int) -> ShardWorkerError:
        proc = self._procs[shard]
        proc.kill()  # it may have closed its pipes without exiting
        return ShardWorkerError(f"training worker {shard} exited with code {proc.wait()}")

    def close(self):
        """Stop the workers: close their stdin, then wait for them to exit,
        killing one that does not within ``_STOP_TIMEOUT_S``."""
        for proc in self._procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self._procs:
            try:
                proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._procs = []


def _reply(out, message):
    pickle.dump(message, out)
    out.flush()


def main() -> int:
    """The worker loop: take the setup message, map the shared file and
    build a model, then answer each request of row indices with a
    ``shard_step`` on the shared values."""
    # replies go to a copy of stdout; anything else the process prints goes
    # to stderr instead of into the replies
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = sys.stdin.buffer
    try:
        from bagbid import transformer as tf  # here: transformer imports this module

        setup = pickle.load(requests)
        with open(setup["fd"], "r+b") as f:
            buf = mmap.mmap(f.fileno(), 0)
        shared = _shared_rows(buf)
        values, grads = shared[0], shared[1 + setup["shard"]]
        # its initial weights are overwritten before every step
        model = tf.TrajectoryTransformer(setup["config"], setup["arch"])
        while True:
            try:
                rows = pickle.load(requests)
            except EOFError:  # the parent closed stdin: the training is over
                return 0
            model.params.values[...] = values
            model.params.zero_grad()
            sums = tf.shard_step(model, setup["data"], rows, setup["batch_size"])
            grads[...] = model.params.grads
            _reply(replies, sums)
    except Exception as e:
        try:
            _reply(replies, f"{type(e).__name__}: {e}")
        except OSError:
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
