"""Worker processes for the two shards of a train step.

``transformer.train_model`` splits every step's batch into two fixed
shards.  Once training is long enough to pay for them, ``ShardWorkers``
starts two workers, one per shard, each with a model of its own, and
each step:

- writes the current values into the shared value buffer,
- sends each worker its shard's row indices (one JSON line),
- reads back each shard's squared-error sums (one JSON line each).

For each request a worker zeroes its model's gradients, copies the
shared values into its model's arena, runs ``transformer.shard_step`` on
its model and copies the model's gradient into its own shared gradient
buffer, for the parent to add to the other worker's and to take the Adam
step with.  The parent's model and each worker's own arenas never alias
the mapping, so the model that training returns does not depend on it.

The values, the two gradient buffers and each ``TrainingBatch`` field
live in one file mapping.  The file has no name: it is made unlinked, in
``/dev/shm`` where it can be and in the temp directory otherwise, and
reaches the workers as an inherited descriptor, which the first request
names together with each field's shape and dtype.  The parent closes its
descriptor once the workers have started and each worker once it has
mapped the file, so no file outlives a training.
Each worker is ``python -m bagbid.shard_worker`` with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``), the ``bagbid`` this module was imported
from first on its ``PYTHONPATH``, and its stdin and stdout as the request
and reply pipes.  It ignores SIGINT (the parent handles an interrupt and
stops it) and exits when its stdin closes.

A worker that exits or raises makes the parent's next step raise
``ShardWorkerError``; ``close`` stops the workers in every case.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields

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


def _shared_arrays(buf, size: int, batch: dict) -> tuple:
    """The views of the shared file, in file order: the values and the two
    gradient buffers of ``size`` parameters, then one array per ``batch``
    entry (field name: (shape, dtype string)); returns (values, (grads0,
    grads1), {field name: array})."""
    arrays, offset = [], 0
    for shape, dtype in [((size,), np.float64)] * 3 + list(batch.values()):
        arrays.append(np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape))
        offset += arrays[-1].nbytes
    values, g0, g1, *data = arrays
    return values, (g0, g1), dict(zip(batch, data))


class ShardWorkers:
    """Two running workers and the mapping they share (parent side).

    ``grads`` holds the two shards' gradients, filled by ``step``.  The
    workers build models of ``model``'s config and architecture.
    """

    def __init__(self, model, data, batch_size: int):
        size = model.params.size
        arrays = {f.name: getattr(data, f.name) for f in fields(data)}
        batch = {name: (a.shape, a.dtype.str) for name, a in arrays.items()}
        self._procs: list[subprocess.Popen] = []
        file, buf = _create_mapping(3 * model.params.values.nbytes
                                    + sum(a.nbytes for a in arrays.values()))
        try:
            self.values, self.grads, shared = _shared_arrays(buf, size, batch)
            for name, a in arrays.items():
                shared[name][...] = a
            setup = {"fd": file.fileno(), "size": size, "batch": batch,
                     "batch_size": batch_size, "config": asdict(model.config),
                     "arch": asdict(model.arch)}
            path_env = os.environ.get("PYTHONPATH")
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                       PYTHONPATH=_SRC + (os.pathsep + path_env if path_env else ""))
            for shard in range(2):
                self._procs.append(subprocess.Popen(
                    [sys.executable, "-m", "bagbid.shard_worker"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                    pass_fds=(file.fileno(),)))
                self._send(shard, {**setup, "shard": shard})
            for shard in range(2):
                self._receive(shard)
        except BaseException:
            self.close()
            raise
        finally:
            file.close()

    def step(self, values: np.ndarray, shards) -> list[tuple[float, float]]:
        """Run one train step's shards on the current ``values``; returns
        each shard's squared-error sums, and leaves its gradient in
        ``grads``."""
        self.values[...] = values
        for shard, rows in enumerate(shards):
            self._send(shard, rows.tolist())
        replies = [self._receive(shard) for shard in range(2)]
        return [(reply["rtg"], reply["act"]) for reply in replies]

    def _send(self, shard: int, message):
        proc = self._procs[shard]
        try:
            proc.stdin.write(json.dumps(message).encode() + b"\n")
            proc.stdin.flush()
        except OSError:
            raise self._exited(shard) from None

    def _receive(self, shard: int) -> dict:
        line = self._procs[shard].stdout.readline()
        try:
            reply = json.loads(line)
        except ValueError:  # an empty line: the worker's stdout closed
            raise self._exited(shard) from None
        if "error" in reply:
            raise ShardWorkerError(f"training worker {shard} failed: {reply['error']}")
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
    out.write(json.dumps(message).encode() + b"\n")
    out.flush()


def main() -> int:
    """The worker loop: map the shared file whose descriptor the first
    request names and build a model, then answer each request of row
    indices with a ``shard_step`` on the shared values."""
    # replies go to a copy of stdout; anything else the process prints goes
    # to stderr instead of into the replies
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = sys.stdin.buffer
    try:
        from bagbid import transformer as tf  # here: transformer imports this module

        setup = json.loads(requests.readline())
        with open(setup["fd"], "r+b") as f:
            buf = mmap.mmap(f.fileno(), 0)
        values, grads, arrays = _shared_arrays(buf, setup["size"], setup["batch"])
        grads = grads[setup["shard"]]
        # its initial weights are overwritten before every step
        model = tf.TrajectoryTransformer(tf.ModelConfig(**setup["config"]),
                                         tf.Arch(**setup["arch"]))
        data = tf.TrainingBatch(**arrays)
        _reply(replies, {"ready": True})
        for line in requests:
            rows = np.array(json.loads(line), dtype=np.int64)
            model.params.values[...] = values
            model.params.zero_grad()
            rtg, act = tf.shard_step(model, data, rows, setup["batch_size"])
            grads[...] = model.params.grads
            _reply(replies, {"rtg": rtg, "act": act})
    except Exception as e:
        try:
            _reply(replies, {"error": f"{type(e).__name__}: {e}"})
        except OSError:
            pass
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
