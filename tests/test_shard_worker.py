"""The two-shard train step on worker processes: the same bytes as in
process, no worker on one CPU or for a short training, and nothing left
behind when a training fails."""

import os
import shutil
import signal
import sys

import numpy as np
import pytest

from bagbid import nncore as nc
from bagbid import shard_worker as sw
from bagbid import transformer as tf

ARCHS = {"full": tf.ARCH_FULL, "no-level": tf.ARCH_NO_LEVEL, "dt": tf.ARCH_DT,
         "bc": tf.ARCH_BC}


def small_data(seed=5, n=6, t=16):
    gen = np.random.Generator(np.random.PCG64(seed))
    return tf.TrainingBatch(gen.normal(size=(n, t, 8)), gen.uniform(0, 5, (n, t)),
                            gen.normal(size=(n, t)), gen.integers(0, 2, (n, t)))


def small_config(**kw):
    return tf.ModelConfig(**{"d_model": 16, "n_layers": 2, "n_heads": 2, "context_steps": 16,
                             "bag_len": 8, "train_steps": 6, "batch_size": 4, "seed": 3,
                             **kw})


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes the process see ``k`` CPUs."""
    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    return set_cpus


@pytest.fixture
def workers(monkeypatch, tmp_path, cpus):
    """Two CPUs, workers from step 1 on, the shared file in a directory of
    the test's own; records the started processes, the directory's entries
    as each one starts, and the files made and their sizes."""
    cpus(2)
    monkeypatch.setattr(tf, "WORKER_PAYBACK_S", 0.0)
    shm = tmp_path / "shm"
    shm.mkdir()
    monkeypatch.setattr(sw, "_mapping_dirs", lambda: [str(shm)])
    log = {"procs": [], "listings": [], "files": [], "sizes": [], "dir": shm}
    popen, create = sw.subprocess.Popen, sw._create_mapping

    def recording_popen(*args, **kwargs):
        log["procs"].append(popen(*args, **kwargs))
        log["listings"].append(os.listdir(shm))
        return log["procs"][-1]

    def recording_create(nbytes):
        file, buf = create(nbytes)
        log["files"].append(file)
        log["sizes"].append(len(buf))
        return file, buf

    monkeypatch.setattr(sw.subprocess, "Popen", recording_popen)
    monkeypatch.setattr(sw, "_create_mapping", recording_create)
    return log


def assert_nothing_left(log, started=2):
    """Every worker has exited and been reaped, the test process has no
    child, the shared file is closed and its directory is empty."""
    assert len(log["procs"]) == started and len(log["files"]) == 1
    for proc in log["procs"]:
        assert proc.returncode is not None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert log["files"][0].closed
    assert os.listdir(log["dir"]) == []


def fail_at_step(monkeypatch, step, action):
    """Run ``action(workers)`` before the ``step``-th worker step (1-based)."""
    original = sw.ShardWorkers.step
    calls = []

    def step_hook(self, values, shards):
        calls.append(1)
        if len(calls) == step:
            action(self)
        return original(self, values, shards)

    monkeypatch.setattr(sw.ShardWorkers, "step", step_hook)


def kill_worker(shard):
    def action(pool):
        os.kill(pool._procs[shard].pid, signal.SIGKILL)
    return action


# a worker whose replies go wrong: ``cut`` writes the first half of a
# reply's pickle and kills itself, ``garbled`` writes bytes that are no
# pickle and waits for the next request
BAD_REPLY = """
import os, pickle, signal, sys
from bagbid import shard_worker

def bad_reply(out, message):
    data = pickle.dumps(message)
    out.write(data[:len(data) // 2] if sys.argv[1] == "cut" else b"no pickle")
    out.flush()
    if sys.argv[1] == "cut":
        os.kill(os.getpid(), signal.SIGKILL)

shard_worker._reply = bad_reply
sys.exit(shard_worker.main())
"""

# a worker that raises after it has read 10 bytes of its setup message,
# replies the error and exits
SETUP_FAILS = """
import sys
from bagbid import shard_worker

def failing_load(stream):
    stream.read(10)
    raise ValueError("setup read failed")

shard_worker.pickle.load = failing_load
sys.exit(shard_worker.main())
"""


def trained(data, config, arch, tmp_path, name):
    rows = []
    path = tmp_path / f"{name}.ckpt"
    tf.train_model(data, config, arch, log_rows=rows).save(path)
    return path.read_bytes(), rows


class TestSameBytes:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_worker_path_matches_in_process_path(self, arch, workers, tmp_path, monkeypatch):
        """Checkpoint and logged losses are byte-identical whether steps
        1.. run on the workers or in process; this catches Adam moments
        lost at the switch."""
        data, config = small_data(), small_config()
        on_workers = trained(data, config, ARCHS[arch], tmp_path, "workers")
        assert len(workers["procs"]) == 2
        assert_nothing_left(workers)
        monkeypatch.setattr(tf, "WORKER_PAYBACK_S", float("inf"))
        in_process = trained(data, config, ARCHS[arch], tmp_path, "in-process")
        assert len(workers["procs"]) == 2
        assert on_workers == in_process

    def test_default_model(self, workers, tmp_path, monkeypatch):
        """The same at the default model size, whose GEMMs are large enough
        for a multi-threaded BLAS in this process to split them."""
        data, config = small_data(n=8, t=48), tf.ModelConfig(train_steps=4)
        on_workers = trained(data, config, tf.ARCH_FULL, tmp_path, "workers")
        monkeypatch.setattr(tf, "WORKER_PAYBACK_S", float("inf"))
        assert on_workers == trained(data, config, tf.ARCH_FULL, tmp_path, "in-process")
        assert_nothing_left(workers)

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_uneven_and_empty_shards(self, batch_size, workers, tmp_path, monkeypatch):
        """A batch of 3 splits into shards of 2 and 1; a batch of 1 leaves
        the second shard empty, with a zero gradient."""
        data, config = small_data(), small_config(batch_size=batch_size)
        on_workers = trained(data, config, tf.ARCH_FULL, tmp_path, "workers")
        monkeypatch.setattr(tf, "WORKER_PAYBACK_S", float("inf"))
        assert on_workers == trained(data, config, tf.ARCH_FULL, tmp_path, "in-process")
        assert_nothing_left(workers)


class TestWhenWorkersStart:
    @pytest.fixture
    def no_popen(self, monkeypatch):
        def popen(*args, **kwargs):
            raise AssertionError("a worker was started")
        monkeypatch.setattr(sw.subprocess, "Popen", popen)

    def test_one_cpu_starts_no_worker(self, cpus, monkeypatch, no_popen):
        cpus(1)
        monkeypatch.setattr(tf, "WORKER_PAYBACK_S", 0.0)
        tf.train_model(small_data(), small_config())

    def test_short_training_stays_in_process(self, cpus, no_popen):
        cpus(2)
        tf.train_model(small_data(), small_config(train_steps=5))

    def test_single_step_starts_no_worker(self, cpus, monkeypatch, no_popen):
        cpus(2)
        monkeypatch.setattr(tf, "WORKER_PAYBACK_S", 0.0)
        tf.train_model(small_data(), small_config(train_steps=1))


class TestFailures:
    @staticmethod
    def row_after_step_0(data, config):
        """A row that step 1 samples and step 0 does not."""
        gen = np.random.Generator(np.random.PCG64(config.seed + 7919))
        first = set(gen.integers(0, data.size, size=config.batch_size).tolist())
        later = set(gen.integers(0, data.size, size=config.batch_size).tolist())
        return min(later - first)

    def test_nan_data_on_the_worker_path(self, workers):
        """A NaN row first sampled after step 0 makes the parent reject the
        summed gradient; both workers stop and the file is closed."""
        config, data = small_config(), small_data()
        data.states[self.row_after_step_0(data, config), 3, 2] = np.nan
        with pytest.raises(nc.NonFiniteGradientError):
            tf.train_model(data, config)
        assert_nothing_left(workers)

    def test_worker_exception(self, workers):
        """An expert level out of range raises in the worker that reads it;
        the parent raises its message."""
        config, data = small_config(), small_data()
        data.levels[self.row_after_step_0(data, config), 5] = config.k_levels
        with pytest.raises(sw.ShardWorkerError, match="training worker [01] failed: "
                                                      "ShapeError: embedding index out of range"):
            tf.train_model(data, config)
        assert_nothing_left(workers)

    def test_worker_that_fails_to_start(self, workers, monkeypatch):
        """A worker that exits before it maps the shared file: the file is
        closed all the same."""
        monkeypatch.setattr(sys, "executable", shutil.which("false"))
        with pytest.raises(sw.ShardWorkerError, match="training worker [01] exited with code 1"):
            tf.train_model(small_data(), small_config())
        assert_nothing_left(workers, started=len(workers["procs"]))
        assert len(workers["procs"]) in (1, 2)

    def test_killed_worker(self, workers, monkeypatch):
        fail_at_step(monkeypatch, 2, kill_worker(1))
        with pytest.raises(sw.ShardWorkerError, match="training worker 1 exited with code -9"):
            tf.train_model(small_data(), small_config())
        assert_nothing_left(workers)

    @pytest.mark.parametrize("reply", ["cut", "garbled"])
    def test_unreadable_reply(self, reply, workers, monkeypatch):
        """A reply that is cut off mid-pickle, or is no pickle, counts as
        the worker's exit; the parent kills a worker still running."""
        popen = sw.subprocess.Popen
        monkeypatch.setattr(sw.subprocess, "Popen", lambda args, **kwargs: popen(
            [args[0], "-c", BAD_REPLY, reply], **kwargs))
        with pytest.raises(sw.ShardWorkerError,
                           match="^training worker 0 exited with code -9$"):
            tf.train_model(small_data(), small_config())
        assert_nothing_left(workers)

    @pytest.mark.parametrize("rows, shard", [(6, "[01]"), (200, "0")])
    def test_error_while_reading_the_setup(self, rows, shard, workers, monkeypatch):
        """A worker that raises while it reads its setup names its error,
        whether the setup fits the pipe (6 rows, 8.4 KB) or the worker
        exits before the parent has written all of it (200 rows, 282 KB:
        the parent's write fails, and it reads the reply left behind)."""
        popen = sw.subprocess.Popen
        monkeypatch.setattr(sw.subprocess, "Popen", lambda args, **kwargs: popen(
            [args[0], "-c", SETUP_FAILS], **kwargs))
        with pytest.raises(sw.ShardWorkerError, match=f"^training worker {shard} failed: "
                                                      "ValueError: setup read failed$"):
            tf.train_model(small_data(n=rows), small_config())
        assert_nothing_left(workers)

    def test_interrupt_stops_the_workers(self, workers, monkeypatch):
        def interrupt(pool):
            raise KeyboardInterrupt
        fail_at_step(monkeypatch, 3, interrupt)
        with pytest.raises(KeyboardInterrupt):
            tf.train_model(small_data(), small_config())
        assert_nothing_left(workers)

    def test_worker_error_is_one_cli_line(self, workers, monkeypatch, tiny_experiment,
                                          tmp_path, capsys):
        from bagbid.cli import main

        exp = tiny_experiment
        config = tmp_path / "config.json"
        exp.save(config)
        fail_at_step(monkeypatch, 2, kill_worker(0))
        assert main(["train", "--method", "dt", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == "bagbid: error: training dt: training worker 0 exited with code -9\n"
        assert not os.path.exists(exp.ckpt_path("dt"))
        assert_nothing_left(workers)


def test_no_file_name_while_workers_run(workers, monkeypatch):
    """The shared file has no entry in its directory from the start of the
    first worker on, so a parent killed at any point leaves none behind."""
    during_steps = []
    fail_at_step(monkeypatch, 1, lambda pool: during_steps.append(os.listdir(workers["dir"])))
    tf.train_model(small_data(), small_config())
    assert workers["listings"] == [[], []] and during_steps == [[]]
    assert_nothing_left(workers)


def test_shared_file_holds_only_values_and_gradients(workers):
    """The mapping holds the values and the two shards' gradients, exactly
    3 x the number of parameters float64 values; the batch goes to each
    worker once, in its setup message."""
    config = small_config()
    size = tf.TrajectoryTransformer(config, tf.ARCH_FULL).params.size
    tf.train_model(small_data(), config)
    assert workers["sizes"] == [3 * size * np.dtype(np.float64).itemsize]
    assert_nothing_left(workers)


def test_shared_file_falls_back_to_the_next_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(sw, "_mapping_dirs", lambda: [str(tmp_path / "missing"),
                                                      str(tmp_path)])
    file, buf = sw._create_mapping(64)
    with file, buf:
        stat = os.fstat(file.fileno())
        assert stat.st_dev == os.stat(tmp_path).st_dev and stat.st_nlink == 0
        assert stat.st_size == len(buf) == 64
