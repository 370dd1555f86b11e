"""The two-shard train step on forked worker processes: every step of a
training runs on them, with the same bytes as in process and one BLAS
thread in each worker; no worker on one CPU or for a single step, and
nothing left behind when a training fails."""

import json
import os
import pickle
import signal
import subprocess
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
    return tf.TrainingBatch(gen.normal(size=(n, t, tf.STATE_DIM)), gen.uniform(0, 5, (n, t)),
                            gen.normal(size=(n, t)), gen.integers(0, 2, (n, t)))


def small_config(**kw):
    return tf.ModelConfig(**{"d_model": 16, "n_layers": 2, "n_heads": 2, "context_steps": 16,
                             "bag_len": 8, "train_steps": 6, "batch_size": 4, "seed": 3,
                             **kw})


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps every process it forked."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes the process see ``k`` CPUs."""
    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    return set_cpus


@pytest.fixture
def workers(monkeypatch, cpus):
    """Two CPUs, so a training runs on workers; records the workers started
    and the sizes of the mappings made."""
    cpus(2)
    log = {"workers": [], "sizes": []}
    fork, new_mapping = sw.ShardWorkers._fork, sw.mmap.mmap

    def recording_fork(self, shard, step):
        log["workers"].append(fork(self, shard, step))
        return log["workers"][-1]

    def recording_mapping(fileno, length):
        log["sizes"].append(length)
        return new_mapping(fileno, length)

    monkeypatch.setattr(sw.ShardWorkers, "_fork", recording_fork)
    monkeypatch.setattr(sw.mmap, "mmap", recording_mapping)
    return log


@pytest.fixture
def calls(monkeypatch):
    """``calls(module, name, record)`` wraps ``module.name`` so that each
    call, in this process or a worker forked after, writes the caller's
    pid and the ints ``record(*args)`` through a pipe; it returns a
    function that closes the pipe and returns those tuples, call by
    call."""
    fds = []

    def watch(module, name, record=lambda *args: ()):
        function = getattr(module, name)
        report_in, report_out = os.pipe()
        fds.extend((report_in, report_out))

        def reporting(*args, **kwargs):
            os.write(report_out, b"%s\n" % b" ".join(
                b"%d" % k for k in (os.getpid(), *record(*args))))
            return function(*args, **kwargs)

        def records():
            os.close(report_out)
            fds.remove(report_out)
            with os.fdopen(report_in, "rb") as f:
                fds.remove(report_in)
                return [tuple(map(int, line.split())) for line in f.read().splitlines()]

        monkeypatch.setattr(module, name, reporting)
        return records

    yield watch
    for fd in fds:
        os.close(fd)


def assert_nothing_left(log, started=2):
    """Every worker started has been reaped and its pipes are closed."""
    assert len(log["workers"]) == started
    for worker in log["workers"]:
        assert worker.code is not None
        assert worker.requests.closed and worker.replies.closed


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def fail_at_step(monkeypatch, step, action, method="step"):
    """Run ``action(workers)`` before the ``step``-th worker step (1-based),
    or before its Adam update if ``method`` is ``"adam_step"``."""
    original = getattr(sw.ShardWorkers, method)
    calls = []

    def step_hook(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == step:
            action(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sw.ShardWorkers, method, step_hook)


def kill_worker(shard):
    def action(pool):
        os.kill(pool._workers[shard].pid, signal.SIGKILL)
    return action


def bad_reply(kind, update=False):
    """A worker reply that goes wrong: ``cut`` writes the first half of the
    reply's pickle and kills its worker, ``garbled`` writes bytes that are
    no pickle and lets the worker wait for the next request.  With
    ``update``, only the replies to Adam updates (None) go wrong."""
    good_reply = sw._reply

    def reply(out, message):
        if update and message is not None:
            return good_reply(out, message)
        data = pickle.dumps(message)
        out.write(data[:len(data) // 2] if kind == "cut" else b"no pickle")
        out.flush()
        if kind == "cut":
            os.kill(os.getpid(), signal.SIGKILL)
    return reply


def trained(data, config, arch, tmp_path, name):
    rows = []
    path = tmp_path / f"{name}.ckpt"
    tf.train_model(data, config, arch, log_rows=rows).save(path)
    return path.read_bytes(), rows


# trains a default-size model on the workers (two CPUs) and in process (one
# CPU), in a process whose OpenBLAS runs two threads; prints the parent's
# BLAS thread count before and after, each worker step's BLAS thread count
# and its number of OS threads, and whether both checkpoints and logged
# losses are the same bytes
TWO_BLAS_THREADS = """
import json, os, sys
import numpy as np
from bagbid import shard_worker as sw, transformer as tf

threads = sw.openblas_function("openblas_get_num_threads")
parent = os.getpid()
report_in, report_out = os.pipe()
shard_step = tf.shard_step

def reporting_step(*args):
    if os.getpid() != parent:
        os.write(report_out, bytes([threads(), len(os.listdir("/proc/self/task"))]))
    return shard_step(*args)

tf.shard_step = reporting_step
gen = np.random.Generator(np.random.PCG64(5))
n, t = 8, 48
data = tf.TrainingBatch(gen.normal(size=(n, t, tf.STATE_DIM)), gen.uniform(0, 5, (n, t)),
                        gen.normal(size=(n, t)), gen.integers(0, 2, (n, t)))
parent_threads = threads()
runs = []
for cpus in ({0, 1}, {0}):
    os.sched_getaffinity = lambda pid, cpus=cpus: cpus
    rows = []
    path = os.path.join(sys.argv[1], f"{len(cpus)}-cpus.ckpt")
    tf.train_model(data, tf.ModelConfig(train_steps=4), log_rows=rows).save(path)
    with open(path, "rb") as f:
        runs.append((f.read(), rows))
os.close(report_out)
with os.fdopen(report_in, "rb") as f:
    report = f.read()
print(json.dumps({"parent_threads": [parent_threads, threads()],
                  "worker_threads": list(report[::2]), "worker_tasks": list(report[1::2]),
                  "same_bytes": runs[0] == runs[1]}))
"""


@pytest.fixture(scope="module")
def two_blas_threads(tmp_path_factory):
    if sw.blas_threads() is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tf.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", TWO_BLAS_THREADS,
                          str(tmp_path_factory.mktemp("two-blas-threads"))],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout)
    assert result["parent_threads"] == [2, 2]
    return result


class TestSameBytes:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_worker_path_matches_in_process_path(self, arch, workers, cpus, tmp_path):
        """Checkpoint and logged losses are byte-identical whether the
        steps run on the workers (two CPUs) or in process (one CPU)."""
        data, config = small_data(), small_config()
        on_workers = trained(data, config, ARCHS[arch], tmp_path, "workers")
        assert_nothing_left(workers)
        cpus(1)
        in_process = trained(data, config, ARCHS[arch], tmp_path, "in-process")
        assert len(workers["workers"]) == 2
        assert on_workers == in_process

    def test_default_model(self, workers, cpus, tmp_path):
        """The same at the default model size, whose GEMMs are large enough
        for a multi-threaded BLAS to split them (as it does in
        ``test_two_blas_threads_in_the_parent``)."""
        data, config = small_data(n=8, t=48), tf.ModelConfig(train_steps=4)
        on_workers = trained(data, config, tf.ARCH_FULL, tmp_path, "workers")
        cpus(1)
        assert on_workers == trained(data, config, tf.ARCH_FULL, tmp_path, "in-process")
        assert_nothing_left(workers)

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_uneven_and_empty_shards(self, batch_size, workers, cpus, monkeypatch,
                                     tmp_path):
        """A batch of 3 splits into shards of 2 and 1; a batch of 1 leaves
        the second shard empty, whose gradient row reads zero after both
        messages of every step."""
        second_row_nonzero = []
        for method in ("step", "adam_step"):
            def reading(self, *args, original=getattr(sw.ShardWorkers, method), **kwargs):
                result = original(self, *args, **kwargs)
                second_row_nonzero.append(bool(self._grads[1].any()))
                return result
            monkeypatch.setattr(sw.ShardWorkers, method, reading)
        data, config = small_data(), small_config(batch_size=batch_size)
        on_workers = trained(data, config, tf.ARCH_FULL, tmp_path, "workers")
        assert second_row_nonzero == [batch_size > 1] * 2 * config.train_steps
        cpus(1)
        assert on_workers == trained(data, config, tf.ARCH_FULL, tmp_path, "in-process")
        assert_nothing_left(workers)

    def test_two_blas_threads_in_the_parent(self, two_blas_threads):
        """The same at the default model size in a process whose OpenBLAS
        runs two threads, its workers one each."""
        assert two_blas_threads["same_bytes"]


def test_worker_runs_one_blas_thread(two_blas_threads):
    """Each worker step runs one BLAS thread, and no idle pool thread
    beside it, while the parent runs two before and after the training."""
    assert two_blas_threads["worker_threads"] == [1] * 8  # 2 workers, steps 0-3
    assert two_blas_threads["worker_tasks"] == [1] * 8


class TestWhenWorkersStart:
    @pytest.fixture
    def no_fork(self, monkeypatch):
        def fork():
            raise AssertionError("a worker was started")
        monkeypatch.setattr(os, "fork", fork)

    def test_every_step_runs_on_the_workers(self, workers, calls):
        """With two CPUs, a 2-step training forks both workers, and each
        runs one shard and one Adam update of every step; this process
        runs none."""
        shards, updates = calls(tf, "shard_step"), calls(nc, "adam_region")
        tf.train_model(small_data(), small_config(train_steps=2))
        pids = sorted(2 * [(worker.pid,) for worker in workers["workers"]])
        assert sorted(shards()) == pids
        assert sorted(updates()) == pids
        assert_nothing_left(workers)

    def test_one_cpu_starts_no_worker(self, cpus, no_fork):
        cpus(1)
        tf.train_model(small_data(), small_config())

    def test_no_blas_thread_count_starts_no_worker(self, cpus, monkeypatch, no_fork):
        """Where this process's BLAS thread count cannot be set, training
        stays in process."""
        cpus(2)
        monkeypatch.setattr(tf, "blas_threads", lambda: None)
        tf.train_model(small_data(), small_config())

    def test_single_step_starts_no_worker(self, cpus, no_fork):
        cpus(2)
        tf.train_model(small_data(), small_config(train_steps=1))


class TestWorkersOwnTheStep:
    def test_trainer_holds_no_gradients_or_adam_state(self, workers):
        """A training on the workers returns a model that never allocated a
        gradient buffer and holds no Adam moments."""
        model = tf.train_model(small_data(), small_config(train_steps=3))
        assert model.params._buffers.grads is None
        assert model.params.adam is None
        assert_nothing_left(workers)

    def test_adam_halves_tile_the_arena(self, workers, calls):
        """At every step each worker updates one region, and the two
        regions tile the arena with no overlap."""
        config = small_config(train_steps=3)
        size = tf.TrajectoryTransformer(config).params.size
        updates = calls(nc, "adam_region",
                        lambda values, grads, state, *args: (state.t, state.lo, state.hi))
        tf.train_model(small_data(), config)
        regions = {}
        for pid, t, lo, hi in updates():
            regions.setdefault(t, []).append((lo, hi, pid))
        assert sorted(regions) == [0, 1, 2]  # the steps taken before each update
        pids = {worker.pid for worker in workers["workers"]}
        for (lo0, hi0, pid0), (lo1, hi1, pid1) in map(sorted, regions.values()):
            assert {pid0, pid1} == pids
            assert 0 == lo0 < hi0 == lo1 < hi1 == size
        assert_nothing_left(workers)


def nan_gradient(monkeypatch, names):
    """Make every shard step leave a NaN in the last gradient element of
    each parameter of ``names``."""
    shard_step = tf.shard_step

    def poisoning_step(model, *args):
        sums = shard_step(model, *args)
        for name in names:
            model.params[name].grad.flat[-1] = np.nan
        return sums

    monkeypatch.setattr(tf, "shard_step", poisoning_step)


class TestFailures:
    def test_nan_data_on_the_worker_path(self, workers):
        """A NaN in the data makes the parent reject the summed gradient;
        both workers stop and their pipes are closed."""
        config, data = small_config(), small_data()
        data.states[:, 3, 2] = np.nan
        with pytest.raises(nc.NonFiniteGradientError):
            tf.train_model(data, config)
        assert_nothing_left(workers)

    @pytest.mark.parametrize("where", ["first", "middle", "last", "last,middle"])
    def test_nan_gradient_names_the_first_parameter(self, where, workers, cpus,
                                                    monkeypatch):
        """Both paths raise the same error, naming the first parameter in
        arena order whose gradient is not finite: the first, the last, or
        the one that holds the middle of the arena, whose NaN element
        falls in the second worker's half."""
        config = small_config()
        params = tf.TrajectoryTransformer(config).params
        ends = np.cumsum([p.value.size for _, p in params.items()])
        middle = params.names()[int(np.searchsorted(ends, params.size // 2, side="right"))]
        names = {"first": params.names()[0], "middle": middle, "last": params.names()[-1]}
        where = where.split(",")
        nan_gradient(monkeypatch, [names[w] for w in where])
        expected = f"non-finite gradient for {names[min(where, key=list(names).index)]!r}"
        for k in (2, 1):
            cpus(k)
            with pytest.raises(nc.NonFiniteGradientError) as e:
                tf.train_model(small_data(), config)
            assert str(e.value) == expected
        assert_nothing_left(workers)

    def test_worker_exception(self, workers):
        """An expert level out of range raises in the worker that reads it;
        the parent raises its message."""
        config, data = small_config(), small_data()
        data.levels[:, 5] = config.k_levels
        with pytest.raises(sw.ShardWorkerError, match="training worker [01] failed: "
                                                      "ShapeError: embedding index out of range"):
            tf.train_model(data, config)
        assert_nothing_left(workers)

    def test_worker_that_fails_to_start(self, workers, monkeypatch):
        """A failing fork, of the first worker or of the second, stops the
        worker already started and leaves no pipe open."""
        fork = os.fork
        for failing in range(2):
            forks = []

            def failing_fork():
                forks.append(1)
                if len(forks) == failing + 1:
                    raise BlockingIOError(11, "Resource temporarily unavailable")
                return fork()

            monkeypatch.setattr(os, "fork", failing_fork)
            fds = open_fds()
            with pytest.raises(sw.ShardWorkerError,
                               match=f"^cannot start training worker {failing}: "
                                     ".*Resource temporarily unavailable$"):
                tf.train_model(small_data(), small_config())
            assert open_fds() == fds
        assert_nothing_left(workers, started=1)

    def test_killed_worker(self, workers, monkeypatch):
        fail_at_step(monkeypatch, 2, kill_worker(1))
        with pytest.raises(sw.ShardWorkerError, match="training worker 1 exited with code -9"):
            tf.train_model(small_data(), small_config())
        assert_nothing_left(workers)

    @pytest.mark.parametrize("reply", ["cut", "garbled"])
    def test_unreadable_reply(self, reply, workers, monkeypatch):
        """A reply that is cut off mid-pickle, or is no pickle, counts as
        the worker's exit; the parent kills a worker still running."""
        monkeypatch.setattr(sw, "_reply", bad_reply(reply))
        with pytest.raises(sw.ShardWorkerError,
                           match="^training worker 0 exited with code -9$"):
            tf.train_model(small_data(), small_config())
        assert_nothing_left(workers)

    def test_worker_exception_in_the_update(self, workers, monkeypatch):
        def failing_region(*args, **kwargs):
            raise ValueError("no update")
        monkeypatch.setattr(nc, "adam_region", failing_region)
        with pytest.raises(sw.ShardWorkerError,
                           match="^training worker 0 failed: ValueError: no update$"):
            tf.train_model(small_data(), small_config())
        assert_nothing_left(workers)

    def test_killed_worker_in_the_update(self, workers, monkeypatch):
        """A worker killed between the two messages of a step."""
        fail_at_step(monkeypatch, 2, kill_worker(1), method="adam_step")
        with pytest.raises(sw.ShardWorkerError, match="training worker 1 exited with code -9"):
            tf.train_model(small_data(), small_config())
        assert_nothing_left(workers)

    @pytest.mark.parametrize("reply", ["cut", "garbled"])
    def test_unreadable_update_reply(self, reply, workers, monkeypatch):
        monkeypatch.setattr(sw, "_reply", bad_reply(reply, update=True))
        with pytest.raises(sw.ShardWorkerError,
                           match="^training worker 0 exited with code -9$"):
            tf.train_model(small_data(), small_config())
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


def test_shared_file_holds_only_values_and_gradients(workers):
    """The shared mapping holds the values and the two shards' gradients,
    exactly 3 x the number of parameters float64 values."""
    config = small_config()
    size = tf.TrajectoryTransformer(config, tf.ARCH_FULL).params.size
    tf.train_model(small_data(), config)
    assert workers["sizes"] == [3 * size * np.dtype(np.float64).itemsize]
    assert_nothing_left(workers)
