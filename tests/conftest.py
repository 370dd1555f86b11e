import dataclasses
import gc
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bagbid.market import MarketConfig
from bagbid.trajectory import CampaignConstraints, Trajectory


@pytest.fixture(autouse=True)
def no_held_days():
    """Start every test with no training days held: a dataset stage leaves
    its days for the other one, and a test that counts stream builds or
    patches a kernel must not take another test's days."""
    from bagbid import pipeline

    pipeline.release_days()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


@pytest.fixture
def small_config():
    """Reduced market for fast unit tests (24 steps x 20 opportunities)."""
    from bagbid.market import sinusoid_cvr_profile

    return MarketConfig(
        steps_per_episode=24,
        opportunities_per_step=20,
        cvr_profile=sinusoid_cvr_profile(24, seed=5),
        seed=42,
    )


@pytest.fixture
def constraints():
    return CampaignConstraints(budget=8.0, ros_bound=6.0)


@pytest.fixture
def tiny_experiment(tmp_path):
    """Small but complete experiment config for pipeline tests."""
    from bagbid.discriminator import DiscConfig
    from bagbid.pipeline import CampaignSpec, ExperimentConfig, MarketSettings
    from bagbid.transformer import ModelConfig

    return ExperimentConfig(
        seed=7,
        output_dir=str(tmp_path / "run"),
        market=MarketSettings(steps_per_episode=24, opportunities_per_step=20),
        campaigns=[
            CampaignSpec(campaign_id="c0", budget=6.0, ros_bound=6.0),
            CampaignSpec(campaign_id="c1", budget=9.0, ros_bound=6.0),
        ],
        train_episodes_per_campaign=4,
        test_periods=2,
        test_seeds_per_period=2,
        model=ModelConfig(
            d_model=16, n_layers=1, n_heads=2, context_steps=24, bag_len=8,
            k_levels=2, train_steps=60, batch_size=4, seed=0,
        ),
        disc=DiscConfig(steps=80, batch_size=64, seed=0),
    )


def _assert_in_arena(ps):
    """Every named value and gradient is a view into the set's arena, and
    the named views cover it exactly."""
    total = 0
    for name, p in ps.items():
        assert np.shares_memory(p.value, ps.values), name
        assert np.shares_memory(p.grad, ps.grads), name
        total += p.value.size
    assert total == ps.values.size == ps.grads.size


def _adam_matches_reference(ps, fill_grads, steps=5, beta1=0.9, beta2=0.999, eps=1e-8):
    """Run ``steps`` whole-arena Adam steps beside a per-parameter Adam
    written out from the formula, with the gradients ``fill_grads()``
    leaves, and require bitwise equal values after every step."""
    from bagbid import nncore as nc

    ref = {name: (p.value.copy(), np.zeros(p.value.shape), np.zeros(p.value.shape))
           for name, p in ps.items()}
    for t in range(1, steps + 1):
        lr = 1e-3 * t
        fill_grads()
        for name, p in ps.items():
            w, m, v = ref[name]
            m *= beta1
            m += (1.0 - beta1) * p.grad
            v *= beta2
            v += (1.0 - beta2) * np.square(p.grad)
            w -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        nc.adam_step(ps, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        for name, p in ps.items():
            assert p.value.tobytes() == ref[name][0].tobytes(), (t, name)


def _grad_check(loss_fn, tensors, analytic_grads, h=1e-5):
    """Max relative error between analytic and central-difference grads.

    ``loss_fn()`` must recompute the scalar loss from the current contents
    of ``tensors`` (mutated in place while probing).  Per tensor the error
    is ``max|a - n| / max(max|a|, max|n|, 1)``; the worst tensor is
    returned.  Double precision only.
    """
    worst = 0.0
    for arr, analytic in zip(tensors, analytic_grads):
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            lp = loss_fn()
            arr[ix] = orig - h
            lm = loss_fn()
            arr[ix] = orig
            numeric[ix] = (lp - lm) / (2.0 * h)
        scale = max(
            float(np.abs(analytic).max(initial=0.0)),
            float(np.abs(numeric).max(initial=0.0)),
            1.0,
        )
        err = float(np.abs(analytic - numeric).max(initial=0.0)) / scale
        worst = max(worst, err)
    return worst


def _loop_redistribute(rewards, scores, bag_len, beta):
    """One episode, bag by bag: r_hat = phi / sum(phi) * bag total with
    phi = exp(score / beta)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    out = np.empty_like(rewards)
    for start in range(0, rewards.shape[0], bag_len):
        sl = slice(start, start + bag_len)
        weights = np.exp(scores[sl] / beta)
        out[sl] = weights / weights.sum() * rewards[sl].sum()
    return out


def _loop_rtg(r):
    """One episode, step by step: R[0] = total, R[t+1] = R[t] - r[t]."""
    r = np.asarray(r, dtype=np.float64)
    rtg = np.empty_like(r)
    rtg[0] = r.sum()
    for t in range(r.size - 1):
        rtg[t + 1] = rtg[t] - r[t]
    return rtg


def _loop_prep_labels(trajs, disc, k_levels, bag_len, beta):
    """``pipeline.prep_labels`` one trajectory, one bag and one step at a
    time: each trajectory is scored alone and labelled by the loops."""
    from bagbid.discriminator import assign_levels, sigmoid

    sig = [sigmoid(disc.score_batch(np.concatenate([t.states, t.actions[:, None]], axis=1)))
           for t in trajs]
    flags = np.concatenate(
        [np.full(t.num_steps, t.source == "expert", dtype=bool) for t in trajs])
    rtgs = np.stack([_loop_rtg(_loop_redistribute(t.rewards, s, bag_len, beta))
                     for t, s in zip(trajs, sig)])
    levels = assign_levels(np.concatenate(sig), k_levels, flags).reshape(rtgs.shape)
    return levels, rtgs


@pytest.fixture(scope="session")
def label_loops():
    """Loop references for the array label code: ``redistribute`` and
    ``rtg`` take one episode, ``prep_labels`` a list of trajectories."""
    return SimpleNamespace(redistribute=_loop_redistribute, rtg=_loop_rtg,
                           prep_labels=_loop_prep_labels)


def _loop_step_scan(action, values, comp_bids, eff_values, conv_draws, remaining):
    """``_kernels.step_scan`` as a loop over every opportunity of the step."""
    v = np.ascontiguousarray(values, dtype=np.float64).tolist()
    c = np.ascontiguousarray(comp_bids, dtype=np.float64).tolist()
    ev = np.ascontiguousarray(eff_values, dtype=np.float64).tolist()
    u = np.ascontiguousarray(conv_draws, dtype=np.float64).tolist()
    action = float(action)
    rem = float(remaining)
    spend = 0.0
    value = 0.0
    wins = 0
    conversions = 0
    for j in range(len(v)):
        bid = action * v[j]
        if bid > c[j]:
            pay = c[j]
            if pay <= rem:
                rem -= pay
                spend += pay
                value += ev[j]
                wins += 1
                if u[j] < ev[j]:
                    conversions += 1
    return wins, spend, conversions, value, rem


def _stable_solve_multipliers(stream, constraints):
    """``expert.solve_multipliers`` with a stable sort of the ratios on
    every stream, tied or not."""
    from bagbid.expert import ROS_SLACK, MultiplierSolution, _replay_scale

    if stream.size == 0:
        raise ValueError("opportunity stream is empty")
    a_max = stream.config.a_max
    bound = constraints.ros_bound + ROS_SLACK
    ratios = stream.comp_bids / stream.values
    order = np.argsort(ratios, kind="stable")
    spend = np.cumsum(np.concatenate(([0.0], stream.comp_bids[order])))
    value = np.cumsum(np.concatenate(([0.0], stream.eff_values[order])))
    edges = np.concatenate(([0.0], ratios[order], [np.inf]))
    k = np.flatnonzero(edges[1:] > edges[:-1])
    ros = np.divide(spend[k], value[k], out=np.zeros(k.size), where=value[k] > 0)
    k = k[(spend[k] <= constraints.budget) & (ros <= bound) & (edges[k] < a_max)]
    for i in k[np.argsort(-value[k], kind="stable")]:
        scale = float(min(0.5 * (edges[i] + edges[i + 1]), a_max))
        summary = _replay_scale(stream, scale, constraints.budget)
        if summary.forfeits == 0 and summary.ros <= bound:
            return MultiplierSolution(scale=scale, feasible=True, summary=summary)
    return MultiplierSolution(scale=scale, feasible=False, summary=summary)


@pytest.fixture(scope="session")
def scan_refs():
    """References for the data-generation kernels: ``step_scan`` loops
    over every opportunity, ``solve_multipliers`` always sorts stably."""
    return SimpleNamespace(step_scan=_loop_step_scan,
                           solve_multipliers=_stable_solve_multipliers)


def _split_checkpoint(path):
    """A checkpoint's or a dataset's JSON header (a dict) and its data
    bytes."""
    line, _, data = Path(path).read_bytes().partition(b"\n")
    return json.loads(line), data


def _join_checkpoint(path, header, data):
    """Write ``header`` and ``data`` to ``path`` as one checkpoint or
    dataset file."""
    Path(path).write_bytes(json.dumps(header).encode() + b"\n" + data)


@pytest.fixture
def checkpoint_parts():
    """``split(path)`` reads a checkpoint's or a dataset's header and data;
    ``join(path, header, data)`` writes them back."""
    return SimpleNamespace(split=_split_checkpoint, join=_join_checkpoint)


@pytest.fixture
def grad_check():
    return _grad_check


@pytest.fixture
def assert_in_arena():
    return _assert_in_arena


@pytest.fixture
def without_gc():
    """The cyclic garbage collector stays off for the test, so whatever the
    test sees freed was freed by reference counting alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def adam_matches_reference():
    return _adam_matches_reference


def _assert_same_trajectory(a, b):
    """Every field of two trajectories equal, the arrays bitwise (so the
    sign of zero and NaN payloads count) and of the same shape."""
    for f in dataclasses.fields(Trajectory):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert x == y, f.name


@pytest.fixture
def assert_same_trajectory():
    return _assert_same_trajectory
