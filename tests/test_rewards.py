import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bagbid import rewards as rw


def one_bag(rewards, scores, beta):
    """``redistribute_trajectory`` of an episode that is a single bag."""
    rewards = np.asarray(rewards, dtype=np.float64)
    return rw.redistribute_trajectory(rewards, scores, rewards.shape[-1], beta)


def weight_ratio(score, beta):
    """phi(score) / phi(0), read off a two-slot bag with scores
    [score, 0] and one reward in each slot."""
    out = one_bag([1.0, 1.0], [score, 0.0], beta)
    return out[0] / out[1]


class TestPhi:
    """The weight phi(score) = exp(score / beta), seen through the split
    of a one-bag episode."""

    def test_zero_score(self):
        r = np.array([0.0, 1.0, 2.0, 5.0])
        for beta in (0.5, 123.0):
            assert np.array_equal(one_bag(r, np.zeros(4), beta), np.full(4, 2.0))

    def test_unit_score_half_beta(self):
        assert weight_ratio(1.0, 0.5) == pytest.approx(math.e**2, rel=1e-12)

    def test_large_beta_limit(self):
        out = one_bag(np.ones(11), np.linspace(0, 1, 11), 1e9)
        assert np.abs(out - 1.0).max() < 1e-8

    def test_bounds_for_unit_interval(self):
        out = one_bag(np.ones(101), np.linspace(0, 1, 101), 0.5)
        assert out.max() / out.min() <= math.e**2 * (1 + 1e-12)

    def test_bad_beta(self):
        for beta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="beta must be positive"):
                one_bag(np.ones(8), np.full(8, 0.5), beta)


class TestRedistributeBag:
    """One-bag episodes and stacks of them."""

    def test_equal_scores_uniform_split(self):
        # equal weights: every slot gets total/len
        r = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0])
        out = one_bag(r, np.full(8, 0.4), 0.5)
        assert np.allclose(out, np.full(8, r.sum() / 8), atol=1e-12)
        r2 = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
        out2 = one_bag(r2, np.full(8, 0.4), 0.5)
        assert np.allclose(out2, np.full(8, 0.375), atol=1e-12)

    def test_two_slot_hand_value(self):
        # weights [e, 1], total 4 -> [4e/(e+1), 4/(e+1)]
        out = one_bag([1.0, 3.0], [1.0, 0.0], 1.0)
        e = math.e
        assert out[0] == pytest.approx(4 * e / (e + 1), rel=1e-12)
        assert out[1] == pytest.approx(4 / (e + 1), rel=1e-12)

    def test_zero_total(self):
        out = one_bag(np.zeros(4), [0.1, 0.9, 0.5, 0.2], 0.5)
        assert np.array_equal(out, np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-shape"):
            one_bag([1.0, 2.0], [0.5], 0.5)

    def test_conservation_10k_random_bags(self):
        rng = np.random.Generator(np.random.PCG64(99))
        r = rng.poisson(1.0, (10_000, 8)).astype(float)
        out = rw.redistribute_trajectory(r, rng.random((10_000, 8)), 8, 0.5)
        total = r.sum(axis=1)
        zero = total == 0
        assert np.array_equal(out[zero], np.zeros((zero.sum(), 8)))
        rel = np.abs(out.sum(axis=1) - total)[~zero] / total[~zero]
        assert rel.max() <= 1e-12

    def test_monotone_in_score_positive_total(self):
        rng = np.random.Generator(np.random.PCG64(5))
        r = rng.poisson(1.0, (100, 8)).astype(float)
        s = rng.random((100, 8))
        out = rw.redistribute_trajectory(r, s, 8, 0.5)[r.sum(axis=1) > 0]
        s = s[r.sum(axis=1) > 0]
        order = np.argsort(s, axis=1)
        steps = np.diff(np.take_along_axis(out, order, axis=1), axis=1)
        assert np.all(steps >= 0)
        distinct = np.diff(np.sort(s, axis=1), axis=1) > 1e-12
        assert np.all(steps[distinct] > 0)

    def test_uniform_limit_large_beta(self):
        rng = np.random.Generator(np.random.PCG64(6))
        r = rng.poisson(2.0, 8).astype(float)
        out = one_bag(r, rng.random(8), 1e6)
        assert np.abs(out - r.sum() / 8).max() < 1e-5 * r.sum()

    @given(
        rewards=st.lists(st.floats(0, 50), min_size=2, max_size=16),
        beta=st.floats(0.05, 100.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_conservation_and_sign(self, rewards, beta, seed):
        r = np.asarray(rewards)
        s = np.random.Generator(np.random.PCG64(seed)).random(len(rewards))
        out = one_bag(r, s, beta)
        assert np.all(out >= 0.0)
        assert out.sum() == pytest.approx(r.sum(), rel=1e-12, abs=1e-12)


class TestRecomputeRtg:
    def test_suffix_sum_example(self):
        assert np.allclose(rw.recompute_rtg([1.0, 0.0, 2.0]), [3.0, 2.0, 2.0])

    def test_all_zero(self):
        assert np.array_equal(rw.recompute_rtg(np.zeros(6)), np.zeros(6))

    def test_recurrence_bitwise(self):
        rng = np.random.Generator(np.random.PCG64(17))
        r = rng.random((200, 48)) * rng.poisson(1.0, (200, 48))
        rtg = rw.recompute_rtg(r)
        assert np.array_equal(rtg[:, 1:], rtg[:, :-1] - r[:, :-1])

    def test_first_label_is_episode_total(self):
        rng = np.random.Generator(np.random.PCG64(23))
        r = rng.random(16)
        assert rw.recompute_rtg(r)[0] == r.sum()

    def test_total_invariant_under_redistribution(self):
        rng = np.random.Generator(np.random.PCG64(31))
        r = rng.poisson(1.0, (50, 48)).astype(float)
        rhat = rw.redistribute_trajectory(r, rng.random((50, 48)), bag_len=8, beta=0.5)
        before = rw.recompute_rtg(r)[:, 0]
        after = rw.recompute_rtg(rhat)[:, 0]
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_nonnegative_labels_up_to_rounding(self):
        rng = np.random.Generator(np.random.PCG64(37))
        r = rng.poisson(0.7, (100, 48)).astype(float)
        rhat = rw.redistribute_trajectory(r, rng.random((100, 48)), bag_len=8, beta=0.5)
        assert rw.recompute_rtg(rhat).min() >= -1e-9

    @pytest.mark.parametrize("r", [5.0, np.zeros(0), np.zeros((3, 0))],
                             ids=["scalar", "empty", "empty-rows"])
    def test_empty_episode_rejected(self, r):
        with pytest.raises(ValueError, match="non-empty"):
            rw.recompute_rtg(r)


class TestRedistributeTrajectory:
    def test_bag_alignment_enforced(self):
        with pytest.raises(ValueError, match="not divisible"):
            rw.redistribute_trajectory(np.ones(10), np.zeros(10), bag_len=8, beta=0.5)

    def test_per_bag_totals_preserved(self):
        rng = np.random.Generator(np.random.PCG64(41))
        r = rng.poisson(1.5, 24).astype(float)
        s = rng.random(24)
        out = rw.redistribute_trajectory(r, s, bag_len=8, beta=0.5)
        for start in range(0, 24, 8):
            sl = slice(start, start + 8)
            assert out[sl].sum() == pytest.approx(r[sl].sum(), rel=1e-12, abs=1e-12)

    def test_bags_do_not_leak_across_boundaries(self):
        r = np.zeros(16)
        r[:8] = 1.0  # all reward in bag 0
        s = np.linspace(0, 1, 16)
        out = rw.redistribute_trajectory(r, s, bag_len=8, beta=0.5)
        assert out[8:].sum() == 0.0
        assert out[:8].sum() == pytest.approx(8.0)

    @pytest.mark.parametrize("rewards_shape, scores_shape", [
        ((3, 16), (3, 8)), ((3, 16), (2, 16)), ((3, 16), (16,)), ((), ()),
    ], ids=["short-rows", "fewer-rows", "unbatched-scores", "scalar"])
    def test_shape_mismatch_rejected(self, rewards_shape, scores_shape):
        with pytest.raises(ValueError, match="equal-shape"):
            rw.redistribute_trajectory(np.ones(rewards_shape), np.zeros(scores_shape),
                                       bag_len=8, beta=0.5)


@st.composite
def episode_stacks(draw):
    """Rewards, scores and bag length of a (..., T) stack of episodes;
    T reaches past 128, where numpy's pairwise sum splits a row."""
    bag_len = draw(st.integers(1, 40))
    lead = draw(st.sampled_from([(1,), (5,), (2, 3)]))
    shape = (*lead, bag_len * draw(st.integers(1, 4)))
    rewards = draw(hnp.arrays(np.float64, shape, elements=st.floats(0, 50)))
    scores = draw(hnp.arrays(np.float64, shape, elements=st.floats(0, 1)))
    return rewards, scores, bag_len


class TestBatchedEqualsRows:
    @given(stack=episode_stacks(), beta=st.floats(0.05, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_stack_equals_rows_bitwise(self, stack, beta, label_loops):
        """A call on the stack gives bitwise each row's own call, and the
        bag-by-bag, step-by-step loops."""
        rewards, scores, bag_len = stack
        rhat = rw.redistribute_trajectory(rewards, scores, bag_len, beta)
        rtg = rw.recompute_rtg(rhat)
        t = rewards.shape[-1]
        for r, s, rh, rt in zip(rewards.reshape(-1, t), scores.reshape(-1, t),
                                rhat.reshape(-1, t), rtg.reshape(-1, t)):
            row = rw.redistribute_trajectory(r, s, bag_len, beta)
            assert rh.tobytes() == row.tobytes()
            assert rt.tobytes() == rw.recompute_rtg(row).tobytes()
            assert row.tobytes() == label_loops.redistribute(r, s, bag_len, beta).tobytes()
            assert rt.tobytes() == label_loops.rtg(row).tobytes()
