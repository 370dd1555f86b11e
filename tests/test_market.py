import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from bagbid.market import (
    MarketConfig,
    MarketEnv,
    MarketInputError,
    OpportunityStream,
    constant_policy,
    run_episode,
    run_episodes,
    sinusoid_cvr_profile,
)
from bagbid.trajectory import CampaignConstraints, Trajectory


@dataclass(frozen=True)
class Opportunity:
    """A single impression: predicted conversion probability and the
    highest competing bid it will face."""

    value: float
    competitor_bid: float
    step_index: int

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise MarketInputError(f"value must be in (0,1), got {self.value}")
        if self.competitor_bid < 0:
            raise MarketInputError("competitor_bid must be >= 0")
        if self.step_index < 0:
            raise MarketInputError("step_index must be >= 0")


@dataclass(frozen=True)
class AuctionOutcome:
    won: bool
    payment: float
    converted: bool


def run_auction(bid, opp: Opportunity, rng_draw, cvr_profile) -> AuctionOutcome:
    """Scalar oracle of one truthful second-price auction.

    The agent wins on a strictly greater bid (ties lose), pays the
    competitor bid, and converts when ``rng_draw`` falls below the
    effective conversion probability of the opportunity's step.
    """
    if not math.isfinite(bid) or bid < 0:
        raise MarketInputError(f"bid must be finite and non-negative, got {bid}")
    won = bid > opp.competitor_bid
    if not won:
        return AuctionOutcome(won=False, payment=0.0, converted=False)
    prob = min(opp.value * float(cvr_profile[opp.step_index]), 1.0)
    return AuctionOutcome(won=True, payment=opp.competitor_bid, converted=rng_draw < prob)


def flat_profile(steps):
    return np.ones(steps)


class TestRunAuction:
    def test_second_price_payment(self):
        opp = Opportunity(value=0.5, competitor_bid=0.7, step_index=0)
        out = run_auction(1.0, opp, rng_draw=0.99, cvr_profile=flat_profile(1))
        assert out.won and out.payment == 0.7

    def test_tie_loses(self):
        opp = Opportunity(value=0.5, competitor_bid=0.7, step_index=0)
        out = run_auction(0.7, opp, rng_draw=0.0, cvr_profile=flat_profile(1))
        assert not out.won and out.payment == 0.0 and not out.converted

    def test_loss_never_converts(self):
        opp = Opportunity(value=0.999, competitor_bid=0.6, step_index=0)
        for draw in (0.0, 1e-12, 0.5):
            out = run_auction(0.5, opp, rng_draw=draw, cvr_profile=flat_profile(1))
            assert not out.won and not out.converted

    def test_conversion_threshold(self):
        opp = Opportunity(value=0.4, competitor_bid=0.1, step_index=0)
        profile = np.array([1.5])
        assert run_auction(1.0, opp, 0.599, profile).converted
        assert not run_auction(1.0, opp, 0.601, profile).converted

    def test_payment_never_exceeds_bid(self, rng):
        profile = flat_profile(1)
        for _ in range(500):
            opp = Opportunity(
                value=float(rng.uniform(0.01, 0.99)),
                competitor_bid=float(rng.lognormal(-2, 1)),
                step_index=0,
            )
            bid = float(rng.uniform(0, 1))
            out = run_auction(bid, opp, float(rng.random()), profile)
            if out.won:
                assert out.payment <= bid

    def test_nonfinite_bid_rejected(self):
        opp = Opportunity(value=0.5, competitor_bid=0.7, step_index=0)
        with pytest.raises(MarketInputError):
            run_auction(float("nan"), opp, 0.5, flat_profile(1))
        with pytest.raises(MarketInputError):
            run_auction(float("inf"), opp, 0.5, flat_profile(1))


class TestStep:
    def test_zero_action_zero_everything(self, small_config, constraints):
        env = MarketEnv(small_config, constraints)
        _, reward, spend = env.step(0.0)
        assert reward == 0 and spend == 0.0

    def test_exhausted_budget_spends_nothing(self, small_config):
        env = MarketEnv(small_config, CampaignConstraints(budget=1e-12, ros_bound=1.0))
        for _ in range(small_config.steps_per_episode):
            _, _, spend = env.step(5.0)
            assert spend == 0.0

    def test_spend_matches_replay_oracle(self, small_config, constraints):
        """Independent pure-python replay of the same seeded stream."""
        env = MarketEnv(small_config, constraints)
        action = 1.0
        _, _, spend0 = env.step(action)

        stream = OpportunityStream(small_config)
        sl = stream.step_slice(0)
        expected = 0.0
        remaining = constraints.budget
        for v, c in zip(stream.values[sl], stream.comp_bids[sl]):
            if action * v > c and c <= remaining:
                expected += c
                remaining -= c
        assert spend0 == expected

    def test_mean_value_feature_is_step_slice_mean(self, small_config, constraints):
        """The precomputed per-step mean equals the mean of the step's
        slice bitwise, so the state feature did not change."""
        env = MarketEnv(small_config, constraints)
        stream = OpportunityStream(small_config)
        for t in range(small_config.steps_per_episode):
            state, _, _ = env.step(1.0)
            assert state[5] == stream.values[stream.step_slice(t)].mean()

    def test_action_clamped_with_warning(self, small_config, constraints, caplog):
        env = MarketEnv(small_config, constraints)
        with caplog.at_level("WARNING"):
            env.step(small_config.a_max + 5.0)
        assert any("clamping" in r.message for r in caplog.records)
        assert env.actions[0] == small_config.a_max

    def test_step_after_done_rejected(self, small_config, constraints):
        env = MarketEnv(small_config, constraints)
        for _ in range(small_config.steps_per_episode):
            env.step(0.0)
        with pytest.raises(MarketInputError):
            env.step(0.0)


class TestRunEpisode:
    def test_zero_policy(self, small_config, constraints):
        traj = run_episode(constant_policy(0.0), small_config, constraints)
        assert traj.total_reward == 0.0 and traj.total_spend == 0.0

    def test_determinism_byte_for_byte(self, small_config, constraints):
        t1 = run_episode(constant_policy(1.3), small_config, constraints)
        t2 = run_episode(constant_policy(1.3), small_config, constraints)
        assert json.dumps(t1.to_json_dict()) == json.dumps(t2.to_json_dict())

    def test_budget_accounting_oracle(self, small_config):
        """Recompute spend from the trajectory record; total stays within
        budget."""
        constraints = CampaignConstraints(budget=2.0, ros_bound=6.0)
        traj = run_episode(constant_policy(1.0), small_config, constraints)
        assert traj.spends.sum() <= constraints.budget + 1e-9
        # the recorded per-step spends are what the totals claim
        assert traj.total_spend == traj.spends.sum()

    def test_episode_shape(self, small_config, constraints):
        traj = run_episode(constant_policy(1.0), small_config, constraints)
        t = small_config.steps_per_episode
        assert traj.states.shape == (t, 8)
        for arr in (traj.actions, traj.rewards, traj.spends, traj.values):
            assert arr.shape == (t,)

    def test_policy_sees_history(self, small_config, constraints):
        seen = []

        def policy(states, actions, rewards):
            seen.append((len(states), len(actions), len(rewards)))
            return 0.5

        run_episode(policy, small_config, constraints)
        assert seen[0] == (1, 0, 0)
        assert seen[-1] == (small_config.steps_per_episode, len(seen) - 1, len(seen) - 1)


class TestRunEpisodes:
    def test_mismatched_inputs_rejected_before_stepping(self, small_config, constraints):
        calls = []

        def policy(states, actions, rewards):
            calls.append(1)
            return np.zeros(len(states))

        short = MarketConfig(steps_per_episode=12, opportunities_per_step=20,
                             cvr_profile=np.ones(12), seed=1)
        for configs, ids in [([small_config, small_config], ["c0"]),
                             ([small_config, short], ["c0", "c1"])]:
            with pytest.raises(MarketInputError):
                run_episodes(policy, configs, [constraints] * 2, ids)
        with pytest.raises(MarketInputError):
            run_episodes(lambda s, a, r: np.zeros(1), [small_config] * 2,
                         [constraints] * 2, ["c0", "c1"])
        assert not calls

    def test_policy_sees_clamped_actions(self, small_config, constraints):
        """The action history handed to the policy is the one the
        trajectory records: bids as clamped to [0, a_max]."""
        cfg = dataclasses.replace(small_config, a_max=2.0)
        seen = []

        def policy(states, actions, rewards):
            seen.append(actions.copy())
            return np.full(len(states), 5.0)

        (traj,) = run_episodes(policy, [cfg], [constraints], ["c0"])
        assert np.array_equal(traj.actions, np.full(cfg.steps_per_episode, 2.0))
        assert np.array_equal(seen[-1][0], traj.actions[:-1])


class TestInvariants:
    def test_budget_safety_random_policies(self, small_config, rng):
        constraints = CampaignConstraints(budget=1.5, ros_bound=6.0)
        for seed in range(10):
            cfg = dataclasses.replace(small_config, seed=seed)

            def policy(states, actions, rewards):
                return float(rng.uniform(0, cfg.a_max))

            traj = run_episode(policy, cfg, constraints)
            assert traj.spends.sum() <= constraints.budget + 1e-9

    def test_monotone_spend_ample_budget(self, small_config):
        """Without budget pressure the won set grows with the action, so
        spend is exactly non-decreasing."""
        constraints = CampaignConstraints(budget=1e9, ros_bound=1e9)
        spends = [
            run_episode(constant_policy(a), small_config, constraints).total_spend
            for a in np.linspace(0.0, 8.0, 12)
        ]
        assert all(b >= a for a, b in zip(spends, spends[1:]))

    def test_monotone_spend_binding_budget_within_granularity(self, small_config):
        """Hard forfeiture can locally reorder spend near exhaustion, but
        only by less than one payment."""
        constraints = CampaignConstraints(budget=2.0, ros_bound=1e9)
        stream = OpportunityStream(small_config)
        max_payment = stream.comp_bids.max()
        spends = [
            run_episode(constant_policy(a), small_config, constraints).total_spend
            for a in np.linspace(0.0, 8.0, 12)
        ]
        assert all(b >= a - max_payment for a, b in zip(spends, spends[1:]))

    def test_conversion_rarity_default_params(self):
        cfg = MarketConfig(seed=11)
        constraints = CampaignConstraints(budget=1e9, ros_bound=1e9)
        traj = run_episode(constant_policy(5.0), cfg, constraints)
        n_opps = cfg.steps_per_episode * cfg.opportunities_per_step
        assert traj.total_reward / n_opps < 0.05

    def test_state_features_bounded(self, small_config, constraints):
        traj = run_episode(constant_policy(2.0), small_config, constraints)
        assert np.isfinite(traj.states).all()
        assert (traj.states[:, 0] >= 0).all() and (traj.states[:, 0] <= 1).all()
        assert (traj.states[:, 1] >= 0).all() and (traj.states[:, 1] <= 1).all()


class TestConfigValidation:
    def test_profile_length(self):
        with pytest.raises(MarketInputError):
            MarketConfig(steps_per_episode=48, cvr_profile=np.ones(10))

    def test_profile_range(self):
        with pytest.raises(MarketInputError):
            MarketConfig(steps_per_episode=4, cvr_profile=np.array([1.0, 2.5, 1.0, 1.0]))

    def test_sinusoid_profile_in_range(self):
        for seed in range(5):
            p = sinusoid_cvr_profile(48, seed=seed)
            assert (p > 0).all() and (p <= 2.0).all()


class TestSerialization:
    def test_jsonl_roundtrip(self, small_config, constraints, tmp_path):
        from bagbid.trajectory import load_jsonl, save_jsonl

        t1 = run_episode(constant_policy(1.7), small_config, constraints,
                         campaign_id="c3", source="fixed")
        path = tmp_path / "trajs.jsonl"
        save_jsonl([t1], path)
        (t2,) = load_jsonl(path)
        assert t2.campaign_id == "c3" and t2.source == "fixed"
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.spends, t2.spends)
        assert t2.constraints == constraints
