import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from bagbid import _kernels
from bagbid.market import (
    MarketConfig,
    MarketEnv,
    MarketInputError,
    OpportunityStream,
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


def constant(scales):
    """Lockstep policy bidding ``scales`` (one per episode, or one for all)
    at every step."""
    return lambda states, actions, rewards: np.broadcast_to(scales, len(states))


def roll(scale, config, constraints, campaign_id="c0", source="policy"):
    """One episode at a constant bid scale."""
    (traj,) = run_episodes(constant(scale), [OpportunityStream(config)], [constraints],
                           [campaign_id], source=source)
    return traj


class TestStep:
    def test_zero_action_zero_everything(self, small_config, constraints):
        env = MarketEnv([OpportunityStream(small_config)], [constraints])
        env.step([0.0])
        assert env.rewards[0, 0] == 0 and env.spends[0, 0] == 0.0

    def test_exhausted_budget_spends_nothing(self, small_config):
        env = MarketEnv([OpportunityStream(small_config)],
                        [CampaignConstraints(budget=1e-12, ros_bound=1.0)])
        for _ in range(small_config.steps_per_episode):
            env.step([5.0])
        assert (env.spends == 0.0).all()

    def test_spend_matches_replay_oracle(self, small_config, constraints):
        """Independent pure-python replay of the same seeded stream."""
        stream = OpportunityStream(small_config)
        env = MarketEnv([stream], [constraints])
        action = 1.0
        env.step([action])

        sl = stream.step_slice(0)
        expected = 0.0
        remaining = constraints.budget
        for v, c in zip(stream.values[sl], stream.comp_bids[sl]):
            if action * v > c and c <= remaining:
                expected += c
                remaining -= c
        assert env.spends[0, 0] == expected

    def test_mean_value_feature_is_step_slice_mean(self, small_config, constraints):
        """The precomputed per-step mean equals the mean of the step's
        slice bitwise, so the state feature did not change."""
        stream = OpportunityStream(small_config)
        env = MarketEnv([stream], [constraints])
        for t in range(small_config.steps_per_episode):
            env.step([1.0])
            assert env.states[0, t + 1, 5] == stream.values[stream.step_slice(t)].mean()

    def test_action_clamped_with_warning(self, small_config, constraints, caplog):
        """Each out-of-range action is clamped to [0, a_max] with its own
        warning; in-range actions are applied as given."""
        env = MarketEnv([OpportunityStream(small_config)] * 3, [constraints] * 3)
        with caplog.at_level("WARNING"):
            env.step([small_config.a_max + 5.0, 1.5, -2.0])
        assert sum("clamping" in r.message for r in caplog.records) == 2
        assert env.actions[:, 0].tolist() == [small_config.a_max, 1.5, 0.0]

    def test_step_after_done_rejected(self, small_config, constraints):
        env = MarketEnv([OpportunityStream(small_config)], [constraints])
        for _ in range(small_config.steps_per_episode):
            env.step([0.0])
        with pytest.raises(MarketInputError):
            env.step([0.0])

    def test_bad_actions_rejected(self, small_config, constraints):
        env = MarketEnv([OpportunityStream(small_config)] * 2, [constraints] * 2)
        for actions in ([1.0], [1.0, float("nan")], [float("inf"), 1.0]):
            with pytest.raises(MarketInputError):
                env.step(actions)
        assert env.t == 0


class TestRunEpisode:
    def test_zero_policy(self, small_config, constraints):
        traj = roll(0.0, small_config, constraints)
        assert traj.total_reward == 0.0 and traj.total_spend == 0.0

    def test_determinism_byte_for_byte(self, small_config, constraints,
                                       assert_same_trajectory):
        t1 = roll(1.3, small_config, constraints)
        t2 = roll(1.3, small_config, constraints)
        assert_same_trajectory(t1, t2)

    def test_budget_accounting_oracle(self, small_config):
        """Recompute spend from the trajectory record; total stays within
        budget."""
        constraints = CampaignConstraints(budget=2.0, ros_bound=6.0)
        traj = roll(1.0, small_config, constraints)
        assert traj.spends.sum() <= constraints.budget + 1e-9
        # the recorded per-step spends are what the totals claim
        assert traj.total_spend == traj.spends.sum()

    def test_episode_shape(self, small_config, constraints):
        traj = roll(1.0, small_config, constraints)
        t = small_config.steps_per_episode
        assert traj.states.shape == (t, 8)
        for arr in (traj.actions, traj.rewards, traj.spends, traj.values):
            assert arr.shape == (t,)

    def test_policy_sees_history(self, small_config, constraints):
        seen = []

        def policy(states, actions, rewards):
            seen.append((states.shape, actions.shape, rewards.shape))
            return np.full(len(states), 0.5)

        run_episodes(policy, [OpportunityStream(small_config)] * 2, [constraints] * 2,
                     ["c0", "c1"])
        t = small_config.steps_per_episode
        assert len(seen) == t
        assert seen[0] == ((2, 1, 8), (2, 0), (2, 0))
        assert seen[-1] == ((2, t, 8), (2, t - 1), (2, t - 1))


class TestRunEpisodes:
    def test_mismatched_inputs_rejected_before_stepping(self, small_config, constraints):
        calls = []

        def policy(states, actions, rewards):
            calls.append(1)
            return np.zeros(len(states))

        day = OpportunityStream(small_config)
        short = OpportunityStream(MarketConfig(steps_per_episode=12, opportunities_per_step=20,
                                               cvr_profile=np.ones(12), seed=1))
        for streams, constraint_list, ids in [
            ([day, day], [constraints] * 2, ["c0"]),
            ([day, short], [constraints] * 2, ["c0", "c1"]),
            ([day, day], [constraints], ["c0", "c1"]),
        ]:
            with pytest.raises(MarketInputError):
                run_episodes(policy, streams, constraint_list, ids)
        with pytest.raises(MarketInputError):
            run_episodes(lambda s, a, r: np.zeros(1), [day] * 2,
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

        (traj,) = run_episodes(policy, [OpportunityStream(cfg)], [constraints], ["c0"])
        assert np.array_equal(traj.actions, np.full(cfg.steps_per_episode, 2.0))
        assert np.array_equal(seen[-1][0], traj.actions[:-1])

    def test_batch_rows_equal_days_rolled_alone(self, small_config, monkeypatch, caplog,
                                                assert_same_trajectory):
        """A day rolled in a lockstep batch equals, field for field, the
        same day rolled alone.  The batch mixes two campaigns' CVR
        profiles, a budget that forfeits and a row whose bids are clamped;
        the policy reads each row's own state."""
        other = sinusoid_cvr_profile(24, phase=1.0, seed=9)
        days = [
            (OpportunityStream(small_config), CampaignConstraints(budget=8.0, ros_bound=6.0),
             "c0"),
            (OpportunityStream(dataclasses.replace(small_config, seed=43, cvr_profile=other)),
             CampaignConstraints(budget=0.5, ros_bound=6.0), "c1"),
            (OpportunityStream(dataclasses.replace(small_config, seed=44, a_max=2.0)),
             CampaignConstraints(budget=8.0, ros_bound=6.0), "c0"),
            (OpportunityStream(dataclasses.replace(small_config, seed=45, cvr_profile=other)),
             CampaignConstraints(budget=3.0, ros_bound=6.0), "c1"),
        ]

        def policy(states, actions, rewards):
            now = states[:, -1]
            return 0.5 + 6.0 * now[:, 1] * now[:, 6] + rewards.sum(axis=1)

        forfeits = []
        step_scan = _kernels.step_scan

        def counted(action, values, comp_bids, *rest):
            out = step_scan(action, values, comp_bids, *rest)
            forfeits.append(int(np.count_nonzero(action * values > comp_bids)) - out[0])
            return out

        monkeypatch.setattr(_kernels, "step_scan", counted)
        with caplog.at_level("WARNING"):
            batch = run_episodes(policy, *zip(*days), source="mixed")
        assert np.reshape(forfeits, (-1, len(days))).sum(axis=0)[1] > 0
        assert sum("clamping" in r.message for r in caplog.records) > 0
        assert batch[2].actions.max() == 2.0

        for (stream, k, cid), traj in zip(days, batch):
            (alone,) = run_episodes(policy, [stream], [k], [cid], source="mixed")
            assert_same_trajectory(traj, alone)


class TestInvariants:
    def test_budget_safety_random_policies(self, small_config, rng):
        constraints = CampaignConstraints(budget=1.5, ros_bound=6.0)
        streams = [OpportunityStream(dataclasses.replace(small_config, seed=seed))
                   for seed in range(10)]

        def policy(states, actions, rewards):
            return rng.uniform(0, small_config.a_max, size=len(states))

        trajs = run_episodes(policy, streams, [constraints] * 10, ["c0"] * 10)
        for traj in trajs:
            assert traj.spends.sum() <= constraints.budget + 1e-9

    def test_monotone_spend_ample_budget(self, small_config):
        """Without budget pressure the won set grows with the action, so
        spend is exactly non-decreasing."""
        constraints = CampaignConstraints(budget=1e9, ros_bound=1e9)
        scales = np.linspace(0.0, 8.0, 12)
        spends = [t.total_spend for t in run_episodes(
            constant(scales), [OpportunityStream(small_config)] * 12, [constraints] * 12,
            ["c0"] * 12)]
        assert all(b >= a for a, b in zip(spends, spends[1:]))

    def test_monotone_spend_binding_budget_within_granularity(self, small_config):
        """Hard forfeiture can locally reorder spend near exhaustion, but
        only by less than one payment."""
        constraints = CampaignConstraints(budget=2.0, ros_bound=1e9)
        stream = OpportunityStream(small_config)
        max_payment = stream.comp_bids.max()
        scales = np.linspace(0.0, 8.0, 12)
        spends = [t.total_spend for t in run_episodes(
            constant(scales), [stream] * 12, [constraints] * 12, ["c0"] * 12)]
        assert all(b >= a - max_payment for a, b in zip(spends, spends[1:]))

    def test_conversion_rarity_default_params(self):
        cfg = MarketConfig(seed=11)
        constraints = CampaignConstraints(budget=1e9, ros_bound=1e9)
        traj = roll(5.0, cfg, constraints)
        n_opps = cfg.steps_per_episode * cfg.opportunities_per_step
        assert traj.total_reward / n_opps < 0.05

    def test_state_features_bounded(self, small_config, constraints):
        traj = roll(2.0, small_config, constraints)
        assert np.isfinite(traj.states).all()
        assert (traj.states[:, 0] >= 0).all() and (traj.states[:, 0] <= 1).all()
        assert (traj.states[:, 1] >= 0).all() and (traj.states[:, 1] <= 1).all()


class TestConfigValidation:
    def test_profile_length(self):
        with pytest.raises(MarketInputError):
            MarketConfig(steps_per_episode=48, cvr_profile=np.ones(10))

    def test_profile_range(self):
        for bad in (2.5, 0.0, np.nan):
            with pytest.raises(MarketInputError):
                MarketConfig(steps_per_episode=4, cvr_profile=np.array([1.0, bad, 1.0, 1.0]))

    def test_sinusoid_profile_in_range(self):
        for seed in range(5):
            p = sinusoid_cvr_profile(48, seed=seed)
            assert (p > 0).all() and (p <= 2.0).all()


class TestSerialization:
    def test_jsonl_roundtrip(self, small_config, constraints, tmp_path,
                             assert_same_trajectory):
        from bagbid.trajectory import load_jsonl, save_jsonl

        t1 = roll(1.7, small_config, constraints, campaign_id="c3", source="fixed")
        path = tmp_path / "day.trajs"
        save_jsonl([t1], path)
        (t2,) = load_jsonl(path)
        assert t2.campaign_id == "c3" and t2.source == "fixed"
        assert t2.constraints == constraints
        assert_same_trajectory(t1, t2)
