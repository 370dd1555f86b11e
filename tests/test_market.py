import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bagbid import _kernels
from bagbid.market import (
    MarketConfig,
    MarketEnv,
    MarketInputError,
    OpportunityStream,
    replay_episodes,
    run_episodes,
    sinusoid_cvr_profile,
)
from bagbid.trajectory import STATE_DIM, CampaignConstraints, Trajectory


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

    def test_rejected_step_logs_no_clamp_warning(self, small_config, constraints, caplog):
        """A step that refuses a non-finite action applies no action, so
        it warns of no clamp, not even for an out-of-range action before
        the refused one."""
        env = MarketEnv([OpportunityStream(small_config)] * 2, [constraints] * 2)
        actions = env.actions.tobytes()
        with caplog.at_level("WARNING"), pytest.raises(MarketInputError) as info:
            env.step([small_config.a_max + 1.0, float("nan")])
        assert str(info.value) == "action must be finite, got nan"
        assert not caplog.records
        assert env.t == 0 and env.actions.tobytes() == actions


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
        assert traj.states.shape == (t, STATE_DIM)
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
        assert seen[0] == ((2, 1, STATE_DIM), (2, 0), (2, 0))
        assert seen[-1] == ((2, t, STATE_DIM), (2, t - 1), (2, t - 1))


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


def schedule_policy(schedule):
    """The closed-loop form of an open-loop schedule: bid its column t at
    step t."""
    return lambda states, actions, rewards: schedule[:, actions.shape[1]]


def day_bids(kind, steps, seed):
    """One day's bids: the random logger's overbids (forfeit-heavy under a
    binding budget), a constant scale, or bids outside [0, a_max] on both
    sides, which are clamped."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "random":
        return rng.uniform(1.0, 6.0, size=steps)
    if kind == "constant":
        return np.full(steps, rng.uniform(0.0, 3.0))
    return rng.uniform(-3.0, 14.0, size=steps)


class TestReplay:
    """``MarketEnv.replay`` runs an open-loop schedule as T ``step`` calls
    with its columns would, bit for bit."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(days=st.lists(st.tuples(
        st.integers(0, 2**31),                     # the stream's seed
        st.sampled_from([0.0, 1.0, 2.5]),          # its CVR profile's phase
        st.sampled_from([2.0, 10.0]),              # a_max
        st.sampled_from([5e-324, 1e-12, 0.05, 0.5, 3.0, 8.0, 1e3]),  # budget
        st.sampled_from(["random", "constant", "wild"]),
        st.integers(0, 2**31),                     # the bids' seed
    ), min_size=1, max_size=4))
    def test_equals_stepping(self, days, small_config, assert_same_trajectory):
        """A batch of days with mixed CVR profiles, zero-like, tiny and
        binding budgets, forfeit-heavy random-logger scales and clamped
        bids: every trajectory equals its stepped one, field for field."""
        steps = small_config.steps_per_episode
        streams = [OpportunityStream(dataclasses.replace(
            small_config, seed=seed, a_max=a_max,
            cvr_profile=sinusoid_cvr_profile(steps, phase=phase, seed=seed % 97)))
            for seed, phase, a_max, *_ in days]
        constraints = [CampaignConstraints(budget=budget, ros_bound=6.0)
                       for *_, budget, _, _ in days]
        schedule = np.array([day_bids(kind, steps, seed) for *_, kind, seed in days])
        ids = [f"c{i}" for i in range(len(days))]
        stepped = run_episodes(schedule_policy(schedule), streams, constraints, ids)
        replayed = replay_episodes(schedule, streams, constraints, ids)
        for a, b in zip(stepped, replayed, strict=True):
            assert_same_trajectory(a, b)

    def test_batch_forfeits_clamps_and_ends_as_stepping_does(self, small_config, caplog):
        """A fixed batch that forfeits and clamps: the replayed batch ends
        in the stepped batch's state, counters included, and logs the same
        warnings in the same order."""
        steps = small_config.steps_per_episode
        other = sinusoid_cvr_profile(steps, phase=1.0, seed=9)
        streams = [OpportunityStream(small_config),
                   OpportunityStream(dataclasses.replace(small_config, seed=43,
                                                         cvr_profile=other)),
                   OpportunityStream(dataclasses.replace(small_config, seed=44, a_max=2.0))]
        constraints = [CampaignConstraints(budget=b, ros_bound=6.0) for b in (8.0, 0.3, 2.0)]
        schedule = np.array([day_bids(kind, steps, i)
                             for i, kind in enumerate(["constant", "random", "wild"])])
        stepped, replayed = MarketEnv(streams, constraints), MarketEnv(streams, constraints)
        messages = []
        for run in (lambda: [stepped.step(column) for column in schedule.T],
                    lambda: replayed.replay(schedule)):
            caplog.clear()
            with caplog.at_level("WARNING"):
                run()
            messages.append([r.getMessage() for r in caplog.records])
        assert messages[0] == messages[1] and len(messages[0]) > 0
        for name in ("states", "actions", "rewards", "spends", "values", "remaining", "wins",
                     "total_spend", "total_value"):
            assert getattr(stepped, name).tobytes() == getattr(replayed, name).tobytes(), name
        assert replayed.t == steps
        won, accepted = _kernels.accepted_wins(np.repeat(replayed.actions[1], 20),
                                               streams[1].values, streams[1].comp_bids, 0.3)
        assert not accepted.all()  # the random logger's day forfeits

    def test_one_warning_per_clamped_bid(self, small_config, constraints, caplog):
        env = MarketEnv([OpportunityStream(small_config)] * 2, [constraints] * 2)
        schedule = np.ones((2, small_config.steps_per_episode))
        schedule[0, 3] = -0.5
        schedule[1, 3] = small_config.a_max + 1.0
        schedule[1, 7] = 1e9
        with caplog.at_level("WARNING"):
            env.replay(schedule)
        assert [r.getMessage() for r in caplog.records] == [
            "action -0.5 outside [0, 10]; clamping", "action 11 outside [0, 10]; clamping",
            "action 1e+09 outside [0, 10]; clamping"]
        assert (env.actions[0, 3], env.actions[1, 3], env.actions[1, 7]) == (0.0, 10.0, 10.0)

    def test_bad_schedules_rejected_as_step_rejects_them(self, small_config, constraints):
        """Row counts and non-finite bids fail with ``step``'s messages, a
        schedule of another length with its shape; the batch stays at step
        0."""
        steps = small_config.steps_per_episode

        def env():
            return MarketEnv([OpportunityStream(small_config)] * 2, [constraints] * 2)

        def error(call):
            with pytest.raises(MarketInputError) as info:
                call()
            return str(info.value)

        nan, inf = np.ones((2, steps)), np.ones((2, steps))
        nan[1, 0], inf[0, 0] = np.nan, -np.inf
        nan[0, 1] = inf[1, 0] = np.inf  # stepping meets these later
        for schedule in (np.ones((1, steps)), np.ones((3, steps)), nan, inf):
            bad = env()
            assert error(lambda: bad.replay(schedule)) == error(
                lambda: env().step(schedule[:, 0]))
            assert bad.t == 0
        for schedule in (np.ones((2, steps - 1)), np.ones((2, steps + 1)), np.ones(2)):
            assert error(lambda: env().replay(schedule)) == (
                f"schedule of shape {schedule.shape} for episodes of {steps} steps")

    def test_replay_starts_at_step_0(self, small_config, constraints):
        env = MarketEnv([OpportunityStream(small_config)], [constraints])
        env.step([1.0])
        with pytest.raises(MarketInputError, match="replay starts at step 0, not at step 1"):
            env.replay(np.ones((1, small_config.steps_per_episode)))


def features_from_record(stream, budget, actions, spends, values, t):
    """The state before acting at step t of a day (t = T: after its last
    step), recomputed from the day's stream, budget and per-step record; a
    scalar scan of the stream at the recorded bids counts the wins and
    follows the remaining budget."""
    cfg = stream.config
    t_steps, per_step = cfg.steps_per_episode, cfg.opportunities_per_step
    remaining, wins = budget, 0
    for j in range(t * per_step):
        pay = stream.comp_bids[j]
        if actions[j // per_step] * stream.values[j] > pay and pay <= remaining:
            remaining -= pay
            wins += 1
    return [
        t / t_steps,                                                     # time elapsed
        remaining / budget,                                              # budget left
        spends[t - 1] * t_steps / budget if t else 0.0,                  # last step's pace
        wins / (t * per_step) if t else 0.0,                             # win rate
        sum(spends[:t]) / wins if wins else 0.0,                         # mean price of a win
        stream.values[(t - 1) * per_step:t * per_step].mean() if t else 0.0,  # last mean value
        cfg.cvr_profile[t] if t < t_steps else 0.0,                      # next step's CVR
        sum(values[:t]) / budget,                                        # value per budget
    ]


class TestStateFeatures:
    def test_features_equal_their_recomputation(self, small_config):
        """Each feature at step 0, at a middle step and after the last step
        of three days (one ample, one that forfeits, one that wins
        nothing) equals its value recomputed from the day's record, both
        when the days are stepped and when they are replayed."""
        steps, per_step = small_config.steps_per_episode, small_config.opportunities_per_step
        streams = [OpportunityStream(dataclasses.replace(
            small_config, seed=seed, cvr_profile=sinusoid_cvr_profile(steps, phase, seed)))
            for seed, phase in ((42, 0.0), (43, 1.0), (44, 2.5))]
        budgets = (8.0, 0.3, 5.0)
        constraints = [CampaignConstraints(budget=b, ros_bound=6.0) for b in budgets]
        schedule = np.array([day_bids("constant", steps, 0), day_bids("random", steps, 1),
                             np.zeros(steps)])
        stepped, replayed = MarketEnv(streams, constraints), MarketEnv(streams, constraints)
        for column in schedule.T:
            stepped.step(column)
        replayed.replay(schedule)

        outbid = np.count_nonzero(np.repeat(schedule[1], per_step) * streams[1].values
                                  > streams[1].comp_bids)
        assert stepped.wins[0] > 0 and outbid > stepped.wins[1] > 0 and stepped.wins[2] == 0
        for env in (stepped, replayed):
            for i, (stream, budget) in enumerate(zip(streams, budgets)):
                for t in (0, steps // 2, steps):
                    expected = features_from_record(stream, budget, env.actions[i],
                                                    env.spends[i], env.values[i], t)
                    np.testing.assert_allclose(env.states[i, t], expected, rtol=1e-12, atol=0,
                                               err_msg=f"day {i}, step {t}")


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

    @pytest.mark.parametrize("name", ["values", "comp_bids", "conv_draws", "eff_values",
                                      "step_mean_values"])
    def test_stream_arrays_read_only(self, small_config, name):
        """Two dataset stages share a day's stream, so a write into it
        raises instead of changing the other stage's day."""
        stream = OpportunityStream(small_config)
        array = getattr(stream, name)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0
        assert np.array_equal(array, before)


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
