"""Second-price auction market with budget forfeiture and rare conversions.

Each episode is a day of ``steps_per_episode`` steps; every step auctions a
fresh batch of impression opportunities against a fixed competitor-bid
distribution.  The agent's action is a bid-scale multiplier: opportunity j
receives bid ``action * value_j``.  Winners pay the highest competing bid;
an auction whose payment would exceed the remaining budget is forfeited, so
episode spend never exceeds the budget.  Won impressions convert with
probability ``value_j * cvr_profile[t]`` (clamped to 1), drawn from
pre-seeded uniforms so episodes are fully reproducible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from bagbid import _kernels
from bagbid.trajectory import STATE_DIM, CampaignConstraints, Trajectory

log = logging.getLogger(__name__)

STATE_FEATURES = (
    "step_frac",
    "budget_frac",
    "spend_pace_last_step",
    "cumulative_win_rate",
    "mean_cost_per_win",
    "mean_value_last_step",
    "cvr_multiplier",
    "value_per_budget",
)


class MarketInputError(ValueError):
    """Invalid input to a market operation."""


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


def sinusoid_cvr_profile(steps=48, amplitude=0.4, noise=0.05, phase=0.0, seed=0):
    """Intraday conversion-rate multiplier: sinusoid plus noise in (0, 2]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    t = np.arange(steps, dtype=np.float64)
    profile = 1.0 + amplitude * np.sin(2.0 * np.pi * t / steps + phase)
    profile = profile + noise * rng.standard_normal(steps)
    return np.clip(profile, 0.05, 2.0)


def _default_profile():
    return sinusoid_cvr_profile()


@dataclass
class MarketConfig:
    steps_per_episode: int = 48
    opportunities_per_step: int = 100
    value_distribution_params: tuple = (1.6, 90.0)  # Beta shape (a, b)
    competitor_bid_params: tuple = (-3.1, 0.9)  # mean, sigma of log bid
    cvr_profile: np.ndarray = field(default_factory=_default_profile)
    seed: int = 0
    a_max: float = 10.0

    def __post_init__(self):
        self.cvr_profile = np.asarray(self.cvr_profile, dtype=np.float64)
        self.validate()

    def validate(self, bag_len: int | None = None):
        if self.steps_per_episode <= 0 or self.opportunities_per_step <= 0:
            raise MarketInputError("episode and step sizes must be positive")
        a, b = self.value_distribution_params
        if a <= 0 or b <= 0:
            raise MarketInputError("Beta shape parameters must be positive")
        _, sigma = self.competitor_bid_params
        if sigma <= 0:
            raise MarketInputError("competitor bid log-sigma must be positive")
        if self.cvr_profile.shape != (self.steps_per_episode,):
            raise MarketInputError(
                f"cvr_profile must have length {self.steps_per_episode}"
            )
        if np.any(self.cvr_profile <= 0) or np.any(self.cvr_profile > 2.0):
            raise MarketInputError("cvr_profile values must lie in (0, 2]")
        if self.a_max <= 0:
            raise MarketInputError("a_max must be positive")
        if bag_len is not None and self.steps_per_episode % bag_len != 0:
            raise MarketInputError(
                f"steps_per_episode={self.steps_per_episode} is not divisible "
                f"by bag length {bag_len}"
            )

    def with_seed(self, seed: int) -> "MarketConfig":
        return replace(self, seed=int(seed))


class OpportunityStream:
    """The full day's opportunities for one (config, seed), pre-drawn.

    Holds flat arrays over all T*N opportunities in auction order:
    predicted values, competitor bids, per-opportunity conversion uniforms,
    and effective values (value times the step's CVR multiplier, clamped to
    1), which serve both as conversion probabilities and as the expected
    value accounted to a win.
    """

    def __init__(self, config: MarketConfig):
        self.config = config
        t_steps = config.steps_per_episode
        n = config.opportunities_per_step
        rng = np.random.Generator(np.random.PCG64(config.seed))
        a, b = config.value_distribution_params
        mu, sigma = config.competitor_bid_params
        m = t_steps * n
        values = rng.beta(a, b, size=m)
        # Beta draws can hit 0.0 or 1.0 at float resolution; keep the open
        # interval contract.
        eps = np.finfo(np.float64).tiny
        self.values = np.clip(values, eps, 1.0 - 1e-12)
        self.comp_bids = rng.lognormal(mean=mu, sigma=sigma, size=m)
        self.conv_draws = rng.random(m)
        self.step_index = np.repeat(np.arange(t_steps), n)
        self.eff_values = np.minimum(
            self.values * config.cvr_profile[self.step_index], 1.0
        )

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def step_slice(self, t: int) -> slice:
        n = self.config.opportunities_per_step
        return slice(t * n, (t + 1) * n)


def run_auction(bid, opp: Opportunity, rng_draw, cvr_profile) -> AuctionOutcome:
    """Resolve one truthful second-price auction.

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


class MarketEnv:
    """Sequential episode interface over a pre-drawn opportunity stream."""

    def __init__(self, config: MarketConfig, constraints: CampaignConstraints):
        config.validate()
        self.config = config
        self.constraints = constraints
        self.stream = OpportunityStream(config)
        self.reset()

    def reset(self):
        self.t = 0
        self.remaining = self.constraints.budget
        self.total_wins = 0
        self.total_spend = 0.0
        self.total_value = 0.0
        self.last_spend = 0.0
        self.last_mean_value = 0.0
        self.states = []
        self.actions = []
        self.rewards = []
        self.spends = []
        self.values = []
        return self.observe()

    @property
    def done(self) -> bool:
        return self.t >= self.config.steps_per_episode

    def observe(self) -> np.ndarray:
        """State features seen before acting at the current step."""
        cfg = self.config
        budget = self.constraints.budget
        auctions_so_far = self.t * cfg.opportunities_per_step
        s = np.empty(STATE_DIM, dtype=np.float64)
        s[0] = self.t / cfg.steps_per_episode
        s[1] = self.remaining / budget
        s[2] = self.last_spend * cfg.steps_per_episode / budget
        s[3] = self.total_wins / auctions_so_far if auctions_so_far else 0.0
        s[4] = self.total_spend / self.total_wins if self.total_wins else 0.0
        s[5] = self.last_mean_value
        s[6] = cfg.cvr_profile[self.t] if self.t < cfg.steps_per_episode else 0.0
        s[7] = self.total_value / budget
        return s

    def step(self, action):
        """Auction the current step's opportunities at a bid scale.

        Returns (next_state, step_reward, step_spend).  Out-of-range
        actions are clamped with a warning rather than rejected.
        """
        if self.done:
            raise MarketInputError("episode already finished")
        if not math.isfinite(action):
            raise MarketInputError(f"action must be finite, got {action}")
        if action < 0.0 or action > self.config.a_max:
            log.warning(
                "action %.6g outside [0, %g]; clamping", action, self.config.a_max
            )
            action = min(max(action, 0.0), self.config.a_max)

        state = self.observe()
        sl = self.stream.step_slice(self.t)
        wins, spend, conversions, value, remaining = _kernels.step_scan(
            float(action),
            self.stream.values[sl],
            self.stream.comp_bids[sl],
            self.stream.eff_values[sl],
            self.stream.conv_draws[sl],
            self.remaining,
        )

        self.states.append(state)
        self.actions.append(float(action))
        self.rewards.append(float(conversions))
        self.spends.append(spend)
        self.values.append(value)

        # Take the kernel's sequentially decremented budget rather than
        # subtracting the step sum: keeps the budget path bit-identical to
        # a whole-stream replay at the same scale.
        self.remaining = remaining
        self.total_wins += wins
        self.total_spend += spend
        self.total_value += value
        self.last_spend = spend
        self.last_mean_value = float(self.stream.values[sl].mean())
        self.t += 1
        return self.observe(), int(conversions), spend

    def trajectory(self, campaign_id="c0", source="policy", meta=None) -> Trajectory:
        if not self.done:
            raise MarketInputError("episode not finished")
        return Trajectory(
            campaign_id=campaign_id,
            seed=self.config.seed,
            constraints=self.constraints,
            states=np.asarray(self.states),
            actions=np.asarray(self.actions),
            rewards=np.asarray(self.rewards),
            spends=np.asarray(self.spends),
            values=np.asarray(self.values),
            source=source,
            meta=meta or {},
        )


def run_episode(policy, config: MarketConfig, constraints: CampaignConstraints,
                campaign_id="c0", source="policy", meta=None) -> Trajectory:
    """Roll one full episode under ``policy``.

    The policy is called as ``policy(states, actions, rewards)`` where
    ``states`` holds observations up to and including the current step and
    the other lists hold completed steps only; it returns the bid scale.
    """
    env = MarketEnv(config, constraints)
    states = [env.observe()]
    actions: list[float] = []
    rewards: list[float] = []
    while not env.done:
        action = float(policy(states, actions, rewards))
        next_state, reward, _ = env.step(action)
        actions.append(action)
        rewards.append(float(reward))
        states.append(next_state)
    return env.trajectory(campaign_id=campaign_id, source=source, meta=meta)


def constant_policy(scale: float):
    """Policy that bids a fixed scale at every step."""
    def policy(states, actions, rewards):
        return scale
    return policy
