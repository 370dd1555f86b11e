"""Second-price auction market with budget forfeiture and rare conversions.

Each episode is a day of ``steps_per_episode`` steps; every step auctions a
fresh batch of impression opportunities against a fixed competitor-bid
distribution.  The agent's action is a bid-scale multiplier: opportunity j
receives bid ``action * value_j``.  Winners pay the highest competing bid;
an auction whose payment would exceed the remaining budget is forfeited, so
episode spend never exceeds the budget.  Won impressions convert with
probability ``value_j * cvr_profile[t]`` (clamped to 1), drawn from
pre-seeded uniforms so episodes are fully reproducible.

``MarketEnv`` steps a batch of such episodes in lockstep, one row per
campaign-day.  There are two rollouts, each of all of a caller's days in
one call:

- ``run_episodes`` asks a policy for every step's bids after it has
  seen the state; evaluation rolls its learned policies this way.
- ``replay_episodes`` takes an open-loop schedule of every day's bids,
  for policies that do not read the market state: the offline loggers
  and the hindsight expert.  ``MarketEnv.replay`` runs each day in one
  budgeted scan and gives, bit for bit, what stepping would.

Both take the days' ``OpportunityStream``s, which carry their configs, so
a caller that also solves a day's hindsight optimum builds its stream
once.  Every row is scanned on its own, in stream order, so a day's
outcome does not depend on the other days in its batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from bagbid import _kernels
from bagbid.trajectory import STATE_DIM, Trajectory

log = logging.getLogger(__name__)


class MarketInputError(ValueError):
    """Invalid input to a market operation."""


VALUE_DISTRIBUTION_PARAMS = (1.3, 130.0)  # Beta shape (a, b) of predicted values
COMPETITOR_BID_PARAMS = (-4.1, 1.0)  # mean, sigma of the competing bid's log
CVR_AMPLITUDE = 0.4  # of the intraday CVR sinusoid
CVR_NOISE = 0.05  # standard deviation of the CVR profile's per-step noise
A_MAX = 10.0  # the default bid-scale bound


def sinusoid_cvr_profile(steps=48, phase=0.0, seed=0):
    """Intraday conversion-rate multiplier: sinusoid plus noise in (0, 2]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    t = np.arange(steps, dtype=np.float64)
    profile = 1.0 + CVR_AMPLITUDE * np.sin(2.0 * np.pi * t / steps + phase)
    profile = profile + CVR_NOISE * rng.standard_normal(steps)
    return np.clip(profile, 0.05, 2.0)


@dataclass
class MarketConfig:
    """One campaign-day's market; the value and competing-bid distributions
    are module constants.  ``pipeline.MarketSettings`` takes its shape from here."""

    steps_per_episode: int = 48
    opportunities_per_step: int = 100
    cvr_profile: np.ndarray = field(default_factory=sinusoid_cvr_profile)
    seed: int = 0
    a_max: float = A_MAX

    def __post_init__(self):
        self.cvr_profile = np.asarray(self.cvr_profile, dtype=np.float64)
        self.validate()

    def validate(self):
        if self.steps_per_episode <= 0 or self.opportunities_per_step <= 0:
            raise MarketInputError("episode and step sizes must be positive")
        if self.cvr_profile.shape != (self.steps_per_episode,):
            raise MarketInputError(
                f"cvr_profile must have length {self.steps_per_episode}"
            )
        if not np.all((self.cvr_profile > 0) & (self.cvr_profile <= 2.0)):  # NaN too
            raise MarketInputError("cvr_profile values must lie in (0, 2]")
        if self.a_max <= 0:
            raise MarketInputError("a_max must be positive")


class OpportunityStream:
    """The full day's opportunities for one (config, seed), pre-drawn.

    Holds flat arrays over all T*N opportunities in auction order:
    predicted values, competitor bids, per-opportunity conversion uniforms,
    and effective values (value times the step's CVR multiplier, clamped to
    1), which serve both as conversion probabilities and as the expected
    value accounted to a win; plus the mean predicted value of each step,
    a state feature (the row mean sums in the same order as the mean of
    the step's slice, so it is the same float).  The arrays are
    read-only: the pipeline's two dataset stages share a day's stream.
    """

    def __init__(self, config: MarketConfig):
        self.config = config
        t_steps = config.steps_per_episode
        n = config.opportunities_per_step
        rng = np.random.Generator(np.random.PCG64(config.seed))
        m = t_steps * n
        values = rng.beta(*VALUE_DISTRIBUTION_PARAMS, size=m)
        # Beta draws can hit 0.0 or 1.0 at float resolution; keep the open
        # interval contract.
        eps = np.finfo(np.float64).tiny
        self.values = np.clip(values, eps, 1.0 - 1e-12)
        self.comp_bids = rng.lognormal(*COMPETITOR_BID_PARAMS, size=m)
        self.conv_draws = rng.random(m)
        self.eff_values = np.minimum(self.values * np.repeat(config.cvr_profile, n), 1.0)
        self.step_mean_values = self.values.reshape(t_steps, n).mean(axis=1)
        for a in (self.values, self.comp_bids, self.conv_draws, self.eff_values,
                  self.step_mean_values):
            a.flags.writeable = False

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def step_slice(self, t: int) -> slice:
        n = self.config.opportunities_per_step
        return slice(t * n, (t + 1) * n)


class MarketEnv:
    """A batch of episodes stepped in lockstep, one row per (stream,
    constraints) campaign-day; the rows share the episode length T.

    ``states`` (n, T+1, STATE_DIM) holds the features observed before each
    step and after the last one; ``actions`` (as applied, after clamping),
    ``rewards`` (conversions), ``spends`` and ``values`` (expected value
    won) are (n, T).  ``t`` is the next step to auction.

    The features before acting at step t, and after the last step at
    t = T; N is the opportunities per step and wins count accepted auctions:

    i  meaning                     formula                     at step 0   after T
    0  time elapsed                t / T                       0.0         1.0
    1  budget left                 remaining / budget          1.0         the day's
    2  last step's spend pace      spends[t-1] * T / budget    0.0         step T-1's
    3  win rate so far             wins / (t * N)              0.0         the day's
    4  mean price of a win         total spend / max(wins, 1)  0.0         the day's
    5  last step's mean value      mean of step t-1's values   0.0         step T-1's
    6  next step's CVR multiplier  cvr_profile[t]              profile[0]  0.0
    7  value won per budget        total value / budget        0.0         the day's
    """

    def __init__(self, streams, constraints):
        if len(streams) != len(constraints):
            raise MarketInputError(f"{len(streams)} streams for {len(constraints)} constraints")
        configs = [s.config for s in streams]
        lengths = {c.steps_per_episode for c in configs}
        if len(lengths) != 1:
            raise MarketInputError(f"lockstep episodes need one episode length, got {lengths}")
        (t_steps,) = lengths
        n = len(streams)
        for c in configs:
            c.validate()
        self.streams = list(streams)
        self.a_max = np.array([[c.a_max] for c in configs], dtype=np.float64)
        self.budgets = np.array([k.budget for k in constraints], dtype=np.float64)
        self.opportunities = np.array([[c.opportunities_per_step] for c in configs], dtype=float)
        # at each step 0..T, the step before's spend and mean value and the
        # next step's CVR, 0.0 where there is no such step
        self.last_spends, self.last_means, self.next_cvrs = np.zeros((3, n, t_steps + 1))
        self.last_means[:, 1:] = [s.step_mean_values for s in self.streams]
        self.next_cvrs[:, :-1] = [c.cvr_profile for c in configs]
        self.states = np.empty((n, t_steps + 1, STATE_DIM))
        self.actions, self.rewards, self.values = np.empty((3, n, t_steps))
        self.spends = self.last_spends[:, 1:]
        self.remaining = self.budgets.copy()
        # wins are counts, exact in float64
        self.wins, self.total_spend, self.total_value = np.zeros((3, n))
        self.t = 0
        self._observe(0, self.remaining[:, None], self.wins[:, None], self.total_spend[:, None],
                      self.total_value[:, None])

    def _observe(self, first, remaining, wins, total_spend, total_value):
        """Fill the states before acting at the k steps from step ``first``
        from the counters (n, k) after the steps before each: remaining
        budget, wins, total spend and total value."""
        t_steps = self.actions.shape[1]
        steps = slice(first, first + remaining.shape[1])
        t = np.arange(steps.start, steps.stop, dtype=np.float64)
        s = self.states[:, steps]
        budgets = self.budgets[:, None]
        s[..., 0] = t / t_steps
        s[..., 1] = remaining / budgets
        s[..., 2] = self.last_spends[:, steps] * t_steps / budgets
        s[..., 3] = wins / (np.maximum(t, 1) * self.opportunities)  # 0 wins at t = 0
        s[..., 4] = total_spend / np.maximum(wins, 1.0)  # no wins, no spend
        s[..., 5] = self.last_means[:, steps]
        s[..., 6] = self.next_cvrs[:, steps]
        s[..., 7] = total_value / budgets

    def _applied(self, schedule):
        """The (n, k) bids ``schedule`` clamped to ``[0, a_max]``, one warning
        per clamped bid in stepping order; a wrong row count or a non-finite
        bid (the first in stepping order) raises before any warning."""
        if len(schedule) != len(self.streams):
            raise MarketInputError(f"{len(schedule)} actions for {len(self.streams)} episodes")
        out = ~((schedule >= 0.0) & (schedule <= self.a_max))  # NaN too
        if not out.any():
            return schedule
        finite = np.isfinite(schedule.T)
        if not finite.all():
            raise MarketInputError(f"action must be finite, got {float(schedule.T[~finite][0])}")
        for t, i in zip(*np.nonzero(out.T)):
            log.warning("action %.6g outside [0, %g]; clamping", schedule[i, t], self.a_max[i, 0])
        return np.where(out, np.clip(schedule, 0.0, self.a_max), schedule)

    def step(self, actions):
        """Auction step t's opportunities of every row at its bid scale.

        Out-of-range actions are clamped to ``[0, a_max]`` with one warning
        each rather than rejected.  Each row is scanned on its own, in
        stream order, so its outcome does not depend on the other rows.
        """
        t = self.t
        if t == self.actions.shape[1]:
            raise MarketInputError("episode already finished")
        self.actions[:, t] = applied = self._applied(np.asarray(actions, float)[:, None])[:, 0]
        for i, (stream, action) in enumerate(zip(self.streams, applied.tolist())):
            sl = stream.step_slice(t)
            # the kernel decrements the budget win by win, which keeps the
            # budget path bit-identical to a whole-stream replay at one scale
            wins, spend, conversions, value, self.remaining[i] = _kernels.step_scan(
                action, stream.values[sl], stream.comp_bids[sl], stream.eff_values[sl],
                stream.conv_draws[sl], float(self.remaining[i]),
            )
            self.wins[i] += wins
            self.rewards[i, t], self.spends[i, t], self.values[i, t] = conversions, spend, value
        self.total_spend += self.spends[:, t]
        self.total_value += self.values[:, t]
        self.t += 1
        self._observe(self.t, self.remaining[:, None], self.wins[:, None],
                      self.total_spend[:, None], self.total_value[:, None])

    def replay(self, schedule):
        """Run every row's whole day at the bid scales of ``schedule``.

        ``schedule`` is (n, T): row i's bid scale at each step from step 0,
        checked and clamped as ``step`` checks and clamps an action.  Each
        row is one budgeted scan of its day at one scale per opportunity
        (``_kernels.accepted_wins``); the per-step records and the counters
        after each step are left folds along the step axis, so every array
        is bitwise what T calls of ``step`` with the schedule's columns
        give.  For policies that do not read the market state.
        """
        n, t_steps = self.actions.shape
        if self.t:
            raise MarketInputError(f"replay starts at step 0, not at step {self.t}")
        schedule = np.asarray(schedule, dtype=np.float64)
        if schedule.ndim != 2 or schedule.shape[1] != t_steps:
            raise MarketInputError(
                f"schedule of shape {schedule.shape} for episodes of {t_steps} steps")
        self.actions[...] = self._applied(schedule)

        step_wins = np.empty((n, t_steps))
        remaining = np.empty((n, t_steps))
        for i, stream in enumerate(self.streams):
            per_step = stream.config.opportunities_per_step
            won, accepted = _kernels.accepted_wins(
                np.repeat(self.actions[i], per_step), stream.values, stream.comp_bids,
                self.budgets[i])
            paid = won[accepted]
            # the day zero-padded to (T, N): a fold that adds or subtracts
            # +0.0 for each opportunity not paid for gives the same float
            pays = np.zeros(stream.size)
            pays[paid] = stream.comp_bids[paid]
            gains = np.zeros(stream.size)
            gains[paid] = stream.eff_values[paid]
            converted = np.zeros(stream.size, dtype=bool)
            converted[paid] = stream.conv_draws[paid] < stream.eff_values[paid]
            self.spends[i] = np.add.accumulate(pays.reshape(t_steps, per_step), axis=1)[:, -1]
            self.values[i] = np.add.accumulate(gains.reshape(t_steps, per_step), axis=1)[:, -1]
            self.rewards[i] = np.count_nonzero(converted.reshape(t_steps, per_step), axis=1)
            step_wins[i] = np.bincount(paid // per_step, minlength=t_steps)
            remaining[i] = np.subtract.accumulate(
                np.concatenate(([self.budgets[i]], pays)))[per_step::per_step]

        wins, spend, value = np.add.accumulate([step_wins, self.spends, self.values], axis=2)
        self._observe(1, remaining, wins, spend, value)
        self.remaining, self.wins = remaining[:, -1], wins[:, -1]
        self.total_spend, self.total_value = spend[:, -1], value[:, -1]
        self.t = t_steps


def _episodes(streams, constraints, campaign_ids) -> MarketEnv:
    if len(campaign_ids) != len(streams):
        raise MarketInputError(f"{len(campaign_ids)} campaign ids for {len(streams)} episodes")
    return MarketEnv(streams, constraints)


def _trajectories(env, constraints, campaign_ids, source) -> list[Trajectory]:
    """One trajectory per row of a finished batch."""
    t_steps = env.actions.shape[1]
    return [
        Trajectory(campaign_id=cid, seed=stream.config.seed, constraints=k,
                   states=env.states[i, :t_steps], actions=env.actions[i],
                   rewards=env.rewards[i], spends=env.spends[i], values=env.values[i],
                   source=source)
        for i, (stream, k, cid) in enumerate(zip(env.streams, constraints, campaign_ids))
    ]


def run_episodes(policy, streams, constraints, campaign_ids,
                 source="policy") -> list[Trajectory]:
    """Roll one episode per (stream, constraints, campaign id) in lockstep.

    Every step calls ``policy(states, actions, rewards)`` once for all n
    episodes with the batch ``MarketEnv``'s history: ``states``
    (n, t+1, STATE_DIM) up to and including the current step, ``actions``
    (as applied after clamping to ``[0, a_max]``) and ``rewards`` (n, t)
    of the completed steps; it returns n bid scales.  Each trajectory is
    one row of the batch.
    """
    env = _episodes(streams, constraints, campaign_ids)
    for t in range(env.actions.shape[1]):
        env.step(policy(env.states[:, :t + 1], env.actions[:, :t], env.rewards[:, :t]))
    return _trajectories(env, constraints, campaign_ids, source)


def replay_episodes(schedule, streams, constraints, campaign_ids,
                    source="policy") -> list[Trajectory]:
    """Roll one open-loop episode per (stream, constraints, campaign id):
    row i of the (n, T) ``schedule`` holds its bid scales from step 0.

    The trajectories equal, field for field and bitwise, those of
    ``run_episodes`` with a policy that returns the schedule's column t at
    step t; ``MarketEnv.replay`` runs each day in one budgeted scan
    instead of T steps.
    """
    env = _episodes(streams, constraints, campaign_ids)
    env.replay(schedule)
    return _trajectories(env, constraints, campaign_ids, source)
