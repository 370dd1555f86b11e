"""Hindsight-optimal expert bidding over constant bid scales.

With full knowledge of a day's opportunity stream (and all other bidders
fixed), the value-maximizing bid under budget and return-on-spend caps
takes the dual form (He et al., KDD 2021)

    bid_j = (1 + alpha_c * C) / (alpha_b + alpha_c) * value_j

where ``alpha_b`` prices the budget constraint and ``alpha_c`` the RoS
constraint.  Whatever the pair, it only sets one constant scale ``s`` on
every value, so the solver searches the scale directly.  Without budget
pressure opportunity j is won exactly when ``s * value_j > comp_bid_j``,
i.e. when ``s`` exceeds its ratio ``comp_bid_j / value_j``; every scale
therefore wins a prefix of the opportunities sorted by ratio, and the
prefixes are the only outcomes to compare.  ``solve_multipliers`` scans
them once and replays the chosen scale, so its r* is the best constant
scale among those that win without forfeiting: a scale whose won prefix
overruns the budget forfeits the wins it cannot pay for, and such scales
are never chosen, although on some days one of them is worth slightly
more.  ``generate_expert_trajectories`` replays all the days in one
``replay_episodes`` batch, each day's solved scale repeated over its
steps: the expert does not read the market state, so each day is one
budgeted scan.  A day's ``OpportunityStream`` serves both its solve and
its rollout, and a caller that already solved a day (the pipeline's
noisy-expert logger solves the same days on the same streams) hands the
solution in instead of solving it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bagbid import _kernels
from bagbid.market import OpportunityStream, replay_episodes
from bagbid.trajectory import CampaignConstraints, Trajectory

ROS_SLACK = 1e-6


@dataclass(frozen=True)
class ReplaySummary:
    total_value: float
    total_spend: float
    ros: float
    wins: int
    forfeits: int


@dataclass(frozen=True)
class MultiplierSolution:
    scale: float
    feasible: bool
    summary: ReplaySummary


def _replay_scale(stream: OpportunityStream, scale: float, budget: float) -> ReplaySummary:
    spend, value, wins, forfeits = _kernels.replay_scan(
        float(scale), stream.values, stream.comp_bids, stream.eff_values, float(budget)
    )
    ros = spend / value if value > 0 else 0.0
    return ReplaySummary(
        total_value=value, total_spend=spend, ros=ros, wins=int(wins),
        forfeits=int(forfeits),
    )


def _ascending(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable ascending order of ``ratios`` and the sorted ratios.

    The order inside a group of equal ratios changes the float sums of the
    prefix spend and value, so ties keep arrival order (a stable sort).
    Without ties the ascending order is unique, and numpy's default sort,
    several times faster than the stable one on a default day, finds the
    same permutation; the stable sort runs only when two sorted neighbours
    are equal.
    """
    order = np.argsort(ratios)
    ranked = ratios[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(ratios, kind="stable")
        ranked = ratios[order]
    return order, ranked


def solve_multipliers(stream: OpportunityStream,
                      constraints: CampaignConstraints) -> MultiplierSolution:
    """Best constant bid scale among those that win without forfeiting.

    Sorting opportunities by ``comp_bid / value`` makes the won set of any
    scale a prefix of that order that never splits a group of equal ratios,
    so those prefixes are the only candidates (one vectorised pass; the
    sort is stable only when ratios tie, see ``_ascending``).  Among
    prefixes whose full spend fits the budget, whose RoS is within bound
    and whose scale interval starts below the stream config's ``a_max`` (so
    the solution is realizable as a constant-action episode), the
    highest-value one is bid at the midpoint of its interval, capped at
    ``a_max``.  A budgeted replay confirms it wins that prefix with no
    forfeits; should float rounding disagree, the next-best prefix is
    tried.  Scales that forfeit are never chosen: their won set depends on
    arrival order, not price.  A zero-spend prefix is always a candidate,
    so ``feasible`` is False only if even that fails to replay cleanly.
    """
    if stream.size == 0:
        raise ValueError("opportunity stream is empty")
    a_max = stream.config.a_max
    bound = constraints.ros_bound + ROS_SLACK
    ratios = stream.comp_bids / stream.values  # values are positive
    order, ranked = _ascending(ratios)
    spend = np.cumsum(np.concatenate(([0.0], stream.comp_bids[order])))
    value = np.cumsum(np.concatenate(([0.0], stream.eff_values[order])))
    # Prefix k is won by scales in (edges[k], edges[k+1]]; it is reachable
    # only if that interval is non-empty, i.e. not inside a tie group.
    edges = np.concatenate(([0.0], ranked, [np.inf]))
    k = np.flatnonzero(edges[1:] > edges[:-1])
    ros = np.divide(spend[k], value[k], out=np.zeros(k.size), where=value[k] > 0)
    k = k[(spend[k] <= constraints.budget) & (ros <= bound) & (edges[k] < a_max)]
    for i in k[np.argsort(-value[k], kind="stable")]:
        scale = float(min(0.5 * (edges[i] + edges[i + 1]), a_max))
        summary = _replay_scale(stream, scale, constraints.budget)
        if summary.forfeits == 0 and summary.ros <= bound:
            return MultiplierSolution(scale=scale, feasible=True, summary=summary)
    return MultiplierSolution(scale=scale, feasible=False, summary=summary)


def generate_expert_trajectories(streams, constraints, campaign_ids,
                                 solutions=None) -> list[Trajectory]:
    """Hindsight expert episodes, one per (stream, constraints, campaign id)
    campaign-day.

    Replays every day on its stream at exactly its solved scale at every
    step, in one ``replay_episodes`` batch, so each episode reproduces its
    replay's won set.  ``solutions`` holds each day's
    ``solve_multipliers`` result on that stream and those constraints
    when the caller already has them; without it each day is solved here.
    """
    if solutions is None:
        solutions = [solve_multipliers(s, k) for s, k in zip(streams, constraints, strict=True)]
    schedule = [np.full(s.config.steps_per_episode, sol.scale)
                for s, sol in zip(streams, solutions, strict=True)]
    trajectories = replay_episodes(schedule, streams, constraints, campaign_ids,
                                   source="expert")
    for traj, sol in zip(trajectories, solutions):
        traj.meta = {
            "expert_scale": sol.scale,
            "feasible": bool(sol.feasible),
            "replay_value": float(sol.summary.total_value),
            "replay_spend": float(sol.summary.total_spend),
        }
    return trajectories
