"""Bag-level reward redistribution and return-to-go relabeling.

Both functions take (..., T) arrays with one episode per row and work on
all rows at once.  An episode is partitioned into fixed-length bags of
consecutive steps.  Within each bag the realized rewards are pooled and
reallocated across the bag's transitions in proportion to

    phi(score) = exp(score / beta)

where ``score`` is a discriminator score in [0, 1] (post-sigmoid, keeping
phi bounded in [1, e^(1/beta)]) and ``beta`` sets how peaked the
reallocation is: large beta approaches a uniform split, small beta
concentrates reward on expert-like transitions.  Bag totals are conserved,
so episode return is unchanged; only the within-bag credit moves.

Return-to-go labels are rebuilt from the redistributed rewards by the
forward recurrence R[t+1] = R[t] - r_hat[t] starting at the episode total,
which makes the recurrence hold bitwise at every step.

Each row's result is bitwise that of the row alone: a sum over the
contiguous last axis is the same pairwise sum per row as a 1-D sum, and
``np.subtract.accumulate`` is the left fold of the recurrence.
"""

from __future__ import annotations

import numpy as np


def redistribute_trajectory(rewards, scores, bag_len: int, beta: float) -> np.ndarray:
    """Reallocate each bag's total reward by discriminator score.

    r_hat[t] = phi(score[t]) / sum_bag phi(score) * sum_bag reward, with
    bags the aligned blocks of ``bag_len`` steps of each row; the episode
    length must be a multiple of ``bag_len`` (bags never straddle
    episodes).  With a non-negative bag total every r_hat is non-negative.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if rewards.shape != scores.shape or rewards.ndim == 0:
        raise ValueError(f"rewards and scores must be equal-shape (..., T) arrays, "
                         f"got {rewards.shape} and {scores.shape}")
    t = rewards.shape[-1]
    if t % bag_len != 0:
        raise ValueError(f"episode length {t} not divisible by bag length {bag_len}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    bags = (*rewards.shape[:-1], t // bag_len, bag_len)
    weights = np.exp(scores.reshape(bags) / beta)
    totals = rewards.reshape(bags).sum(axis=-1, keepdims=True)
    return (weights / weights.sum(axis=-1, keepdims=True) * totals).reshape(rewards.shape)


def recompute_rtg(r) -> np.ndarray:
    """Return-to-go labels over (redistributed) rewards.

    R[0] is the episode total; stepping forward subtracts the step's
    reward, so R[t+1] == R[t] - r[t] holds exactly and R[0] matches the
    raw episode return up to redistribution rounding.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim == 0 or r.shape[-1] == 0:
        raise ValueError("need a non-empty reward vector per episode")
    return np.subtract.accumulate(
        np.concatenate([r.sum(axis=-1, keepdims=True), r[..., :-1]], axis=-1), axis=-1)
