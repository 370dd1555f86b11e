"""Campaign episode records and their JSONL serialization.

A trajectory is one campaign-day: per-step state vectors, bid-scale
actions, realized conversion counts, spends, and expected value acquired.
Training labels derived from them (expert levels, return-to-go) are
computed when a method trains and are not part of the record.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

STATE_DIM = 8


@dataclass(frozen=True)
class CampaignConstraints:
    """Budget cap and return-on-spend bound for one campaign."""

    budget: float
    ros_bound: float

    def __post_init__(self):
        if not (np.isfinite(self.budget) and self.budget > 0):
            raise ValueError(f"budget must be positive, got {self.budget}")
        if not (np.isfinite(self.ros_bound) and self.ros_bound > 0):
            raise ValueError(f"ros_bound must be positive, got {self.ros_bound}")


_STEP_ARRAYS = ("actions", "rewards", "spends", "values")


@dataclass
class Trajectory:
    campaign_id: str
    seed: int
    constraints: CampaignConstraints
    states: np.ndarray  # (T, STATE_DIM)
    actions: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,) realized conversion counts
    spends: np.ndarray  # (T,)
    values: np.ndarray  # (T,) expected value acquired per step
    source: str = "policy"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.states.ndim != 2 or self.states.shape[1] != STATE_DIM:
            raise ValueError(f"states must be (T, {STATE_DIM}), got {self.states.shape}")
        t = self.states.shape[0]
        for name in _STEP_ARRAYS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (t,):
                raise ValueError(f"{name} must have shape ({t},), got {arr.shape}")
            setattr(self, name, arr)

    @property
    def num_steps(self) -> int:
        return self.states.shape[0]

    @property
    def total_reward(self) -> float:
        return float(self.rewards.sum())

    @property
    def total_spend(self) -> float:
        return float(self.spends.sum())

    @property
    def total_value(self) -> float:
        return float(self.values.sum())

    def to_json_dict(self) -> dict:
        out = {
            "campaign_id": self.campaign_id,
            "seed": int(self.seed),
            "constraints": {
                "budget": self.constraints.budget,
                "ros_bound": self.constraints.ros_bound,
            },
            "states": self.states.tolist(),
            "actions": self.actions.tolist(),
            "rewards": self.rewards.tolist(),
            "spends": self.spends.tolist(),
            "values": self.values.tolist(),
            "source": self.source,
        }
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "Trajectory":
        return cls(
            campaign_id=d["campaign_id"],
            seed=int(d["seed"]),
            constraints=CampaignConstraints(**d["constraints"]),
            states=d["states"],
            actions=d["actions"],
            rewards=d["rewards"],
            spends=d["spends"],
            values=d["values"],
            source=d.get("source", "policy"),
            meta=d.get("meta", {}),
        )


def atomic_write_text(path, text: str):
    """Write a text file via temp-and-rename so partial writes are never seen."""
    _atomic_write(path, "w", text)


def atomic_write_bytes(path, data: bytes):
    """``atomic_write_text`` for binary files."""
    _atomic_write(path, "wb", data)


def _atomic_write(path, mode: str, content):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as f:
            f.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_jsonl(trajectories, path):
    """Serialize trajectories one JSON object per line (atomic)."""
    lines = [json.dumps(t.to_json_dict(), separators=(",", ":")) for t in trajectories]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


class TrajectoryFileError(ValueError):
    """A dataset line that is not UTF-8 JSON, lacks a key or fails the
    checks of ``Trajectory`` (the message starts ``path:line:``), or a
    dataset with no trajectories at all."""


def load_jsonl(path):
    """The trajectories of a dataset file, at least one.

    Every generated dataset holds one episode per campaign-day, so an
    empty one is an error here rather than in the stage that reads it.
    """
    out = []
    with open(path, "rb") as f:  # json.loads decodes each line, inside the try
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(Trajectory.from_json_dict(json.loads(line)))
            except KeyError as e:
                raise TrajectoryFileError(f"{path}:{lineno}: missing key {e}") from None
            except (ValueError, TypeError) as e:
                raise TrajectoryFileError(f"{path}:{lineno}: {e}") from None
    if not out:
        raise TrajectoryFileError(f"{path} holds no trajectories")
    return out
