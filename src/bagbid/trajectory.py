"""Campaign episode records and their JSONL serialization.

A trajectory is one campaign-day: per-step state vectors, bid-scale
actions, realized conversion counts, spends, and expected value acquired.
Annotation fields (discriminator scores, expert levels, redistributed
rewards, return-to-go labels) are filled in by later pipeline stages and
round-trip through the same JSONL schema.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, fields

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


_ARRAY_FIELDS = (
    "states",
    "actions",
    "rewards",
    "spends",
    "values",
    "sigma_scores",
    "expert_levels",
    "rewards_redistributed",
    "rtg",
)
_OPTIONAL_ARRAYS = ("sigma_scores", "expert_levels", "rewards_redistributed", "rtg")


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
    sigma_scores: np.ndarray | None = None
    expert_levels: np.ndarray | None = None
    rewards_redistributed: np.ndarray | None = None
    rtg: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.states.ndim != 2 or self.states.shape[1] != STATE_DIM:
            raise ValueError(f"states must be (T, {STATE_DIM}), got {self.states.shape}")
        t = self.states.shape[0]
        for name in _ARRAY_FIELDS[1:]:
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=np.float64)
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
        for name in _OPTIONAL_ARRAYS:
            arr = getattr(self, name)
            if arr is not None:
                out[name] = arr.tolist()
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "Trajectory":
        kwargs = {
            "campaign_id": d["campaign_id"],
            "seed": int(d["seed"]),
            "constraints": CampaignConstraints(**d["constraints"]),
            "states": np.asarray(d["states"], dtype=np.float64),
            "actions": np.asarray(d["actions"], dtype=np.float64),
            "rewards": np.asarray(d["rewards"], dtype=np.float64),
            "spends": np.asarray(d["spends"], dtype=np.float64),
            "values": np.asarray(d["values"], dtype=np.float64),
            "source": d.get("source", "policy"),
            "meta": d.get("meta", {}),
        }
        for name in _OPTIONAL_ARRAYS:
            if name in d:
                kwargs[name] = np.asarray(d[name], dtype=np.float64)
        return cls(**kwargs)


def atomic_write_text(path, text: str):
    """Write a file via temp-and-rename so partial writes are never seen."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_jsonl(trajectories, path):
    """Serialize trajectories one JSON object per line (atomic)."""
    lines = [json.dumps(t.to_json_dict(), separators=(",", ":")) for t in trajectories]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_jsonl(path):
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(Trajectory.from_json_dict(json.loads(line)))
    return out


# Sanity guard: keep the dataclass field list and the serialization schema
# in sync if fields are added later.
assert {f.name for f in fields(Trajectory)} >= set(_ARRAY_FIELDS)
