"""Campaign episode records and their dataset files.

A trajectory is one campaign-day: per-step state vectors, bid-scale
actions, realized conversion counts, spends, and expected value acquired.
Training labels derived from them (expert levels, return-to-go) are
computed when a method trains and are not part of the record.

A dataset file (format ``bagbid-dataset``, version 1) is one compact JSON
header line, then ``\n``, then raw little-endian float64 data.  The
header holds ``format``, ``version`` and ``trajectories``: one record per
trajectory, in order, with its ``campaign_id``, ``seed``, ``constraints``
(``budget``, ``ros_bound``), ``source``, ``meta`` and ``steps`` T.  The
data hold each trajectory in turn: its ``states`` (T, STATE_DIM) in C
order, then its ``actions``, ``rewards``, ``spends`` and ``values``, T
values each.  Spaces before the ``\n`` pad the header line to a multiple
of 8 bytes, so every array starts aligned.  The bytes round-trip every
value bitwise (signed zeros, subnormals, infinities and NaN included),
and saving the same trajectories twice writes the same file.
``load_jsonl`` reads the file once and gives each trajectory writable
views into that one buffer.

Every dataset it cannot read raises ``TrajectoryFileError`` naming its
path: an empty file or one with no trajectories, a JSONL dataset written
before this layout, a header line that is missing, cut, not UTF-8 JSON or
malformed, another format or version, a record without one of its keys
or with a ``steps`` that is not a positive integer, data shorter or longer
than the records' ``steps`` need, and a record the checks of
``Trajectory`` refuse.

Checkpoints (``nncore``) share the layout: ``BinaryFormat`` writes the
header line and data of both, and splits the header off, checks its
format and version and the data's length when either is read.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable
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


_FLOAT64 = np.dtype("<f8")


@dataclass(frozen=True)
class BinaryFormat:
    """A kind of file that is one compact JSON header line, ``\n``, then
    little-endian float64 arrays in C order, one after another.

    The header holds ``format`` (``name``), ``version`` and the kind's own
    fields, which give the arrays' sizes.  Reading checks the header line
    and the data's length; every file it cannot read raises ``error``
    naming its path.
    """

    name: str
    version: int
    noun: str  # the kind of file, in error messages
    data: str  # what the data hold, in error messages
    sized_by: str  # the header fields that size the data, in error messages
    error: type
    # the message (after the path) for a header of a layout no longer
    # read, or None
    retired: Callable[[dict], str | None] = lambda header: None
    # pad the header line so that the data start at a multiple of 8 bytes
    align: bool = False

    def write(self, path, fields: dict, arrays):
        """Write the header ``fields`` and ``arrays`` as one file, atomically."""
        line = json.dumps({"format": self.name, "version": self.version, **fields},
                          separators=(",", ":")).encode("ascii")
        if self.align:
            line += b" " * (-(len(line) + 1) % _FLOAT64.itemsize)
        parts = [line, b"\n"]
        parts += [a.astype(_FLOAT64, copy=False).tobytes() for a in arrays]
        atomic_write_bytes(path, b"".join(parts))

    def split(self, raw, path) -> tuple[dict, int]:
        """The header of file contents ``raw`` and the offset of its data."""
        end = raw.find(b"\n")
        line = raw if end < 0 else raw[:end]
        try:
            header = json.loads(line.decode("utf-8"))
        except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
            raise self.error(f"{path}: the header line is not UTF-8 JSON ({e})") from None
        retired = self.retired(header) if isinstance(header, dict) else None
        if retired:
            raise self.error(f"{path} {retired}")
        if not isinstance(header, dict) or header.get("format") != self.name:
            raise self.error(f"{path} is not a {self.name} file")
        version = header.get("version")
        if version != self.version:
            raise self.error(f"{path}: unsupported {self.noun} version {version!r}")
        if end < 0:
            raise self.error(f"{path} ends inside its header line")
        return header, end + 1

    def views(self, raw, offset: int, counts, path) -> list:
        """One 1-D float64 view into ``raw`` per entry of ``counts``, that
        many values each, laid end to end from ``offset``; the data must
        hold exactly those values.  The views are writable when ``raw`` is."""
        need = _FLOAT64.itemsize * sum(counts)
        if len(raw) - offset != need:
            raise self.error(f"{path} holds {len(raw) - offset} bytes of {self.data} data, "
                             f"but the {self.sized_by} in its header need {need}")
        out = []
        for count in counts:
            out.append(np.frombuffer(raw, _FLOAT64, count, offset))
            offset += count * _FLOAT64.itemsize
        return out


class TrajectoryFileError(ValueError):
    """A dataset file this version cannot read (see the module docstring)."""


def _retired_dataset(header: dict) -> str | None:
    # every line of a JSONL dataset was one trajectory's record
    if "format" not in header and "campaign_id" in header:
        return ("is a JSONL dataset, which this version no longer reads; "
                "run gen-data and gen-expert again")
    return None


_DATASET = BinaryFormat(name="bagbid-dataset", version=1, noun="dataset", data="trajectory",
                        sized_by="steps", error=TrajectoryFileError,
                        retired=_retired_dataset, align=True)
_RECORD_KEYS = ("campaign_id", "seed", "constraints", "source", "meta", "steps")
# a step's values in the data: its state, action, reward, spend and value
_VALUES_PER_STEP = STATE_DIM + len(_STEP_ARRAYS)


# perfbench/spans.py wraps ``save_jsonl`` and ``load_jsonl`` by name, so
# they keep their names although datasets are no longer JSONL
def save_jsonl(trajectories, path):
    """Write ``trajectories`` as one dataset file, atomically."""
    records = [{
        "campaign_id": t.campaign_id,
        "seed": int(t.seed),
        "constraints": {"budget": t.constraints.budget, "ros_bound": t.constraints.ros_bound},
        "source": t.source,
        "meta": t.meta,
        "steps": t.num_steps,
    } for t in trajectories]
    arrays = [getattr(t, name) for t in trajectories for name in ("states", *_STEP_ARRAYS)]
    _DATASET.write(path, {"trajectories": records}, arrays)


def dataset_records(raw, path) -> tuple[list, int]:
    """The trajectory records in the header of dataset contents ``raw``,
    each with every key and a positive integer ``steps``, and the offset
    of the data."""
    header, offset = _DATASET.split(raw, path)
    records = header.get("trajectories")
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        raise TrajectoryFileError(f"{path}: the header's trajectories are malformed")
    for i, record in enumerate(records):
        for key in _RECORD_KEYS:
            if key not in record:
                raise TrajectoryFileError(f"{path}: trajectory {i}: missing key {key!r}")
        steps = record["steps"]
        if type(steps) is not int or steps < 1:
            raise TrajectoryFileError(
                f"{path}: trajectory {i}: steps must be a positive integer, got {steps!r}")
    return records, offset


def load_jsonl(path):
    """The trajectories of a dataset file, at least one.

    Every generated dataset holds one episode per campaign-day, so an
    empty one is an error here rather than in the stage that reads it.
    """
    with open(path, "rb") as f:  # into a writable buffer, which the arrays view
        raw = bytearray(os.fstat(f.fileno()).st_size)
        size = f.readinto(raw)
    del raw[size:]
    records, offset = dataset_records(raw, path) if raw else ([], 0)
    if not records:
        raise TrajectoryFileError(f"{path} holds no trajectories")
    data = _DATASET.views(raw, offset, [_VALUES_PER_STEP * r["steps"] for r in records], path)
    out = []
    for i, (record, values) in enumerate(zip(records, data)):
        t = record["steps"]
        states, per_step = values[:STATE_DIM * t], values[STATE_DIM * t:]
        try:
            out.append(Trajectory(
                campaign_id=record["campaign_id"],
                seed=int(record["seed"]),
                constraints=CampaignConstraints(**record["constraints"]),
                states=states.reshape(t, STATE_DIM),
                **dict(zip(_STEP_ARRAYS, per_step.reshape(len(_STEP_ARRAYS), t))),
                source=record["source"],
                meta=record["meta"],
            ))
        except (ValueError, TypeError) as e:
            raise TrajectoryFileError(f"{path}: trajectory {i}: {e}") from None
    return out
