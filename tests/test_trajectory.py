import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bagbid.trajectory import (
    STATE_DIM,
    CampaignConstraints,
    Trajectory,
    load_jsonl,
    save_jsonl,
)

# values whose bits a text round trip could lose: both zeros, subnormals,
# both infinities, NaNs of either sign and another payload
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, np.inf, -np.inf, np.nan, -np.nan,
           np.frombuffer(np.uint64(0x7FF4000000000001).tobytes(), np.float64)[0]]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
meta = st.dictionaries(st.text(max_size=5), st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=8), max_size=4)
positive = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def trajectories(draw):
    t = draw(st.integers(1, 6))
    return Trajectory(
        campaign_id=draw(st.text(max_size=8)),
        seed=draw(st.integers(0, 2**62)),
        constraints=CampaignConstraints(budget=draw(positive), ros_bound=draw(positive)),
        states=draw(hnp.arrays(np.float64, (t, STATE_DIM), elements=values)),
        actions=draw(hnp.arrays(np.float64, t, elements=values)),
        rewards=draw(hnp.arrays(np.float64, t, elements=values)),
        spends=draw(hnp.arrays(np.float64, t, elements=values)),
        values=draw(hnp.arrays(np.float64, t, elements=values)),
        source=draw(st.text(max_size=8)),
        meta=draw(meta),
    )


def special_day(t=3) -> Trajectory:
    """A day of ``t`` steps whose every array holds each special value."""
    def filled(*shape):
        return np.resize(np.array(SPECIAL), shape)

    return Trajectory(campaign_id="c0", seed=11, constraints=CampaignConstraints(5.0, 6.0),
                      states=filled(t, STATE_DIM), actions=filled(t), rewards=filled(t),
                      spends=filled(t), values=filled(t), source="expert",
                      meta={"replay_value": 1.5, "nested": {"a": [1, None, "x"]}})


class TestDatasetFile:
    @given(trajs=st.lists(trajectories(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_roundtrip_bitwise(self, tmp_path, assert_same_trajectory, trajs):
        """Every array comes back bitwise (sign of zero and NaN payloads
        included) and every other field equal."""
        path = tmp_path / "d.trajs"
        save_jsonl(trajs, path)
        loaded = load_jsonl(path)
        assert len(loaded) == len(trajs)
        for saved, back in zip(trajs, loaded):
            assert_same_trajectory(saved, back)

    def test_special_values_in_every_array(self, tmp_path, assert_same_trajectory):
        day = special_day(t=len(SPECIAL))
        path = tmp_path / "d.trajs"
        save_jsonl([day, special_day(t=1)], path)
        back, short = load_jsonl(path)
        assert_same_trajectory(back, day)
        assert_same_trajectory(short, special_day(t=1))
        assert np.signbit(back.rewards[1]) and not np.signbit(back.rewards[0])

    def test_same_trajectories_same_bytes(self, tmp_path):
        first, second = tmp_path / "1.trajs", tmp_path / "2.trajs"
        save_jsonl([special_day(), special_day(5)], first)
        save_jsonl([special_day(), special_day(5)], second)
        assert first.read_bytes() == second.read_bytes()
        again = tmp_path / "3.trajs"
        save_jsonl(load_jsonl(first), again)
        assert again.read_bytes() == first.read_bytes()

    def test_file_is_header_line_and_raw_bytes(self, tmp_path, checkpoint_parts):
        """A compact JSON header line padded to a multiple of 8 bytes, then
        each trajectory's states, actions, rewards, spends and values as
        little-endian float64 bytes."""
        days = [special_day(2), special_day(4)]
        path = tmp_path / "d.trajs"
        save_jsonl(days, path)
        header, data = checkpoint_parts.split(path)
        line = json.dumps(header, separators=(",", ":")).encode()
        raw = path.read_bytes()
        end = raw.index(b"\n")
        assert raw[:end].rstrip(b" ") == line and (end + 1) % 8 == 0
        assert (header["format"], header["version"]) == ("bagbid-dataset", 1)
        assert [list(r) for r in header["trajectories"]] == [
            ["campaign_id", "seed", "constraints", "source", "meta", "steps"]] * 2
        assert [r["steps"] for r in header["trajectories"]] == [2, 4]
        assert data == b"".join(getattr(t, name).astype("<f8").tobytes() for t in days
                                for name in ("states", "actions", "rewards", "spends", "values"))

    def test_loaded_arrays_are_writable_views(self, tmp_path):
        path = tmp_path / "d.trajs"
        save_jsonl([special_day(), special_day()], path)
        first, second = load_jsonl(path)
        for t in (first, second):
            for a in (t.states, t.actions, t.rewards, t.spends, t.values):
                assert a.flags.writeable and a.flags.aligned and a.flags.c_contiguous
        first.rewards[...] = 0.0
        assert np.array_equal(second.rewards, special_day().rewards, equal_nan=True)
