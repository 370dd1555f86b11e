"""Forfeiture semantics of the auction-scan kernels, checked against
hand-worked cases, against each other and, bit for bit, against a
sequential scan written out here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagbid import KERNEL_BACKEND, _kernels
from bagbid.market import MarketConfig, OpportunityStream


def sequential_replay(scale, values, comp_bids, eff_values, budget):
    """``replay_scan`` one opportunity at a time: a win whose payment
    exceeds the remaining budget is forfeited, and the scan goes on."""
    remaining = float(budget)
    spend = 0.0
    value = 0.0
    wins = 0
    forfeits = 0
    for v, c, ev in zip(np.asarray(values, dtype=np.float64).tolist(),
                        np.asarray(comp_bids, dtype=np.float64).tolist(),
                        np.asarray(eff_values, dtype=np.float64).tolist()):
        if float(scale) * v > c:
            if c <= remaining:
                remaining -= c
                spend += c
                value += ev
                wins += 1
            else:
                forfeits += 1
    return spend, value, wins, forfeits


def assert_replay_bitwise(scale, values, comp_bids, eff_values, budget):
    """Every field of ``replay_scan`` equals the sequential scan's: the
    same type and the same float, compared through ``repr``."""
    got = _kernels.replay_scan(scale, values, comp_bids, eff_values, budget)
    want = sequential_replay(scale, values, comp_bids, eff_values, budget)
    assert [type(x) for x in got] == [type(x) for x in want]
    assert [repr(x) for x in got] == [repr(x) for x in want], (got, want)
    return got


def _stream(seed, n):
    rng = np.random.Generator(np.random.PCG64(seed))
    values = rng.beta(1.6, 90.0, n) + 1e-6
    return values, rng.lognormal(-3.1, 0.9, n), rng.random(n)


class TestSemantics:
    def test_forfeit_skips_unaffordable(self):
        values = np.array([0.5, 0.5, 0.5])
        comps = np.array([0.9, 0.5, 0.05])
        eff = values.copy()
        spend, value, wins, forfeits = assert_replay_bitwise(10.0, values, comps, eff, 1.0)
        # wins 0.9, forfeits 0.5 (only 0.1 left), wins 0.05
        assert wins == 2 and forfeits == 1
        assert spend == pytest.approx(0.95)

    def test_tie_loses(self):
        values = np.array([0.5, 0.25, 0.375])
        comps = np.array([1.0, 0.5, 0.75])
        spend, value, wins, forfeits = assert_replay_bitwise(2.0, values, comps, values, 10.0)
        assert (spend, wins, forfeits) == (0.0, 0, 0)

    def test_exact_budget_payment_allowed(self):
        """A payment equal to the whole budget, or to what is left of it,
        is paid; the next win is forfeited."""
        values = np.array([0.5])
        comps = np.array([1.0])
        spend, *_ = assert_replay_bitwise(3.0, values, comps, values, 1.0)
        assert spend == 1.0
        values = np.full(4, 0.5)
        comps = np.array([0.5, 0.25, 0.25, 0.125])
        spend, _, wins, forfeits = assert_replay_bitwise(10.0, values, comps, values, 1.0)
        assert (spend, wins, forfeits) == (1.0, 3, 1)

    @pytest.mark.parametrize("budget", [1.5, 0.3, 50.0])
    def test_chained_steps_equal_whole_replay(self, budget):
        """Stepping a budget through per-step scans reproduces the single
        whole-stream scan: the same wins, and the same spend and remaining
        budget up to rounding (per-step sums regroup the running sum)."""
        cfg = MarketConfig(steps_per_episode=12, opportunities_per_step=30, seed=3,
                           cvr_profile=np.ones(12))
        stream = OpportunityStream(cfg)
        scale = 2.0
        whole_spend, _, whole_wins, _ = assert_replay_bitwise(
            scale, stream.values, stream.comp_bids, stream.eff_values, budget
        )
        remaining = budget
        spend = 0.0
        wins = 0
        for t in range(cfg.steps_per_episode):
            sl = stream.step_slice(t)
            w, s, _, _, remaining = _kernels.step_scan(
                scale, stream.values[sl], stream.comp_bids[sl],
                stream.eff_values[sl], stream.conv_draws[sl], remaining,
            )
            wins += w
            spend += s
        assert wins == whole_wins
        assert abs(spend - whole_spend) < 1e-12
        assert abs(remaining - (budget - whole_spend)) < 1e-12


class TestReplayMatchesSequentialScan:
    def test_no_forfeits(self):
        values, comps, eff = _stream(0, 4800)
        spend, _, wins, forfeits = assert_replay_bitwise(2.0, values, comps, eff, 1e9)
        assert wins > 0 and forfeits == 0 and spend > 0.0

    @pytest.mark.parametrize("budget", [0.0, 1e-12])
    def test_zero_and_tiny_budget_forfeit_every_win(self, budget):
        values, comps, eff = _stream(1, 500)
        spend, _, wins, forfeits = assert_replay_bitwise(4.0, values, comps, eff, budget)
        assert (spend, wins) == (0.0, 0) and forfeits > 0

    @pytest.mark.parametrize("share", [0.05, 0.3, 0.7])
    def test_budget_exhausted_mid_stream(self, share):
        values, comps, eff = _stream(2, 4800)
        budget = share * comps[5.0 * values > comps].sum()
        spend, _, wins, forfeits = assert_replay_bitwise(5.0, values, comps, eff, budget)
        assert wins > 0 and forfeits > 0 and spend <= budget

    def test_scale_zero_wins_nothing(self):
        values, comps, eff = _stream(3, 300)
        assert assert_replay_bitwise(0.0, values, comps, eff, 10.0) == (0.0, 0.0, 0, 0)

    def test_empty_stream(self):
        empty = np.empty(0)
        assert assert_replay_bitwise(1.0, empty, empty, empty, 1.0) == (0.0, 0.0, 0, 0)

    def test_seeded_forfeit_heavy_streams(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for seed in range(300):
            values, comps, eff = _stream(seed, int(rng.integers(0, 400)))
            scale = float(rng.choice([0.5, 2.0, 8.0]))
            budget = float(rng.uniform(0.0, 0.5) * comps.sum())
            assert_replay_bitwise(scale, values, comps, eff, budget)

    # dyadic grids make ties and payments that land exactly on the budget
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.sampled_from([0.125, 0.25, 0.5, 1.0]),
                                st.sampled_from([0.0625, 0.125, 0.25, 0.5, 1.0]),
                                st.floats(0.0, 1.0)), max_size=60),
        scale=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
        budget=st.one_of(st.sampled_from([0.0, 0.25, 0.375, 1.0, 2.5]),
                         st.floats(0.0, 8.0)),
    )
    def test_random_dyadic_streams(self, rows, scale, budget):
        values, comps, eff = np.array(rows, dtype=np.float64).reshape(-1, 3).T
        assert_replay_bitwise(scale, values, comps, eff, budget)


def sequential_wins(scales, values, comp_bids, budget):
    """``accepted_wins`` one opportunity at a time, at one bid scale per
    opportunity: the won positions and, for each, whether it was paid."""
    remaining = float(budget)
    won, paid = [], []
    for j, (s, v, c) in enumerate(zip(np.asarray(scales, dtype=np.float64).tolist(),
                                      np.asarray(values, dtype=np.float64).tolist(),
                                      np.asarray(comp_bids, dtype=np.float64).tolist())):
        if s * v > c:
            won.append(j)
            paid.append(c <= remaining)
            if c <= remaining:
                remaining -= c
    return won, paid


class TestAcceptedWinsPerOpportunity:
    """``accepted_wins`` at one scale per opportunity, as ``MarketEnv.replay``
    calls it with each step's scale repeated, equals the sequential scan."""

    def check(self, scales, values, comps, budget):
        won, accepted = _kernels.accepted_wins(scales, values, comps, budget)
        assert (won.tolist(), accepted.tolist()) == sequential_wins(scales, values, comps,
                                                                    budget)
        return won, accepted

    def test_one_scale_equals_a_repeated_scale(self):
        values, comps, _ = _stream(4, 1000)
        for budget in (0.5, 1e9):
            one = _kernels.accepted_wins(3.0, values, comps, budget)
            each = self.check(np.full(values.size, 3.0), values, comps, budget)
            assert [a.tolist() for a in one] == [a.tolist() for a in each]

    def test_per_step_scales_on_market_days(self):
        """Default-shape days at a scale per step, forfeit-heavy budgets."""
        rng = np.random.Generator(np.random.PCG64(13))
        forfeits = 0
        for seed in range(20):
            stream = OpportunityStream(MarketConfig(seed=seed))
            scales = np.repeat(rng.uniform(0.0, 8.0, size=48), 100)
            budget = float(rng.choice([1e-12, 0.3, 2.0, 8.0]))
            won, accepted = self.check(scales, stream.values, stream.comp_bids, budget)
            forfeits += won.size - np.count_nonzero(accepted)
        assert forfeits > 1000

    # dyadic grids make ties and payments that land exactly on the budget
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
                                st.sampled_from([0.125, 0.25, 0.5, 1.0]),
                                st.sampled_from([0.0625, 0.125, 0.25, 0.5, 1.0])),
                      max_size=60),
        budget=st.one_of(st.sampled_from([0.0, 0.25, 0.375, 1.0, 2.5]),
                         st.floats(0.0, 8.0)),
    )
    def test_random_dyadic_streams(self, rows, budget):
        scales, values, comps = np.array(rows, dtype=np.float64).reshape(-1, 3).T
        self.check(scales, values, comps, budget)


def _step_rows(seed, n_steps, per_step):
    """The per-step slices of a market stream: values, competitor bids,
    effective values and conversion draws."""
    cfg = MarketConfig(steps_per_episode=n_steps, opportunities_per_step=per_step, seed=seed,
                       cvr_profile=np.ones(n_steps))
    stream = OpportunityStream(cfg)
    return [(stream.values[sl], stream.comp_bids[sl], stream.eff_values[sl],
             stream.conv_draws[sl])
            for sl in map(stream.step_slice, range(n_steps))]


class TestStepScanMatchesLoop:
    """``step_scan`` folds over the winners alone; every field, its type
    included, equals the loop over every opportunity."""

    @pytest.fixture(autouse=True)
    def _loop(self, scan_refs):
        self.loop = scan_refs.step_scan

    def check(self, action, values, comps, eff, draws, remaining):
        got = _kernels.step_scan(action, values, comps, eff, draws, remaining)
        want = self.loop(action, values, comps, eff, draws, remaining)
        assert [type(x) for x in got] == [type(x) for x in want] == [int, float, int, float,
                                                                      float]
        assert [repr(x) for x in got] == [repr(x) for x in want], (got, want)
        return got

    @pytest.mark.parametrize("action, remaining, wins", [
        (1.0, 1.0, 0), (4.0, 1.0, 1), (4.0, 0.1, 0), (4.0, 0.25, 1),
    ], ids=["lost", "won", "forfeited", "exact-budget"])
    def test_single_opportunity(self, action, remaining, wins):
        one = np.array([0.125]), np.array([0.25]), np.array([0.5]), np.array([0.25])
        assert self.check(action, *one, remaining)[0] == wins

    def test_no_winner_and_every_winner(self):
        rows = _step_rows(5, 6, 100)
        for values, comps, eff, draws in rows:
            assert self.check(0.0, values, comps, eff, draws, 10.0)[:2] == (0, 0.0)
            top = float((comps / values).max()) * 2.0
            assert self.check(top, values, comps, eff, draws, 1e9)[0] == values.size

    def test_budgets(self):
        """Zero, tiny, exactly the first winner's payment, and ample."""
        for values, comps, eff, draws in _step_rows(6, 8, 100):
            first = float(comps[3.0 * values > comps][0])
            for remaining in (0.0, 1e-12, first, 1e6):
                _, spend, _, _, left = self.check(3.0, values, comps, eff, draws, remaining)
                assert spend <= remaining and left >= 0.0
            assert self.check(3.0, values, comps, eff, draws, first)[1] == first

    def test_forfeit_heavy_rows(self):
        rng = np.random.Generator(np.random.PCG64(21))
        forfeits = 0
        for seed in range(40):
            remaining = float(rng.uniform(0.05, 0.4))
            for values, comps, eff, draws in _step_rows(seed, 10, int(rng.integers(1, 120))):
                action = float(rng.choice([2.0, 6.0, 20.0]))
                wins, _, _, _, remaining = self.check(action, values, comps, eff, draws,
                                                      remaining)
                forfeits += np.count_nonzero(action * values > comps) - wins
        assert forfeits > 1000

    def test_seeded_rows(self):
        """Default-shape steps at varied scales and budgets, the budget
        carried from step to step as ``MarketEnv`` does."""
        rng = np.random.Generator(np.random.PCG64(8))
        for seed in range(12):
            remaining = float(rng.uniform(0.5, 12.0))
            for values, comps, eff, draws in _step_rows(seed, 48, 100):
                action = float(rng.uniform(0.0, 8.0))
                remaining = self.check(action, values, comps, eff, draws, remaining)[4]

    # dyadic grids make ties and payments that land exactly on the budget
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.sampled_from([0.125, 0.25, 0.5, 1.0]),
                                st.sampled_from([0.0, 0.0625, 0.125, 0.25, 0.5, 1.0]),
                                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                st.floats(0.0, 1.0)), min_size=1, max_size=60),
        action=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
        remaining=st.one_of(st.sampled_from([0.0, 0.25, 0.375, 1.0, 2.5]),
                            st.floats(0.0, 8.0)),
    )
    def test_random_dyadic_streams(self, rows, action, remaining):
        values, comps, eff, draws = np.array(rows, dtype=np.float64).T
        self.check(action, values, comps, eff, draws, remaining)


def test_backend_reported():
    assert KERNEL_BACKEND == "python"
    assert _kernels.get_backend("python").replay_scan is _kernels.replay_scan
    with pytest.raises(RuntimeError):
        _kernels.get_backend("cython")
