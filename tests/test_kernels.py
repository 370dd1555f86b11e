"""Forfeiture semantics of the auction-scan kernels, checked against
hand-worked cases and against each other."""

import numpy as np
import pytest

from bagbid import KERNEL_BACKEND, _kernels
from bagbid.market import MarketConfig, OpportunityStream


class TestSemantics:
    def test_forfeit_skips_unaffordable(self):
        values = np.array([0.5, 0.5, 0.5])
        comps = np.array([0.9, 0.5, 0.05])
        eff = values.copy()
        spend, value, wins, forfeits = _kernels.replay_scan(10.0, values, comps, eff, 1.0)
        # wins 0.9, forfeits 0.5 (only 0.1 left), wins 0.05
        assert wins == 2 and forfeits == 1
        assert spend == pytest.approx(0.95)

    def test_tie_loses(self):
        values = np.array([0.5])
        comps = np.array([1.0])
        spend, value, wins, forfeits = _kernels.replay_scan(2.0, values, comps, values, 10.0)
        assert wins == 0 and spend == 0.0

    def test_exact_budget_payment_allowed(self):
        values = np.array([0.5])
        comps = np.array([1.0])
        spend, *_ = _kernels.replay_scan(3.0, values, comps, values, 1.0)
        assert spend == 1.0

    @pytest.mark.parametrize("budget", [1.5, 0.3, 50.0])
    def test_chained_steps_equal_whole_replay(self, budget):
        """Stepping a budget through per-step scans reproduces the single
        whole-stream scan: the same wins, and the same spend and remaining
        budget up to rounding (per-step sums regroup the running sum)."""
        cfg = MarketConfig(steps_per_episode=12, opportunities_per_step=30, seed=3,
                           cvr_profile=np.ones(12))
        stream = OpportunityStream(cfg)
        scale = 2.0
        whole_spend, _, whole_wins, _ = _kernels.replay_scan(
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


def test_backend_reported():
    assert KERNEL_BACKEND == "python"
    assert _kernels.get_backend("python").replay_scan is _kernels.replay_scan
    with pytest.raises(RuntimeError):
        _kernels.get_backend("cython")
