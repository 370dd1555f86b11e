"""The auction-scan kernels.

Both scan opportunities in stream order with plain IEEE double arithmetic:
a bid ``scale * value`` wins when it strictly exceeds the competitor bid,
the winner pays the competitor bid, and a win whose payment exceeds the
remaining budget is forfeited.
"""

import numpy as np


def replay_scan(scale, values, comp_bids, eff_values, budget):
    """Replay a constant bid scale over a whole stream under ``budget``.

    Returns (spend, value, wins, forfeits); value sums ``eff_values`` of
    the wins.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).tolist()
    c = np.ascontiguousarray(comp_bids, dtype=np.float64).tolist()
    ev = np.ascontiguousarray(eff_values, dtype=np.float64).tolist()
    scale = float(scale)
    remaining = float(budget)
    spend = 0.0
    value = 0.0
    wins = 0
    forfeits = 0
    for j in range(len(v)):
        bid = scale * v[j]
        if bid > c[j]:
            pay = c[j]
            if pay <= remaining:
                remaining -= pay
                spend += pay
                value += ev[j]
                wins += 1
            else:
                forfeits += 1
    return spend, value, wins, forfeits


def step_scan(action, values, comp_bids, eff_values, conv_draws, remaining):
    """One market step at bid scale ``action`` with ``remaining`` budget.

    Returns (wins, spend, conversions, value, remaining after the step); a
    win converts when its draw in ``conv_draws`` is below its effective
    value.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).tolist()
    c = np.ascontiguousarray(comp_bids, dtype=np.float64).tolist()
    ev = np.ascontiguousarray(eff_values, dtype=np.float64).tolist()
    u = np.ascontiguousarray(conv_draws, dtype=np.float64).tolist()
    action = float(action)
    rem = float(remaining)
    spend = 0.0
    value = 0.0
    wins = 0
    conversions = 0
    for j in range(len(v)):
        bid = action * v[j]
        if bid > c[j]:
            pay = c[j]
            if pay <= rem:
                rem -= pay
                spend += pay
                value += ev[j]
                wins += 1
                if u[j] < ev[j]:
                    conversions += 1
    return wins, spend, conversions, value, rem
