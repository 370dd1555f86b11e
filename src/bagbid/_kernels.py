"""Auction-scan kernels: the budget-forfeit scans that the expert's
replay and every market step run.

Both follow opportunities in stream order with plain IEEE double
arithmetic: a bid ``scale * value`` wins when it strictly exceeds the
competitor bid, the winner pays the competitor bid, and a win whose
payment exceeds the remaining budget is forfeited.

``replay_scan`` covers a whole day (4800 opportunities at the default
shape) in whole-array numpy: the won set is one comparison, and the budget
path, spend and value are ``ufunc.accumulate`` left folds, which add and
subtract in the same order as a loop and so give the same floats
(``np.sum`` adds pairwise and would change the last bits).  On a 2-vCPU
VM it takes 50-95 us per default day against 0.9-1.1 ms for the loop.

``step_scan`` finds a step's winners with one numpy comparison and folds
the budget over the winners alone in a Python loop.  On one row of 100
opportunities (25-80 winners, same VM) that takes 13-24 us against
21-28 us for a loop over every opportunity; a whole-array fold with its
forfeit cuts was slower than either (35 us against 24-25 us).  On the
20-opportunity steps of the test configs the numpy calls cost more than
they save (8-10 us against 5-7 us per row).  Both kernels stay bitwise
equal to the one-opportunity-at-a-time scan: a float64 numpy product and
``>`` round and compare like Python floats, and the winners keep stream
order.
"""

import sys

import numpy as np


def get_backend(name="python"):
    """The kernel module for ``name``.  Only "python" (this module) exists;
    callers that probe for the removed compiled backend get RuntimeError."""
    if name != "python":
        raise RuntimeError(f"kernel backend {name!r} is not available")
    return sys.modules[__name__]


def replay_scan(scale, values, comp_bids, eff_values, budget):
    """Replay a constant bid scale over a whole stream under ``budget``.

    Returns (spend, value, wins, forfeits); value sums ``eff_values`` of
    the wins.  Bitwise equal to scanning the stream one opportunity at a
    time: the budget path is a left fold over the winners' payments, cut
    at each forfeit and resumed at the next winner that still fits, and
    spend and value are left folds over the accepted wins.
    """
    comp_bids = np.asarray(comp_bids, dtype=np.float64)
    won = np.flatnonzero(float(scale) * np.asarray(values, dtype=np.float64) > comp_bids)
    pays = comp_bids[won]
    accepted = np.zeros(pays.size, dtype=bool)
    remaining = float(budget)
    tail = np.arange(pays.size)
    while tail.size:
        tail_pays = pays[tail]
        # remaining budget before each winner of the tail, folded left
        before = np.subtract.accumulate(np.concatenate(([remaining], tail_pays)))[:-1]
        fits = tail_pays <= before
        first = int(fits.argmin())
        if fits[first]:  # no forfeit in the rest of the stream
            accepted[tail] = True
            break
        accepted[tail[:first]] = True
        remaining = before[first]
        # the budget only shrinks, so a winner it cannot pay now is forfeited
        rest = tail[first + 1:]
        tail = rest[pays[rest] <= remaining]
    spend = np.add.accumulate(np.concatenate(([0.0], pays[accepted])))[-1]
    value = np.add.accumulate(np.concatenate(
        ([0.0], np.asarray(eff_values, dtype=np.float64)[won[accepted]])))[-1]
    wins = int(np.count_nonzero(accepted))
    return float(spend), float(value), wins, pays.size - wins


def step_scan(action, values, comp_bids, eff_values, conv_draws, remaining):
    """One market step at bid scale ``action`` with ``remaining`` budget.

    Returns (wins, spend, conversions, value, remaining after the step); a
    win converts when its draw in ``conv_draws`` is below its effective
    value.
    """
    comp_bids = np.asarray(comp_bids, dtype=np.float64)
    won = float(action) * np.asarray(values, dtype=np.float64) > comp_bids
    pays = comp_bids[won].tolist()
    ev = np.asarray(eff_values, dtype=np.float64)[won].tolist()
    u = np.asarray(conv_draws, dtype=np.float64)[won].tolist()
    rem = float(remaining)
    spend = 0.0
    value = 0.0
    wins = 0
    conversions = 0
    for pay, ev_j, u_j in zip(pays, ev, u):
        if pay <= rem:
            rem -= pay
            spend += pay
            value += ev_j
            wins += 1
            if u_j < ev_j:
                conversions += 1
    return wins, spend, conversions, value, rem
