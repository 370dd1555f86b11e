"""Auction-scan kernels: the budget-forfeit scans of the expert's replay,
of a whole open-loop day and of one market step.

All follow opportunities in stream order with plain IEEE double
arithmetic: a bid ``scale * value`` wins when it strictly exceeds the
competitor bid, the winner pays the competitor bid, and a win whose
payment exceeds the remaining budget is forfeited.

``accepted_wins`` covers a whole day (4800 opportunities at the default
shape) in whole-array numpy, at one scale or at one scale per
opportunity: the won set is one comparison, and the budget path is a
``ufunc.accumulate`` left fold, which subtracts in the same order as a
loop and so gives the same floats (``np.sum`` adds pairwise and would
change the last bits).  ``replay_scan``, the expert's replay at one
scale, sums spend and value over its accepted wins with the same left
folds; on a 2-vCPU VM it takes 50-95 us per default day against
0.9-1.1 ms for the loop.  ``MarketEnv.replay`` calls ``accepted_wins``
with each step's scale repeated over the step's opportunities.

``step_scan`` is one closed-loop market step: it finds the step's
winners with one numpy comparison and folds the budget over the winners
alone in a Python loop.  On one row of 100 opportunities (25-80 winners,
same VM) that takes 13-24 us against 21-28 us for a loop over every
opportunity; a whole-array fold with its forfeit cuts was slower than
either (35 us against 24-25 us).  On the 20-opportunity steps of the
test configs the numpy calls cost more than they save (8-10 us against
5-7 us per row).  Every kernel stays bitwise equal to the
one-opportunity-at-a-time scan: a float64 numpy product and ``>`` round
and compare like Python floats, and the winners keep stream order.
"""

import sys

import numpy as np


def get_backend(name="python"):
    """The kernel module for ``name``.  Only "python" (this module) exists;
    callers that probe for the removed compiled backend get RuntimeError."""
    if name != "python":
        raise RuntimeError(f"kernel backend {name!r} is not available")
    return sys.modules[__name__]


def accepted_wins(scale, values, comp_bids, budget):
    """The won opportunities of a stream and which of them ``budget`` pays.

    ``scale`` is one bid scale or one per opportunity.  Returns ``won``,
    the positions where ``scale * value`` beats the competitor bid in
    stream order, and ``accepted``, a mask over ``won``: the budget path is
    a left fold over the winners' payments, cut at each forfeit and resumed
    at the next winner that still fits, so the mask is the one a scan of
    one opportunity at a time gives.
    """
    comp_bids = np.asarray(comp_bids, dtype=np.float64)
    bids = np.asarray(scale, dtype=np.float64) * np.asarray(values, dtype=np.float64)
    won = np.flatnonzero(bids > comp_bids)
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
    return won, accepted


def replay_scan(scale, values, comp_bids, eff_values, budget):
    """Replay a constant bid scale over a whole stream under ``budget``.

    Returns (spend, value, wins, forfeits); value sums ``eff_values`` of
    the wins.  Bitwise equal to scanning the stream one opportunity at a
    time: the accepted wins are ``accepted_wins``', and spend and value
    are left folds over them.
    """
    comp_bids = np.asarray(comp_bids, dtype=np.float64)
    won, accepted = accepted_wins(float(scale), values, comp_bids, budget)
    paid = won[accepted]
    spend = np.add.accumulate(np.concatenate(([0.0], comp_bids[paid])))[-1]
    value = np.add.accumulate(np.concatenate(
        ([0.0], np.asarray(eff_values, dtype=np.float64)[paid])))[-1]
    return float(spend), float(value), paid.size, won.size - paid.size


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
