"""Run the columnar slot functions on lists of one-MG instances.

Tests state their cases one MG at a time, as records of floats (the scalar
references' `MGState` and `SlotInputs`, `TradeAllocation`, `MGParams`).
These helpers stack a list of such cases into columns, make one call to the
package's columnar function, and split the result back into one tuple of
floats per case.
"""

from __future__ import annotations

import numpy as np

from mgtrade.controller import make_bids, solve_slot_program
from mgtrade.model import ControlAction, DerivedBounds, Fleet

# the bid and the slot program read no derived bound
NO_BOUNDS = DerivedBounds(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def fleet_of(params, bounds=None) -> Fleet:
    return Fleet.of(list(params), list(bounds) if bounds else [NO_BOUNDS] * len(params))


def column(values) -> np.ndarray:
    return np.array(list(values), dtype=float)


def solve_all(cases) -> list[ControlAction]:
    """`solve_slot_program` on (state, x, inputs, trade, params) cases, one call."""
    states, xs, inputs, trades, params = zip(*cases)
    action = solve_slot_program(
        column(s.battery_kwh for s in states),
        column(s.demand_queue_kwh for s in states),
        column(s.delay_queue_kwh for s in states),
        column(xs),
        column(i.renewable_kwh for i in inputs),
        column(i.di_load_kwh for i in inputs),
        column(i.grid_price for i in inputs),
        column(t.bought_kwh for t in trades),
        column(t.sold_kwh for t in trades),
        fleet_of(params),
    )
    return [ControlAction(*cells) for cells in zip(*(a.tolist() for a in action))]


def solve_one(state, x, inputs, trade, params) -> ControlAction:
    return solve_all([(state, x, inputs, trade, params)])[0]


def bid_all(cases) -> list[tuple[float, float, float, float]]:
    """`make_bids` on (state, inputs, params) cases: (sell price, buy price, sell kWh, buy kWh)."""
    states, inputs, params = zip(*cases)
    bids = make_bids(
        column(s.demand_queue_kwh for s in states),
        column(s.delay_queue_kwh for s in states),
        column(i.renewable_kwh for i in inputs),
        column(i.di_load_kwh for i in inputs),
        fleet_of(params),
    )
    return list(zip(*(b.tolist() for b in bids)))
