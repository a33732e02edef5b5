"""Run the columnar slot functions on lists of one-MG instances.

Tests state their cases one MG at a time, as records of floats (the scalar
references' `MGState` and `SlotInputs`, `TradeAllocation`, `MGParams`, and
(mg_id, price, kWh) bids). These helpers stack a list of such cases into
columns, make one call to the package's columnar function, and split the
result back into one tuple of floats per case.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from mgtrade.auction import ClearingOutcome, OrderBook
from mgtrade.controller import Bids, make_bids, solve_slot_program
from mgtrade.logs import _ROW_COLUMNS, MarketRow, MGSlotRow, RunLogs
from mgtrade.model import ControlAction, DerivedBounds, Fleet
from mgtrade.sim import SlotRecord

from oracles import TradeAllocation

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


def book_of(buys, sells, rho1: float, rho2: float) -> OrderBook:
    """`OrderBook.from_bids` on (mg_id, price, kWh) bids, one MG per bid.

    The buys take the first fleet positions and the sells the rest; each
    MG's other side has price and quantity 0.0.
    """
    buys, sells = list(buys), list(sells)
    ids = [b[0] for b in buys] + [s[0] for s in sells]
    zeros = [0.0] * len(sells)
    bids = Bids(
        sell_price=column([0.0] * len(buys) + [s[1] for s in sells]),
        buy_price=column([b[1] for b in buys] + zeros),
        sell_quantity_kwh=column([0.0] * len(buys) + [s[2] for s in sells]),
        buy_quantity_kwh=column([b[2] for b in buys] + zeros),
    )
    return OrderBook.from_bids(ids, bids, rho1, rho2)


def book_sides(book: OrderBook) -> tuple[list, list]:
    """The live buys and sells as (mg_id, price, kWh) tuples, in book order."""
    buy_price, buy_kwh, sell_price, sell_kwh = book.floats
    ids = book.ids.tolist()
    buys = [(ids[k], p, q) for k, p, q in zip(book.buy_bids.tolist(), buy_price, buy_kwh)]
    sells = [(ids[k], p, q) for k, p, q in zip(book.sell_bids.tolist(), sell_price, sell_kwh)]
    return buys, sells


def allocations_by_id(book: OrderBook, outcome: ClearingOutcome) -> dict[tuple[int, int], float]:
    """The outcome's trades keyed by (buyer id, seller id), in fill order."""
    ids = book.ids.tolist()
    return {(ids[b], ids[s]): x for b, s, x in outcome.allocations}


def trade_of(book: OrderBook, outcome: ClearingOutcome, mg_id: int) -> TradeAllocation:
    """One MG's column entries of `outcome.fills`."""
    k = book.ids.tolist().index(mg_id)
    return TradeAllocation(mg_id, *outcome.fills(len(book.ids))[:, k].tolist())


def record_of(slot: int, book: OrderBook, fills, prices=(0.0, 0.0)) -> SlotRecord:
    """A slot record of the book's bids, `fills` (as `ClearingOutcome.fills`
    returns them) and the clearing (buy, sell) `prices`; its other columns and
    market cells are zero."""
    columns = np.zeros((len(_ROW_COLUMNS), len(book.ids)))
    bids = _ROW_COLUMNS.index("bid_sell_price")
    columns[bids : bids + 8] = (*book.bids, *fills)  # four bid fields, then four fills
    return SlotRecord(slot, columns, MarketRow(*prices, 0.0, 0.0), ())


def rows_of(rec: SlotRecord, ids) -> tuple[MGSlotRow, ...]:
    """The log rows of a record of MGs ``ids``, one per MG in config order, the
    job age an int as the row declares it."""
    cells = zip(ids, rec.columns.T.tolist())
    return tuple(MGSlotRow(rec.slot, mid, *row[:-1], int(row[-1])) for mid, row in cells)


def write_logs(out_dir, ids, records) -> None:
    """Write a run's records, its MGs ``ids``, to slots.csv and auction_audit.csv."""
    with RunLogs(Path(out_dir), ids) as logs:
        for rec in records:
            logs.write(rec)
