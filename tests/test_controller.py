"""Bid construction and the per-slot drift-plus-penalty program.

The one-MG cases exercise the scalar references frozen in `oracles`; the
columnar functions the simulator runs must equal them bit for bit
(`test_columnar_slot_equals_the_scalar_references`).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgtrade import run
from mgtrade.auction import OrderBook
from mgtrade.cli import default_scenario
from mgtrade.controller import Bids, _scan, post_trade_settlement, spilled_kwh
from mgtrade.errors import MarketError
from mgtrade.model import ControlAction, MGParams

from columnar import bid_all, rows_of, solve_all
from oracles import (
    MGState,
    SlotInputs,
    TradeAllocation,
    brute_force_slot_objective,
    check_action,
    make_bids,
    marginal_value,
    reference_scan,
    slot_objective,
    slot_objective_with_settlement,
    solve_slot_program,
)


def mg(**overrides) -> MGParams:
    base = dict(
        id=1,
        battery_capacity_kwh=100.0,
        charge_rate_max_kwh=50.0,
        discharge_rate_max_kwh=50.0,
        serve_rate_max_kwh=150.0,
        dt_load_max_kwh=10.0,
        epsilon=10.0,
        epsilon_max=10.0,
        price_floor=1.0,
        v_weight=10.0,
    )
    base.update(overrides)
    return MGParams(**base)


def state(b=0.0, q=0.0, z=0.0) -> MGState:
    return MGState(battery_kwh=b, demand_queue_kwh=q, delay_queue_kwh=z)


def inputs(r=0.0, di=0.0, dt=0.0, price=1.0) -> SlotInputs:
    return SlotInputs(renewable_kwh=r, di_load_kwh=di, dt_load_kwh=dt, grid_price=price)


NO_TRADE = TradeAllocation.none(1)
IDLE = ControlAction(0.0, 0.0, 0.0, 0.0)


# -------------------------------------------------------------------- bidding


def test_marginal_value_examples():
    assert marginal_value(state(), mg()) == 0.0
    assert marginal_value(state(q=10.0, z=4.0), mg(v_weight=2.0)) == pytest.approx(7.0)
    assert marginal_value(state(q=14.0, z=14.0), mg(v_weight=6.0)) == pytest.approx(
        14.0 / 3.0
    )


def one_bid(*cells) -> Bids:
    return Bids(*(np.array([c]) for c in cells))


def test_bid_pair_rejects_negative_price():
    with pytest.raises(MarketError):
        OrderBook.from_bids([1], one_bid(-1.0, 0.0, 1.0, 0.0), 1.0, 1.0)


def test_bid_pair_rejects_two_sided():
    with pytest.raises(MarketError):
        OrderBook.from_bids([1], one_bid(1.0, 1.0, 1.0, 1.0), 1.0, 1.0)


def test_surplus_mg_sells_its_surplus():
    bid = make_bids(state(), inputs(r=300.0, di=100.0), mg())
    assert bid.sell_quantity_kwh == pytest.approx(200.0)
    assert bid.sell_price == 0.0  # empty queues value service at nothing
    assert bid.buy_quantity_kwh == 0.0


def test_deficit_mg_asks_for_service_headroom():
    p = mg(v_weight=10.0)
    bid = make_bids(state(q=200.0, z=100.0), inputs(r=0.0, di=50.0), p)
    assert bid.buy_price == pytest.approx(30.0)
    assert bid.buy_quantity_kwh == pytest.approx(150.0)  # J_max - R, under the Q clamp
    assert bid.sell_quantity_kwh == 0.0


def test_deficit_mg_buy_price_floored():
    bid = make_bids(state(), inputs(r=0.0, di=50.0, dt=1.0), mg())
    assert bid.buy_price == pytest.approx(1.0)


def test_buy_quantity_clamped_to_backlog():
    bid = make_bids(state(q=20.0), inputs(r=0.0, di=5.0), mg())
    assert bid.buy_quantity_kwh == pytest.approx(20.0)


state_strategy = st.builds(
    state,
    b=st.floats(0.0, 100.0),
    q=st.floats(0.0, 300.0),
    z=st.floats(0.0, 300.0),
)
inputs_strategy = st.builds(
    inputs,
    r=st.floats(0.0, 400.0),
    di=st.floats(0.0, 400.0),
    dt=st.floats(0.0, 10.0),
    price=st.floats(1.0, 2.0),
)


@given(s=state_strategy, ins=inputs_strategy)
def test_no_bid_is_ever_two_sided(s, ins):
    bid = make_bids(s, ins, mg())
    assert not (bid.sell_quantity_kwh > 0 and bid.buy_quantity_kwh > 0)
    assert bid.sell_quantity_kwh >= 0 and bid.buy_quantity_kwh >= 0


@given(s=state_strategy, ins=inputs_strategy, extra=st.floats(0.1, 100.0))
def test_bid_prices_grow_with_backlog(s, ins, extra):
    p = mg()
    low = make_bids(s, ins, p)
    bumped = MGState(
        battery_kwh=s.battery_kwh,
        demand_queue_kwh=s.demand_queue_kwh + extra,
        delay_queue_kwh=s.delay_queue_kwh,
    )
    high = make_bids(bumped, ins, p)
    assert high.sell_price >= low.sell_price
    assert high.buy_price >= low.buy_price


# ---------------------------------------------------------------- slot program


def test_program_charges_cheap_energy():
    """Deep battery deficit: charge at the rate cap, topping up from the grid."""
    p = mg(
        battery_capacity_kwh=100.0,
        charge_rate_max_kwh=50.0,
        discharge_rate_max_kwh=50.0,
        dt_load_max_kwh=10.0,
        epsilon_max=10.0,
        v_weight=1.0,
    )
    # theta = 1*2 + 10 + 10 = 22, so an empty battery sits at X = -72
    s = state(b=0.0)
    ins = inputs(r=30.0, price=1.0)
    action = solve_slot_program(s, -72.0, ins, NO_TRADE, p)
    assert action.charge_kwh == pytest.approx(50.0)
    assert action.discharge_kwh == 0.0
    assert action.grid_purchase_kwh == pytest.approx(20.0)


def test_program_grid_covers_deficit_exactly():
    p = mg(
        discharge_rate_max_kwh=0.0,
        dt_load_max_kwh=10.0,
        epsilon_max=10.0,
        v_weight=1.0,
    )
    s = state(b=50.0)
    ins = inputs(r=10.0, di=50.0, price=1.5)
    # X = 28 is above the setpoint: no appetite to charge
    action = solve_slot_program(s, 28.0, ins, NO_TRADE, p)
    assert action.charge_kwh == 0.0
    assert action.serve_dt_kwh == 0.0
    assert action.grid_purchase_kwh == pytest.approx(40.0)


def test_program_idle_on_zero_state():
    action = solve_slot_program(state(), 0.0, inputs(), NO_TRADE, mg())
    assert action == IDLE


def test_program_prefers_inaction_on_ties():
    """When charging neither gains nor costs, the battery stays idle."""
    p = mg(v_weight=10.0)
    # X = 0: storing free renewable energy is worth exactly nothing
    action = solve_slot_program(state(b=40.0), 0.0, inputs(r=30.0), NO_TRADE, p)
    assert action == IDLE
    # X = -V*P with no slack: the drift gain of grid charging equals its cost
    ins = inputs(price=2.0)
    action = solve_slot_program(state(b=40.0), -10.0 * 2.0, ins, NO_TRADE, p)
    assert action == IDLE


def test_program_rejects_two_sided_trade():
    trade = TradeAllocation(1, bought_kwh=5.0, sold_kwh=5.0, buy_unit_price=1.0, sell_unit_price=1.0)
    with pytest.raises(MarketError):
        solve_slot_program(state(), 0.0, inputs(), trade, mg())


def test_program_rejects_negative_trade():
    trade = TradeAllocation(1, bought_kwh=-1.0, sold_kwh=0.0, buy_unit_price=0.0, sell_unit_price=0.0)
    with pytest.raises(MarketError):
        solve_slot_program(state(), 0.0, inputs(), trade, mg())


int_qty = st.integers(0, 15).map(float)


@st.composite
def program_instances(draw):
    capacity = float(draw(st.integers(5, 20)))
    b = float(draw(st.integers(0, int(capacity))))
    p = mg(
        battery_capacity_kwh=capacity,
        charge_rate_max_kwh=float(draw(st.integers(0, int(capacity)))),
        discharge_rate_max_kwh=float(draw(st.integers(0, 15))),
        serve_rate_max_kwh=float(draw(st.integers(0, 15))),
        v_weight=float(draw(st.sampled_from([1, 2, 5]))),
    )
    s = MGState(
        battery_kwh=b,
        demand_queue_kwh=float(draw(st.integers(0, 15))),
        delay_queue_kwh=float(draw(st.integers(0, 15))),
    )
    x = float(draw(st.integers(-20, 20)))
    ins = inputs(
        r=float(draw(st.integers(0, 15))),
        di=float(draw(st.integers(0, 15))),
        price=float(draw(st.sampled_from([1, 2, 3]))),
    )
    if draw(st.booleans()):
        trade = TradeAllocation(1, float(draw(int_qty)), 0.0, 1.0, 0.0)
    else:
        trade = TradeAllocation(1, 0.0, float(draw(int_qty)), 0.0, 1.0)
    return p, s, x, ins, trade


@given(inst=program_instances())
@settings(max_examples=150, deadline=None)
def test_program_beats_integer_grid(inst):
    """The exact solver is never worse than a unit-grid search of the same box."""
    p, s, x, ins, trade = inst
    action = solve_slot_program(s, x, ins, trade, p)
    check_action(s, action, p)
    assert action.serve_dt_kwh <= min(p.serve_rate_max_kwh, s.demand_queue_kwh) + 1e-9
    got = slot_objective(s, x, ins, action, p)
    grid = brute_force_slot_objective(
        battery=s.battery_kwh,
        q=s.demand_queue_kwh,
        z=s.delay_queue_kwh,
        x=x,
        renewable=ins.renewable_kwh,
        di=ins.di_load_kwh,
        price=ins.grid_price,
        bought=trade.bought_kwh,
        sold=trade.sold_kwh,
        capacity=p.battery_capacity_kwh,
        c_max=p.charge_rate_max_kwh,
        d_max=p.discharge_rate_max_kwh,
        j_max=p.serve_rate_max_kwh,
        v=p.v_weight,
    )
    assert got <= grid + 1e-7


@given(inst=program_instances())
@settings(max_examples=150, deadline=None)
def test_program_never_spills_negative(inst):
    p, s, x, ins, trade = inst
    action = solve_slot_program(s, x, ins, trade, p)
    assert spilled_kwh(ins.renewable_kwh, ins.di_load_kwh, action) >= -1e-9


@given(inst=program_instances())
@settings(max_examples=150, deadline=None)
def test_program_buys_from_the_grid_only_what_it_does_not_spill(inst):
    """The grid purchase is max(0, I + J + sold + C - R - D - bought, C + sold -
    R - D), so a slot that buys spills 0, or bought - I - J when the second
    term is the larger: never more than max(0, bought - I - J)."""
    p, s, x, ins, trade = inst
    action = solve_slot_program(s, x, ins, trade, p)
    spill = spilled_kwh(ins.renewable_kwh, ins.di_load_kwh, action)
    if action.grid_purchase_kwh > 0.0:
        unmet = trade.bought_kwh - ins.di_load_kwh - action.serve_dt_kwh
        assert spill <= max(unmet, 0.0) + 1e-9


def test_program_may_buy_from_the_grid_and_spill():
    """Auction energy never charges the battery: an MG far below its setpoint
    charges from the grid, and spills what it bought beyond its loads."""
    p = mg(v_weight=1.0)  # an empty battery sits at X = -72
    trade = TradeAllocation(1, 10.0, 0.0, 1.0, 0.0)
    [action] = solve_all([(state(b=0.0), -72.0, inputs(di=5.0, price=1.0), trade, p)])
    assert (action.charge_kwh, action.serve_dt_kwh, action.grid_purchase_kwh) == (50.0, 0.0, 50.0)
    assert spilled_kwh(0.0, 5.0, action) == 5.0  # bought - I - J


@given(inst=program_instances())
@settings(max_examples=150, deadline=None)
def test_threshold_structure(inst):
    """Above the setpoint charging never pays; far enough below, discharging never does."""
    p, s, x, ins, trade = inst
    action = solve_slot_program(s, x, ins, trade, p)
    if x > 0:
        assert action.charge_kwh == 0.0
    if x < -p.v_weight * ins.grid_price:
        assert action.discharge_kwh == 0.0


# ------------------------------------------------------------------ accounting


def settle(action: ControlAction, trade: TradeAllocation, ins: SlotInputs) -> float:
    return post_trade_settlement(
        ins.grid_price, action.grid_purchase_kwh, trade.buy_unit_price,
        trade.bought_kwh, trade.sell_unit_price, trade.sold_kwh,
    )


def test_settlement_examples():
    g = ControlAction(0.0, 0.0, 0.0, 100.0)
    assert settle(g, NO_TRADE, inputs(price=0.05)) == pytest.approx(5.0)

    buy = TradeAllocation(1, 50.0, 0.0, 2.0, 0.0)
    a = ControlAction(0.0, 0.0, 0.0, 0.0, bought_kwh=50.0)
    assert settle(a, buy, inputs(price=1.0)) == pytest.approx(100.0)

    sell = TradeAllocation(1, 0.0, 80.0, 0.0, 1.5)
    a = ControlAction(0.0, 0.0, 0.0, 0.0, sold_kwh=80.0)
    assert settle(a, sell, inputs(price=1.0)) == pytest.approx(-120.0)


def test_objective_with_settlement_adds_weighted_payments():
    s = state(q=5.0, z=5.0)
    ins = inputs(price=2.0)
    a = ControlAction(1.0, 0.0, 2.0, 4.0, bought_kwh=3.0)
    trade = TradeAllocation(1, 3.0, 0.0, 1.5, 0.0)
    base = slot_objective(s, -3.0, ins, a, mg())
    full = slot_objective_with_settlement(s, -3.0, ins, a, trade, mg())
    assert full == pytest.approx(base + 10.0 * 1.5 * 3.0)


def test_slot_objective_formula():
    s = state(q=4.0, z=6.0)
    a = ControlAction(3.0, 0.0, 5.0, 7.0)
    # X = 2: 2*3 - 10*5 + 10*1.0*7
    assert slot_objective(s, 2.0, inputs(price=1.0), a, mg()) == pytest.approx(26.0)


# ------------------------------------------------- columnar against scalar


amounts = st.one_of(
    st.integers(0, 40).map(float),
    st.floats(0.0, 400.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1e-6),
)


@st.composite
def slot_cases(draw):
    """One MG of a random slot, often with two of its breakpoints on one value.

    The program's vertices sit at the box bounds and at s2 = R - sold and
    s1 - s2 = bought - I; a case may put bought - I on Q, on J_max or on 0,
    or s2 on the charge or discharge bound, where a vertex reached two ways
    can differ by an ulp. In the tiny mode every kWh is at most 1e-6, where
    the snaps to FEAS_TOL and the scan's 1e-12 margin decide more vertices.
    """
    kwh = draw(st.sampled_from([1.0, 1e-9]))  # the tiny mode scales every energy
    capacity = draw(st.floats(1.0, 500.0)) * kwh
    b = draw(st.floats(0.0, 1.0)) * capacity
    p = mg(
        battery_capacity_kwh=capacity,
        charge_rate_max_kwh=draw(st.floats(0.0, 1.0)) * capacity,
        discharge_rate_max_kwh=draw(amounts) * kwh,
        serve_rate_max_kwh=draw(amounts) * kwh,
        price_floor=draw(st.floats(0.0, 5.0)),
        v_weight=draw(st.floats(0.01, 50.0)),
    )
    q, z, r, di = (draw(amounts) * kwh for _ in range(4))
    bought = sold = 0.0
    side = draw(st.sampled_from(["none", "buy", "sell"]))
    if side == "buy":
        bought = draw(amounts) * kwh
        landing = draw(st.sampled_from(["free", "q", "j_max", "zero"]))
        target = {"free": bought - di, "q": q, "j_max": p.serve_rate_max_kwh, "zero": 0.0}
        bought = max(target[landing] + di, 0.0)
    elif side == "sell":
        sold = draw(amounts) * kwh
        landing = draw(st.sampled_from(["free", "charge", "discharge"]))
        ub_c = min(capacity - b, p.charge_rate_max_kwh)
        ub_d = min(b, p.discharge_rate_max_kwh)
        target = {"free": r - sold, "charge": ub_c, "discharge": -ub_d}
        r = max(target[landing] + sold, 0.0)
    # X near zero puts the two branches' optima within 1e-12 of each other
    x = draw(st.one_of(st.floats(-2.0, 2.0).map(lambda f: f * p.v_weight * 16.0 * kwh),
                       st.floats(-1e-13, 1e-13)))
    state = MGState(b, q, z)
    return state, x, (r, di), TradeAllocation(1, bought, sold, 0.0, 0.0), p


@given(cases=st.lists(slot_cases(), min_size=1, max_size=12), price=st.floats(0.1, 16.0))
@settings(max_examples=300, deadline=None)
def test_columnar_slot_equals_the_scalar_references(cases, price):
    """One columnar call per slot returns each MG's scalar (C, D, J, G) and bids."""
    cases = [
        (s, x, SlotInputs(r, di, 0.0, price), trade, p)
        for s, x, (r, di), trade, p in cases
    ]
    got = solve_all(cases)
    bids = bid_all([(s, ins, p) for s, _, ins, _, p in cases])
    for case, action, bid in zip(cases, got, bids):
        want = solve_slot_program(*case)
        assert repr(action[:4]) == repr(want[:4]), case
        s, _, ins, _, p = case
        assert repr(bid) == repr(tuple(make_bids(s, ins, p)[1:])), case


@st.composite
def scan_tables(draw):
    """Objective columns, one per branch and MG, whose values step by fractions of
    1e-12 from a common base, so a row that does not take the lead can still have
    its value less 1e-12 below the bar: it lowers a running minimum that the scan
    does not lower. Now and then a row is inf or NaN."""
    rows, cols = draw(st.integers(1, 13)), draw(st.integers(1, 6))
    base = draw(st.sampled_from([0.0, 1.0, -3.0, 250.0]))
    step = draw(st.sampled_from([0.25e-12, 0.3e-12, 0.5e-12, 0.7e-12, 1e-12]))
    cell = st.one_of(st.integers(-8, 8).map(lambda k: base + k * step),
                     st.sampled_from([math.inf, -math.inf, math.nan]))
    return np.array(draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows)))


@given(table=scan_tables())
@example(table=np.array([[0.0], [-0.5e-12], [-1.2e-12]]))  # row 1 lowers the running minimum
@settings(max_examples=500, deadline=None)
def test_the_scan_leads_as_the_row_by_row_scan(table):
    """The slot program's scan picks, in every column, the row a row-by-row scan picks."""
    want = [reference_scan(table[:, k].tolist()) for k in range(table.shape[1])]
    assert repr(_scan(table).tolist()) == repr(want), table


def test_simulated_rows_equal_the_scalar_references():
    """Every MG-slot of a 24-MG auction run is the scalar references' choice."""
    base = default_scenario(seed=5, horizon=24)
    mgs = tuple(
        dataclasses.replace(m, params=dataclasses.replace(m.params, id=k + 1))
        for k, m in enumerate(base.mgs * 4)
    )
    cfg = dataclasses.replace(base, mgs=mgs)
    _, records = run(cfg)
    params = {m.params.id: m.params for m in mgs}
    traded = 0
    for rec in records:
        for row in rows_of(rec, cfg.ids):
            p = params[row.mg_id]
            state = MGState(row.battery_kwh, row.demand_queue_kwh, row.delay_queue_kwh)
            ins = SlotInputs(row.renewable_kwh, row.di_load_kwh, row.dt_load_kwh, row.grid_price)
            trade = TradeAllocation(p.id, row.bought_kwh, row.sold_kwh, 0.0, 0.0)
            want = solve_slot_program(state, row.virtual_kwh, ins, trade, p)
            got = (row.charge_kwh, row.discharge_kwh, row.serve_kwh, row.grid_kwh)
            assert repr(got) == repr(tuple(want[:4])), row
            bid = (row.bid_sell_price, row.bid_buy_price, row.bid_sell_qty, row.bid_buy_qty)
            assert repr(bid) == repr(tuple(make_bids(state, ins, p)[1:])), row
            traded += row.bought_kwh > 0
    assert traded > 0
