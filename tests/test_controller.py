"""Bid construction and the per-slot drift-plus-penalty program."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtrade.controller import (
    BidPair,
    TradeAllocation,
    make_bids,
    marginal_value,
    post_trade_settlement,
    solve_slot_program,
    spilled_kwh,
)
from mgtrade.errors import MarketError
from mgtrade.model import (
    ControlAction,
    MGParams,
    MGState,
    SlotInputs,
    check_action,
)

from oracles import (
    brute_force_slot_objective,
    slot_objective,
    slot_objective_with_settlement,
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


def test_bid_pair_rejects_negative_price():
    with pytest.raises(MarketError):
        BidPair(1, sell_price=-1.0, buy_price=0.0, sell_quantity_kwh=1.0, buy_quantity_kwh=0.0)


def test_bid_pair_rejects_two_sided():
    with pytest.raises(MarketError):
        BidPair(1, sell_price=1.0, buy_price=1.0, sell_quantity_kwh=1.0, buy_quantity_kwh=1.0)


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
    assert spilled_kwh(ins, action) >= -1e-9


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


def test_settlement_examples():
    g = ControlAction(0.0, 0.0, 0.0, 100.0)
    assert post_trade_settlement(g, NO_TRADE, inputs(price=0.05)) == pytest.approx(5.0)

    buy = TradeAllocation(1, 50.0, 0.0, 2.0, 0.0)
    a = ControlAction(0.0, 0.0, 0.0, 0.0, bought_kwh=50.0)
    assert post_trade_settlement(a, buy, inputs(price=1.0)) == pytest.approx(100.0)

    sell = TradeAllocation(1, 0.0, 80.0, 0.0, 1.5)
    a = ControlAction(0.0, 0.0, 0.0, 0.0, sold_kwh=80.0)
    assert post_trade_settlement(a, sell, inputs(price=1.0)) == pytest.approx(-120.0)


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
