"""Queue dynamics, derived constants, and feasibility checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtrade.errors import ConfigError, RejectedAction
from mgtrade.model import (
    FEAS_TOL,
    ControlAction,
    MGParams,
    MGState,
    PriceBounds,
    SlotInputs,
    battery_step,
    compute_a_const,
    compute_bounds,
    compute_v_max,
    check_action,
    delay_queue_step,
    demand_queue_step,
    fifo_serve,
    initial_state,
    virtual_battery,
    within,
)


def isclose_kwh(a: float, b: float, tol: float = FEAS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=tol)


def job_ages_ok(state: MGState, slot: int, delta_max: float) -> bool:
    """True when no pending job is older than the worst-case age bound."""
    return all(slot - arrival <= delta_max + FEAS_TOL for arrival, _ in state.pending_jobs)


def big_mg(**overrides) -> MGParams:
    base = dict(
        id=1,
        battery_capacity_kwh=3000.0,
        charge_rate_max_kwh=1500.0,
        discharge_rate_max_kwh=1500.0,
        serve_rate_max_kwh=1500.0,
        dt_load_max_kwh=400.0,
        epsilon=100.0,
        epsilon_max=100.0,
        price_floor=1.0,
        v_weight=10.0,
    )
    base.update(overrides)
    return MGParams(**base)


def state(b=0.0, q=0.0, z=0.0, jobs=()) -> MGState:
    return MGState(
        battery_kwh=b, demand_queue_kwh=q, delay_queue_kwh=z, pending_jobs=jobs
    )


def act(c=0.0, d=0.0, j=0.0, g=0.0, bought=0.0, sold=0.0) -> ControlAction:
    return ControlAction(c, d, j, g, bought, sold)


# ---------------------------------------------------------------- validation


def test_price_bounds_reject_inverted():
    with pytest.raises(ConfigError):
        PriceBounds(p_min=5.0, p_max=2.0)
    with pytest.raises(ConfigError):
        PriceBounds(p_min=-1.0, p_max=2.0)


def test_params_reject_negative_energy():
    with pytest.raises(ConfigError):
        big_mg(serve_rate_max_kwh=-1.0)


def test_params_reject_charge_rate_over_capacity():
    with pytest.raises(ConfigError):
        big_mg(battery_capacity_kwh=100.0, charge_rate_max_kwh=200.0)


def test_params_reject_epsilon_above_epsilon_max():
    with pytest.raises(ConfigError):
        big_mg(epsilon=5.0, epsilon_max=2.0)


def test_params_reject_nonpositive_v():
    with pytest.raises(ConfigError):
        big_mg(v_weight=0.0)


def test_slot_inputs_reject_negative():
    with pytest.raises(ConfigError):
        SlotInputs(renewable_kwh=-1.0, di_load_kwh=0.0, dt_load_kwh=0.0, grid_price=1.0)


def test_idle_action_is_all_zero():
    """The traded quantities default to zero, so four zeros make an idle action."""
    a = ControlAction(0.0, 0.0, 0.0, 0.0)
    assert a.bought_kwh == 0.0 and a.sold_kwh == 0.0


# ------------------------------------------------------------- battery queue


def test_battery_step_charges():
    p = big_mg()
    after = battery_step(state(b=100.0), act(c=50.0), p)
    assert after.battery_kwh == 150.0


def test_battery_step_identity_when_idle():
    p = big_mg()
    after = battery_step(state(b=100.0), act(), p)
    assert after.battery_kwh == 100.0


def test_battery_step_rejects_overflow():
    # headroom is 100 kWh, not the 1500 kWh rate
    p = big_mg()
    with pytest.raises(RejectedAction):
        battery_step(state(b=2900.0), act(c=200.0), p)


def test_battery_step_rejects_overdraw():
    p = big_mg()
    with pytest.raises(RejectedAction):
        battery_step(state(b=30.0), act(d=50.0), p)


def test_check_action_rejects_simultaneous_charge_discharge():
    with pytest.raises(RejectedAction):
        check_action(state(b=100.0), act(c=1.0, d=1.0), big_mg())


def test_check_action_rejects_negative_quantities():
    with pytest.raises(RejectedAction):
        check_action(state(), act(j=-2.0), big_mg())


# -------------------------------------------------------------- demand queue


def test_demand_queue_step_serves_and_arrives():
    s = state(q=10.0)
    after = demand_queue_step(s, act(j=4.0), inputs(dt=3.0), slot=0)
    assert after.demand_queue_kwh == 9.0


def test_demand_queue_step_clips_overserve():
    s = state(q=2.0)
    after = demand_queue_step(s, act(j=5.0), inputs(dt=0.0), slot=0)
    assert after.demand_queue_kwh == 0.0


def test_demand_queue_step_pure_arrival():
    after = demand_queue_step(state(), act(), inputs(dt=7.0), slot=3)
    assert after.demand_queue_kwh == 7.0
    assert after.pending_jobs == ((3, 7.0),)


def inputs(r=0.0, di=0.0, dt=0.0, price=1.0) -> SlotInputs:
    return SlotInputs(renewable_kwh=r, di_load_kwh=di, dt_load_kwh=dt, grid_price=price)


def test_fifo_serve_oldest_first():
    kept = fifo_serve(((0, 5.0), (1, 3.0)), 6.0)
    assert len(kept) == 1
    assert kept[0][0] == 1
    assert math.isclose(kept[0][1], 2.0)


def test_fifo_serve_nothing():
    assert fifo_serve(((2, 4.0),), 0.0) == ((2, 4.0),)


def test_fifo_serve_everything():
    assert fifo_serve(((0, 1.0), (1, 2.0), (2, 3.0)), 10.0) == ()


@given(
    steps=st.lists(
        st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 15.0)), min_size=1, max_size=30
    )
)
@settings(max_examples=200)
def test_backlog_always_equals_pending_jobs(steps):
    """The aggregate Q and the job FIFO are two views of the same backlog."""
    s = state()
    for t, (j, dt) in enumerate(steps):
        s = demand_queue_step(s, act(j=j), inputs(dt=dt), slot=t)
        pending = sum(r for _, r in s.pending_jobs)
        assert math.isclose(s.demand_queue_kwh, pending, abs_tol=1e-6)
        assert s.demand_queue_kwh >= 0.0


# --------------------------------------------------------------- delay queue


def test_delay_queue_grows_while_backlogged():
    p = big_mg(epsilon=1.0, epsilon_max=1.0)
    after = delay_queue_step(state(q=3.0, z=5.0), act(j=2.0), p)
    assert after.delay_queue_kwh == 4.0


def test_delay_queue_idle_when_backlog_empty():
    p = big_mg(epsilon=1.0, epsilon_max=1.0)
    after = delay_queue_step(state(q=0.0, z=5.0), act(j=2.0), p)
    assert after.delay_queue_kwh == 3.0


def test_delay_queue_growth_from_zero():
    p = big_mg(epsilon=2.0, epsilon_max=2.0)
    after = delay_queue_step(state(q=1.0, z=0.0), act(), p)
    assert after.delay_queue_kwh == 2.0


def test_delay_queue_reads_pre_arrival_backlog():
    # order matters: the indicator must see Q before this slot's arrival
    p = big_mg(epsilon=2.0, epsilon_max=2.0)
    s = state(q=0.0, z=0.0)
    s = delay_queue_step(s, act(), p)
    s = demand_queue_step(s, act(), inputs(dt=9.0), slot=0)
    assert s.delay_queue_kwh == 0.0  # backlog was empty when the slot started
    s2 = delay_queue_step(s, act(), p)
    assert s2.delay_queue_kwh == 2.0


# ---------------------------------------------------------- derived constants


def test_a_const_mixed():
    p = big_mg(
        battery_capacity_kwh=100.0,
        charge_rate_max_kwh=3.0,
        discharge_rate_max_kwh=5.0,
        serve_rate_max_kwh=4.0,
        dt_load_max_kwh=6.0,
        epsilon=2.0,
        epsilon_max=2.0,
    )
    assert compute_a_const(p) == 48.5


def test_a_const_zero_rates():
    p = big_mg(
        charge_rate_max_kwh=0.0,
        discharge_rate_max_kwh=0.0,
        serve_rate_max_kwh=0.0,
        dt_load_max_kwh=0.0,
        epsilon=0.0,
        epsilon_max=0.0,
    )
    assert compute_a_const(p) == 0.0


def test_a_const_unit_rates():
    p = big_mg(
        battery_capacity_kwh=100.0,
        charge_rate_max_kwh=1.0,
        discharge_rate_max_kwh=1.0,
        serve_rate_max_kwh=1.0,
        dt_load_max_kwh=1.0,
        epsilon=1.0,
        epsilon_max=1.0,
    )
    assert compute_a_const(p) == 2.5


def test_v_max_reference_values():
    p = big_mg(
        battery_capacity_kwh=3000.0,
        dt_load_max_kwh=400.0,
        epsilon_max=100.0,
        epsilon=100.0,
    )
    assert compute_v_max(p, PriceBounds(0.02, 0.1)) == pytest.approx(31250.0)

    small = big_mg(
        battery_capacity_kwh=10.0,
        charge_rate_max_kwh=5.0,
        discharge_rate_max_kwh=5.0,
        serve_rate_max_kwh=5.0,
        dt_load_max_kwh=2.0,
        epsilon=1.0,
        epsilon_max=2.0,
        v_weight=6.0,
    )
    assert compute_v_max(small, PriceBounds(1.0, 2.0)) == pytest.approx(6.0)


def test_v_max_rejects_battery_too_small():
    p = big_mg(battery_capacity_kwh=500.0, charge_rate_max_kwh=400.0,
               dt_load_max_kwh=400.0, epsilon_max=100.0)
    with pytest.raises(ConfigError):
        compute_v_max(p, PriceBounds(1.0, 2.0))


def test_v_max_rejects_flat_prices():
    with pytest.raises(ConfigError):
        compute_v_max(big_mg(), PriceBounds(3.0, 3.0))


def test_bounds_reference_values():
    p = big_mg(
        battery_capacity_kwh=10.0,
        charge_rate_max_kwh=5.0,
        discharge_rate_max_kwh=5.0,
        serve_rate_max_kwh=5.0,
        dt_load_max_kwh=2.0,
        epsilon=1.0,
        epsilon_max=2.0,
        v_weight=6.0,
    )
    db = compute_bounds(p, PriceBounds(1.0, 2.0))
    assert db.q_max == pytest.approx(14.0)
    assert db.z_max == pytest.approx(14.0)
    assert db.theta == pytest.approx(16.0)
    assert db.delta_max_slots == pytest.approx(28.0)
    assert db.v_max == pytest.approx(6.0)


def test_bounds_reject_v_above_v_max():
    p = big_mg(
        battery_capacity_kwh=10.0,
        charge_rate_max_kwh=5.0,
        discharge_rate_max_kwh=5.0,
        serve_rate_max_kwh=5.0,
        dt_load_max_kwh=2.0,
        epsilon=1.0,
        epsilon_max=2.0,
        v_weight=6.5,
    )
    with pytest.raises(ConfigError):
        compute_bounds(p, PriceBounds(1.0, 2.0))


def test_bounds_small_v_limit():
    # as V -> 0 the queue ceiling collapses onto the per-slot arrival peak
    p = big_mg(
        battery_capacity_kwh=10.0,
        charge_rate_max_kwh=5.0,
        discharge_rate_max_kwh=5.0,
        serve_rate_max_kwh=5.0,
        dt_load_max_kwh=2.0,
        epsilon=1.0,
        epsilon_max=2.0,
        v_weight=1e-9,
    )
    db = compute_bounds(p, PriceBounds(1.0, 2.0))
    assert db.q_max == pytest.approx(2.0, abs=1e-6)


def test_bounds_reject_zero_epsilon():
    p = big_mg(
        battery_capacity_kwh=10.0,
        charge_rate_max_kwh=5.0,
        discharge_rate_max_kwh=5.0,
        serve_rate_max_kwh=5.0,
        dt_load_max_kwh=2.0,
        epsilon=0.0,
        epsilon_max=2.0,
        v_weight=1.0,
    )
    with pytest.raises(ConfigError):
        compute_bounds(p, PriceBounds(1.0, 2.0))


params_strategy = st.builds(
    lambda cap, rates, dt, eps, v: big_mg(
        battery_capacity_kwh=cap + dt + eps + 1.0,
        charge_rate_max_kwh=min(rates, cap + dt + eps + 1.0),
        discharge_rate_max_kwh=rates,
        serve_rate_max_kwh=rates,
        dt_load_max_kwh=dt,
        epsilon=eps,
        epsilon_max=eps,
        v_weight=v,
    ),
    cap=st.floats(1.0, 500.0),
    rates=st.floats(0.0, 200.0),
    dt=st.floats(0.0, 50.0),
    eps=st.floats(0.1, 20.0),
    v=st.floats(0.01, 0.5),
)


@given(p=params_strategy)
def test_theta_ties_the_ceilings_together(p):
    db = compute_bounds(p, PriceBounds(1.0, 2.0))
    assert math.isclose(db.theta, db.q_max + p.epsilon_max, rel_tol=1e-12)
    assert math.isclose(db.theta, db.z_max + p.dt_load_max_kwh, rel_tol=1e-12)


# --------------------------------------------------------------- fresh state


def test_initial_state_hits_zero_virtual_when_it_fits():
    p = big_mg(
        battery_capacity_kwh=10.0,
        charge_rate_max_kwh=5.0,
        discharge_rate_max_kwh=1.0,
        serve_rate_max_kwh=5.0,
        dt_load_max_kwh=2.0,
        epsilon=1.0,
        epsilon_max=2.0,
        v_weight=0.5,
    )
    db = compute_bounds(p, PriceBounds(1.0, 2.0))
    s = initial_state(p, db)
    # theta + D_max = 0.5*2 + 2 + 2 + 1 = 6 fits inside the 10 kWh battery
    assert s.battery_kwh == pytest.approx(6.0)
    assert virtual_battery(s.battery_kwh, p, db) == pytest.approx(0.0)


def test_initial_state_clamps_to_capacity():
    p = big_mg(
        battery_capacity_kwh=10.0,
        charge_rate_max_kwh=5.0,
        discharge_rate_max_kwh=5.0,
        serve_rate_max_kwh=5.0,
        dt_load_max_kwh=2.0,
        epsilon=1.0,
        epsilon_max=2.0,
        v_weight=6.0,
    )
    db = compute_bounds(p, PriceBounds(1.0, 2.0))
    s = initial_state(p, db)
    assert s.battery_kwh == 10.0
    assert virtual_battery(s.battery_kwh, p, db) == pytest.approx(10.0 - 16.0 - 5.0)


def test_initial_state_rejects_out_of_range_battery():
    p = big_mg()
    db = compute_bounds(p, PriceBounds(2.0, 16.0))
    with pytest.raises(ConfigError):
        initial_state(p, db, battery_kwh=-5.0)
    with pytest.raises(ConfigError):
        initial_state(p, db, battery_kwh=4000.0)


def test_virtual_range_brackets_initial_state():
    p = big_mg()
    db = compute_bounds(p, PriceBounds(2.0, 16.0))
    # X over the battery range [0, capacity]
    lo, hi = (virtual_battery(b, p, db) for b in (0.0, p.battery_capacity_kwh))
    s = initial_state(p, db)
    assert lo <= virtual_battery(s.battery_kwh, p, db) <= hi
    assert hi - lo == pytest.approx(p.battery_capacity_kwh)


# ------------------------------------------------------------------- helpers


def test_within_and_isclose_tolerances():
    assert within(1.0 + 5e-10, 0.0, 1.0)
    assert not within(1.1, 0.0, 1.0)
    assert isclose_kwh(1.0, 1.0 + FEAS_TOL / 2)
    assert not isclose_kwh(1.0, 1.01)


def test_job_ages_ok_flags_stale_jobs():
    s = state(jobs=((0, 1.0), (4, 2.0)))
    assert job_ages_ok(s, slot=5, delta_max=5.0)
    assert not job_ages_ok(s, slot=8, delta_max=5.0)
    # the FIFO is ordered by arrival, so the oldest job decides: the one
    # check the simulator's monitor makes agrees with the full scan
    for slot in range(4, 12):
        ok = s.oldest_pending_age(slot) <= 5.0 + FEAS_TOL
        assert ok == job_ages_ok(s, slot=slot, delta_max=5.0)


def test_oldest_pending_age():
    s = state(jobs=((3, 1.0),))
    assert s.oldest_pending_age(10) == 7
    assert state().oldest_pending_age(10) == 0
