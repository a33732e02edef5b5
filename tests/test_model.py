"""Queue dynamics, derived constants, and feasibility checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtrade.errors import ConfigError, RejectedAction
from mgtrade.model import (
    FEAS_TOL,
    ControlAction,
    Fleet,
    MGParams,
    PriceBounds,
    SlotInputs,
    battery_step,
    compute_a_const,
    compute_bounds,
    compute_v_max,
    check_action,
    delay_queue_step,
    demand_queue_step,
    initial_battery,
    oldest_pending_age,
    virtual_battery,
)
from mgtrade.sim import _monitor

from columnar import fleet_of
from oracles import MGState, fifo_serve, reference_check_action, reference_monitor, within


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


def col(*values) -> np.ndarray:
    """A column of one entry per MG."""
    return np.array(values, dtype=float)


def act(c=0.0, d=0.0, j=0.0, g=0.0, bought=0.0, sold=0.0) -> ControlAction:
    """One MG's action, as the columns the queue functions take."""
    return ControlAction(*map(col, (c, d, j, g, bought, sold)))


def arrivals(*dt: float) -> np.ndarray:
    """One MG's arrival prefix sums, from its work arriving in each slot."""
    return np.cumsum(dt)[:, None]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["renewable_kwh", "di_load_kwh", "dt_load_kwh", "grid_price"])
def test_slot_inputs_reject_non_finite(name, bad):
    """NaN and inf are rejected in each field, which the message names."""
    inputs = {"renewable_kwh": [[1.0]], "di_load_kwh": [[1.0]], "dt_load_kwh": [[1.0]],
              "grid_price": [2.0]}
    inputs[name] = [[bad]] if name != "grid_price" else [bad]
    with pytest.raises(ConfigError, match=f"slot input {name} must be finite"):
        SlotInputs(**inputs)


def test_idle_action_is_all_zero():
    """The traded quantities default to zero, so four zeros make an idle action."""
    a = ControlAction(0.0, 0.0, 0.0, 0.0)
    assert a.bought_kwh == 0.0 and a.sold_kwh == 0.0


# ------------------------------------------------------------- battery queue


def test_battery_step_charges():
    p = big_mg()
    after = battery_step(col(100.0), act(c=50.0), fleet_of([p]))
    assert after[0] == 150.0


def test_battery_step_identity_when_idle():
    p = big_mg()
    after = battery_step(col(100.0), act(), fleet_of([p]))
    assert after[0] == 100.0


def test_battery_step_rejects_overflow():
    # headroom is 100 kWh, not the 1500 kWh rate
    p = big_mg()
    with pytest.raises(RejectedAction):
        battery_step(col(2900.0), act(c=200.0), fleet_of([p]))


def test_battery_step_rejects_overdraw():
    p = big_mg()
    with pytest.raises(RejectedAction):
        battery_step(col(30.0), act(d=50.0), fleet_of([p]))


def test_check_action_rejects_simultaneous_charge_discharge():
    with pytest.raises(RejectedAction):
        check_action(col(100.0), act(c=1.0, d=1.0), fleet_of([big_mg()]))


def test_check_action_rejects_negative_quantities():
    with pytest.raises(RejectedAction):
        check_action(col(0.0), act(j=-2.0), fleet_of([big_mg()]))


def test_check_action_names_the_first_offending_mg():
    ids = [big_mg(id=k) for k in (4, 5, 6)]
    action = ControlAction(col(0.0, 1.0, 5.0), col(0.0, 1.0, 0.0), col(0.0, 0.0, -1.0),
                           col(0.0, 0.0, 0.0))
    with pytest.raises(RejectedAction, match="^mg 5: charge 1.0 and discharge 1.0 both"):
        check_action(col(100.0, 100.0, 100.0), action, fleet_of(ids))


# an entry at or next to a constraint's edge: zeros of either sign, FEAS_TOL, NaN
EDGES = (0.0, -0.0, FEAS_TOL, -FEAS_TOL, 2 * FEAS_TOL, -2 * FEAS_TOL, math.nan, 1.0, -1.0)


def near(value: float):
    """``value`` itself, the next float either side of it, or an edge entry."""
    return st.one_of(
        st.sampled_from([value, np.nextafter(value, math.inf), np.nextafter(value, -math.inf)]),
        st.sampled_from(EDGES), st.floats(-3.0, 3.0),
    )


@st.composite
def checked_actions(draw):
    """Columns of battery levels, bounds and actions whose entries sit on the edges
    of `check_action`'s constraints: a charge or discharge at its cap plus FEAS_TOL
    or an ulp past it, and every quantity at +-FEAS_TOL, -0.0 or NaN."""
    cells = []
    for _ in range(draw(st.integers(1, 5))):
        cap, c_max, d_max = (draw(st.sampled_from([0.0, 1.0, 2.5, math.nan])) for _ in range(3))
        b = draw(st.one_of(st.sampled_from([0.0, -0.0, cap, 1.0]), st.floats(-0.5, 3.0)))
        charge_cap, discharge_cap = min(cap - b, c_max), min(b, d_max)
        c, d = draw(near(charge_cap + FEAS_TOL)), draw(near(discharge_cap + FEAS_TOL))
        cells.append((b, cap, c_max, d_max, c, d, draw(near(-FEAS_TOL)), draw(near(-FEAS_TOL))))
    b, cap, c_max, d_max, c, d, j, g = map(np.array, zip(*cells))
    zeros = np.zeros(len(b))
    fleet = Fleet(np.arange(7, 7 + len(b)), cap, c_max, d_max, *[zeros] * 8)
    return b, ControlAction(c, d, j, g, zeros, zeros), fleet


def rejection(check, *args) -> tuple[str, int] | None:
    """The message and fleet position a check rejects its arguments with, if it does."""
    try:
        check(*args)
    except RejectedAction as e:
        return str(e), e.at
    return None


@given(case=checked_actions())
@settings(max_examples=400, deadline=None)
def test_check_action_rejects_as_the_per_constraint_table(case):
    """The fused test raises exactly when the whole (constraint, MG) table has a
    broken entry, naming the same first MG and its first broken constraint."""
    assert rejection(check_action, *case) == rejection(reference_check_action, *case), case


@st.composite
def monitored_slots(draw):
    """A slot's end of one to three runs: battery levels, queues, spills and job
    ages at or an ulp past their bounds plus FEAS_TOL, at -0.0 or NaN."""
    runs, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = []
    for _ in range(runs * n):
        cap, q_max, z_max = (draw(st.sampled_from([0.0, 1.0, 2.5, math.nan])) for _ in range(3))
        age_max = draw(st.sampled_from([0.0, 3.0, 3.5, 1e9, math.nan]))
        b = draw(st.one_of(near(cap + FEAS_TOL), near(-FEAS_TOL)))
        q, z = draw(near(q_max + FEAS_TOL)), draw(near(z_max + FEAS_TOL))
        cells.append((cap, q_max, z_max, age_max, b, q, z, draw(near(-FEAS_TOL)),
                      draw(st.integers(0, 5))))
    cap, q_max, z_max, age_max, b, q, z, spill, age = map(np.array, zip(*cells))
    zeros = np.zeros(len(cap))
    fleet = Fleet(np.arange(3, 3 + len(cap)), cap, *[zeros] * 7, q_max, z_max, age_max)
    return draw(st.integers(0, 9)), fleet, b, q, z, spill, age, runs


@given(case=monitored_slots())
@settings(max_examples=400, deadline=None)
def test_monitor_reports_as_the_per_constraint_table(case):
    """The fused test reports, run by run, the violations the whole (bound, MG)
    table names, in the same words and order."""
    assert _monitor(*case) == reference_monitor(*case), case


# -------------------------------------------------------------- demand queue


def test_demand_queue_step_serves_and_arrives():
    after = demand_queue_step(col(10.0), col(4.0), col(3.0))
    assert after[0] == 9.0


def test_demand_queue_step_clips_overserve():
    after = demand_queue_step(col(2.0), col(5.0), col(0.0))
    assert after[0] == 0.0


def test_demand_queue_step_pure_arrival():
    after = demand_queue_step(col(0.0), col(0.0), col(7.0))
    assert after[0] == 7.0
    # the only pending job: 7 kWh from slot 3, one slot old at slot 4
    arrived = arrivals(0.0, 0.0, 0.0, 7.0)
    assert oldest_pending_age(arrived, col(0.0), 4)[0] == 1
    assert arrived[-1, 0] - 0.0 == 7.0


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
    """The aggregate Q and the arrived-minus-served work are two views of one backlog.

    The slot program never serves more than the backlog, so neither does this.
    """
    q, served, arrived = col(0.0), col(0.0), 0.0
    for j, dt in steps:
        j = np.minimum(j, q)
        q = demand_queue_step(q, j, col(dt))
        served = served + j
        arrived += dt
        assert math.isclose(q[0], arrived - served[0], abs_tol=1e-6)
        assert q[0] >= 0.0


# --------------------------------------------------------------- delay queue


def test_delay_queue_grows_while_backlogged():
    p = fleet_of([big_mg(epsilon=1.0, epsilon_max=1.0)])
    after = delay_queue_step(col(5.0), col(3.0), col(2.0), p)
    assert after[0] == 4.0


def test_delay_queue_idle_when_backlog_empty():
    p = fleet_of([big_mg(epsilon=1.0, epsilon_max=1.0)])
    after = delay_queue_step(col(5.0), col(0.0), col(2.0), p)
    assert after[0] == 3.0


def test_delay_queue_growth_from_zero():
    p = fleet_of([big_mg(epsilon=2.0, epsilon_max=2.0)])
    after = delay_queue_step(col(0.0), col(1.0), col(0.0), p)
    assert after[0] == 2.0


def test_delay_queue_reads_pre_arrival_backlog():
    # order matters: the indicator must see Q before this slot's arrival
    p = fleet_of([big_mg(epsilon=2.0, epsilon_max=2.0)])
    q, z = col(0.0), col(0.0)
    z = delay_queue_step(z, q, col(0.0), p)
    q = demand_queue_step(q, col(0.0), col(9.0))
    assert z[0] == 0.0  # backlog was empty when the slot started
    z2 = delay_queue_step(z, q, col(0.0), p)
    assert z2[0] == 2.0


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
    b0 = initial_battery(p, db)
    # theta + D_max = 0.5*2 + 2 + 2 + 1 = 6 fits inside the 10 kWh battery
    assert b0 == pytest.approx(6.0)
    assert virtual_battery(b0, p, db) == pytest.approx(0.0)


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
    b0 = initial_battery(p, db)
    assert b0 == 10.0
    assert virtual_battery(b0, p, db) == pytest.approx(10.0 - 16.0 - 5.0)


def test_initial_state_rejects_out_of_range_battery():
    p = big_mg()
    db = compute_bounds(p, PriceBounds(2.0, 16.0))
    with pytest.raises(ConfigError):
        initial_battery(p, db, battery_kwh=-5.0)
    with pytest.raises(ConfigError):
        initial_battery(p, db, battery_kwh=4000.0)


def test_virtual_range_brackets_initial_state():
    p = big_mg()
    db = compute_bounds(p, PriceBounds(2.0, 16.0))
    # X over the battery range [0, capacity]
    lo, hi = (virtual_battery(b, p, db) for b in (0.0, p.battery_capacity_kwh))
    b0 = initial_battery(p, db)
    assert lo <= virtual_battery(b0, p, db) <= hi
    assert hi - lo == pytest.approx(p.battery_capacity_kwh)


# ------------------------------------------------------------------- helpers


def test_within_and_isclose_tolerances():
    assert within(1.0 + 5e-10, 0.0, 1.0)
    assert not within(1.1, 0.0, 1.0)
    assert isclose_kwh(1.0, 1.0 + FEAS_TOL / 2)
    assert not isclose_kwh(1.0, 1.01)


def test_job_ages_ok_flags_stale_jobs():
    s = MGState(0.0, 3.0, 0.0, ((0, 1.0), (4, 2.0)))
    assert job_ages_ok(s, slot=5, delta_max=5.0)
    assert not job_ages_ok(s, slot=8, delta_max=5.0)
    # jobs are served in arrival order, so the oldest job decides: the one
    # check the simulator's monitor makes agrees with the full scan
    arrived = arrivals(1.0, 0.0, 0.0, 0.0, 2.0, *[0.0] * 7)
    for slot in range(4, 12):
        ok = oldest_pending_age(arrived, col(0.0), slot)[0] <= 5.0 + FEAS_TOL
        assert ok == job_ages_ok(s, slot=slot, delta_max=5.0)


def test_oldest_pending_age():
    arrived = arrivals(*[0.0] * 3, 1.0, *[0.0] * 6)
    assert oldest_pending_age(arrived, col(0.0), 10)[0] == 7
    assert oldest_pending_age(arrived * 0.0, col(0.0), 10)[0] == 0


# ------------------------------------------------ the FIFO, derived from sums
#
# The simulator stores no job FIFO. With A_k the work arrived by the end of
# slot k and S the work served so far, it takes the oldest pending job to be
# the first k with A_k > S + FEAS_TOL (`oldest_pending_age`). The reference
# `fifo_serve` drains jobs one by one and counts a job done once the serve
# left for it is within FEAS_TOL of it. In exact arithmetic:
#
# * Let C be the FIFO's consumption, the sum of the jobs it removed and of
#   its partial serves. Its head is the first job with A_k > C: every removed
#   job ends at or below C, and the job it stopped in ends above it.
# * A slot's serve s moves C by s - R, where R is what the FIFO leaves of s.
#   R = 0 when the slot ends inside a job (a partial serve), and |R| <=
#   FEAS_TOL when it ends within FEAS_TOL of a job boundary. So C - S is
#   minus the sum of those leftovers.
# * Hence the rules name different jobs only when some A_k lies between C
#   and S + FEAS_TOL. If every serve ends within FEAS_TOL/2 of a boundary or
#   more than 3*FEAS_TOL inside a job, every leftover keeps |C - S| <=
#   FEAS_TOL/2, and the rules agree: a job ended within FEAS_TOL/2 is done
#   under both, and the job a serve stops in is pending under both.
#
# Float rounding moves these margins by a few ulps of the sums, far below
# FEAS_TOL at the sizes tested here.


@st.composite
def serve_sequences(draw, landing: float):
    """Arrivals per slot and serves whose running sum lands near job boundaries.

    Each slot serves nothing, or up to within ``landing`` of a job boundary
    (exactly on it included), or to a point more than 3.5*FEAS_TOL inside a
    job. Only work that arrived before the slot is served.
    """
    dts = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 50.0)), min_size=2, max_size=30))
    bounds = np.cumsum(dts).tolist()
    serves, served = [], 0.0
    for t in range(len(dts)):
        ahead = [a for a in bounds[:t] if a > served + 4 * FEAS_TOL]
        kind = draw(st.sampled_from(["none", "boundary", "inside"])) if ahead else "none"
        target = served
        if kind == "boundary":
            offset = draw(st.one_of(st.just(0.0), st.floats(-landing, landing)))
            target = draw(st.sampled_from(ahead)) + offset
        elif kind == "inside":
            end = draw(st.sampled_from(ahead))
            start = max([a for a in bounds[:t] if a < end] + [0.0, served])
            if end - start > 8 * FEAS_TOL:
                share = draw(st.floats(0.0, 1.0))
                target = start + 3.5 * FEAS_TOL + share * (end - start - 7 * FEAS_TOL)
        serve = max(target - served, 0.0)
        serves.append(serve)
        served += serve
    return dts, serves


def fifo_and_prefix_heads(dts, serves):
    """Per slot: the FIFO's oldest age, the prefix rule's, the FIFO's consumption C and S."""
    pending: tuple = ()
    arrived = np.cumsum(dts)[:, None]
    served = 0.0
    for t, (dt, serve) in enumerate(zip(dts, serves)):
        pending = fifo_serve(pending, serve)
        if dt > 0:
            pending = pending + ((t, dt),)
        served += serve
        fifo_age = MGState(0.0, 0.0, 0.0, pending).oldest_pending_age(t + 1)
        prefix_age = int(oldest_pending_age(arrived, col(served), t + 1)[0])
        consumed = arrived[t, 0] - sum(r for _, r in pending)
        yield t, fifo_age, prefix_age, consumed, served


@given(seq=serve_sequences(landing=0.45 * FEAS_TOL))
@settings(max_examples=400, deadline=None)
def test_prefix_sum_age_names_the_fifo_head(seq):
    """Serves ending within FEAS_TOL/2 of a boundary or well inside a job: same age."""
    for t, fifo_age, prefix_age, _, _ in fifo_and_prefix_heads(*seq):
        assert prefix_age == fifo_age, t


@given(seq=serve_sequences(landing=FEAS_TOL))
@settings(max_examples=400, deadline=None)
def test_prefix_sum_age_differs_only_across_the_fifo_drift(seq):
    """Serves ending anywhere within FEAS_TOL of a boundary: ages differ only
    where an arrival prefix sum lies between the FIFO's consumption and S + FEAS_TOL."""
    arrived = np.cumsum(seq[0])
    for t, fifo_age, prefix_age, consumed, served in fifo_and_prefix_heads(*seq):
        if prefix_age != fifo_age:
            lo, hi = sorted((consumed, served + FEAS_TOL))
            rounding = 1e-12 * (1.0 + arrived[t])
            between = (arrived[: t + 1] > lo - rounding) & (arrived[: t + 1] <= hi + rounding)
            assert between.any(), t


def test_a_serve_short_of_a_boundary_by_under_feas_tol_finishes_the_job():
    """5 kWh arrives in slot 0; slot 1 serves 0.5e-9 kWh less: the job is done."""
    dts, serves = [5.0, 0.0, 2.0], [0.0, 5.0 - 0.5e-9, 0.0]
    ages = [(f, p) for _, f, p, _, _ in fifo_and_prefix_heads(dts, serves)]
    assert ages == [(1, 1), (0, 0), (1, 1)]
