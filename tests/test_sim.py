"""Slot stepping, full runs, the clairvoyant oracle, and log verification."""

import dataclasses
import math
from pathlib import Path
from statistics import mean

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgtrade.errors import ConfigError, ParseError, SimError
from mgtrade.logs import (
    SLOTS_HEADER,
    audit_rows,
    bound_audit,
    read_slots_csv,
    verify_log_rows,
    write_slots_csv,
)
from mgtrade.model import (
    MODE_AUCTION,
    MODE_SOLO,
    LoadModel,
    MGParams,
    MGSpec,
    PriceBounds,
    ScenarioConfig,
    SlotInputs,
    compute_v_max,
    initial_battery,
    mg_subseed,
    virtual_battery,
)
from mgtrade.sim import (
    World,
    build_traces,
    offline_oracle,
    realized_inputs,
    run,
    simulate,
    simulate_runs,
    step,
    summarize,
)

from oracles import (
    brute_force_two_slot_cost,
    reference_offline_oracle,
    reference_sparse_oracle,
)

PB = PriceBounds(2.0, 16.0)


def small_params(mg_id: int, v_weight: float | None = None, **overrides) -> MGParams:
    base = dict(
        id=mg_id,
        battery_capacity_kwh=300.0,
        charge_rate_max_kwh=150.0,
        discharge_rate_max_kwh=150.0,
        serve_rate_max_kwh=150.0,
        dt_load_max_kwh=20.0,
        epsilon=10.0,
        epsilon_max=10.0,
        price_floor=1.0,
        v_weight=1.0,
    )
    base.update(overrides)
    p = MGParams(**base)
    if v_weight is None:
        v_weight = compute_v_max(p, PB)
    return dataclasses.replace(p, v_weight=v_weight)


def small_scenario(mode=MODE_SOLO, seed=0, horizon=20, n_mgs=2) -> ScenarioConfig:
    mgs = tuple(
        MGSpec(
            params=small_params(k + 1),
            load_model=LoadModel("type1", 10.0, 20.0, rng_seed=mg_subseed(seed, k)),
            renewable_mean_kwh=25.0,
        )
        for k in range(n_mgs)
    )
    return ScenarioConfig(
        mgs=mgs,
        price_bounds=PB,
        horizon_slots=horizon,
        rho1=1000.0,
        rho2=1e-4,
        mode=mode,
        seed=seed,
    )


# ------------------------------------------------------------- configuration


def test_config_rejects_bad_mode():
    with pytest.raises(ConfigError):
        dataclasses.replace(small_scenario(), mode="sometimes")


def test_config_rejects_duplicate_ids():
    cfg = small_scenario()
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, mgs=(cfg.mgs[0], cfg.mgs[0]))


def test_config_rejects_undersized_dt_load_max():
    mg = MGSpec(
        params=small_params(1, dt_load_max_kwh=5.0),
        load_model=LoadModel("type1", 10.0, 20.0, rng_seed=0),  # draws up to 20
        renewable_mean_kwh=25.0,
    )
    with pytest.raises(ConfigError):
        ScenarioConfig(
            mgs=(mg,), price_bounds=PB, horizon_slots=5,
            rho1=1.0, rho2=1.0, mode=MODE_SOLO, seed=0,
        )


def test_config_rejects_nonpositive_weights():
    with pytest.raises(ConfigError):
        dataclasses.replace(small_scenario(), rho1=0.0)


def test_mg_subseed_distinct():
    seeds = {mg_subseed(s, k) for s in range(20) for k in range(6)}
    assert len(seeds) == 120


# -------------------------------------------------------------------- traces


def test_build_traces_shapes_and_means():
    cfg = small_scenario(horizon=240)
    traces = build_traces(cfg)
    assert len(traces.prices.values) == 240
    assert len(traces.renewables) == 2
    for tr in traces.renewables:
        assert len(tr.values) == 240
        assert mean(tr.values) == pytest.approx(25.0, rel=1e-12)


def test_realized_inputs_share_the_grid_price():
    cfg = small_scenario(horizon=12)
    traces = build_traces(cfg)
    inputs = realized_inputs(cfg, traces)
    assert len(inputs) == 12
    assert inputs.grid_price.tolist() == list(traces.prices.values[:12])


def test_realized_inputs_rejects_short_traces():
    cfg = small_scenario(horizon=30)
    traces = build_traces(dataclasses.replace(cfg, horizon_slots=10))
    with pytest.raises(ConfigError):
        realized_inputs(cfg, traces)


# ------------------------------------------------------------------- stepping


def idle_band_config() -> ScenarioConfig:
    """Price band starting at zero so an all-zero slot is representable."""
    pb = PriceBounds(0.0, 1.0)
    mgs = []
    for k in (1, 2):
        probe = small_params(k, v_weight=1.0)
        v = 0.2 * compute_v_max(probe, pb)
        mgs.append(
            MGSpec(
                params=dataclasses.replace(probe, v_weight=v),
                load_model=LoadModel("type1", 0.0, 0.0, rng_seed=k),
                renewable_mean_kwh=1.0,
            )
        )
    return ScenarioConfig(
        mgs=tuple(mgs), price_bounds=pb, horizon_slots=4,
        rho1=1000.0, rho2=1e-4, mode=MODE_AUCTION, seed=0,
    )


def slots(*rows) -> SlotInputs:
    """Inputs from one tuple per slot of each MG's (R, I, T, P); a slot's MGs share P."""
    r, di, dt, price = np.array(rows, dtype=float).transpose(2, 0, 1)
    assert (price == price[:, :1]).all(), "one grid price per slot"
    return SlotInputs(r, di, dt, price[:, 0])


def test_step_all_zero_slot_is_free():
    cfg = idle_band_config()
    world = World.initial(cfg)
    zeros = slots([(0.0, 0.0, 0.0, 0.0)] * 2)
    after, (rec,) = step(world, zeros)
    assert rec.market.volume_kwh == 0.0
    for row in rec.rows:
        assert row.cost == 0.0
        assert row.charge_kwh == row.discharge_kwh == row.serve_kwh == 0.0
        assert row.grid_kwh == 0.0
    assert rec.violations == ()
    for queue in ("battery_kwh", "demand_queue_kwh", "delay_queue_kwh", "served_kwh"):
        assert (getattr(after, queue) == getattr(world, queue)).all()
    assert after.slot == 1


def test_step_rejects_wrong_input_count():
    cfg = small_scenario()
    with pytest.raises(SimError):
        step(World.initial(cfg), slots([(0, 0, 0, 2.0)]))


def test_slot_inputs_take_one_grid_price_per_slot():
    """Every MG pays the slot's one grid price: a (slots,) column, nothing else."""
    loads = np.zeros((1, 2))  # one slot, two MGs
    assert SlotInputs(loads, loads, loads, [2.0]).grid_price.tolist() == [2.0]
    for price in ([[2.0, 2.0]], [2.0, 3.0], []):  # per MG, two for one slot, none
        with pytest.raises(ConfigError, match="grid_price"):
            SlotInputs(loads, loads, loads, price)


def crossing_market() -> tuple[ScenarioConfig, World, SlotInputs]:
    """Two backlogged buyers, two free sellers, grid price in between."""
    pb = PriceBounds(1.0, 40.0)
    mgs = []
    for k in range(1, 5):
        mgs.append(
            MGSpec(
                params=small_params(
                    k,
                    v_weight=10.0,
                    battery_capacity_kwh=3000.0,
                    charge_rate_max_kwh=1500.0,
                    discharge_rate_max_kwh=1500.0,
                    serve_rate_max_kwh=1500.0,
                    dt_load_max_kwh=200.0,
                    epsilon=100.0,
                    epsilon_max=100.0,
                ),
                load_model=LoadModel("type1", 0.0, 0.0, rng_seed=k),
                renewable_mean_kwh=1.0,
            )
        )
    cfg = ScenarioConfig(
        mgs=tuple(mgs), price_bounds=pb, horizon_slots=1,
        rho1=1000.0, rho2=1e-4, mode=MODE_AUCTION, seed=0,
    )
    world = World.initial(cfg)
    # the buyers' backlogs: jobs that arrived before slot 0, so the work
    # served so far starts that far below the arrivals counted from slot 0
    backlog = np.array([300.0, 200.0, 0.0, 0.0])
    world = dataclasses.replace(world, demand_queue_kwh=backlog, served_kwh=-backlog)
    inputs = slots([
        (0.0, 0.0, 0.0, 25.0),
        (0.0, 0.0, 0.0, 25.0),
        (500.0, 100.0, 0.0, 25.0),
        (500.0, 100.0, 0.0, 25.0),
    ])
    return cfg, world, inputs


def test_step_crossing_market_preserves_buyer_battery():
    """A cleared trade lets the winning buyer serve jobs without draining storage."""
    cfg, world, inputs = crossing_market()
    next_world, (rec,) = step(world, inputs)
    assert rec.market.volume_kwh == pytest.approx(300.0)
    assert rec.market.buy_price == pytest.approx(20.0)
    assert rec.market.sell_price == 0.0
    assert rec.violations == ()

    solo_cfg = dataclasses.replace(cfg, mode=MODE_SOLO)
    solo_world = dataclasses.replace(world, configs=(solo_cfg,))
    solo_next, (solo_rec,) = step(solo_world, inputs)
    assert solo_rec.market.volume_kwh == 0.0

    buyer = rec.rows[0]
    buyer_solo = solo_rec.rows[0]
    assert buyer.bought_kwh == pytest.approx(300.0)
    assert buyer_solo.bought_kwh == 0.0
    # both serve the backlog either way; the trade only changes the source
    assert buyer.serve_kwh == buyer_solo.serve_kwh == pytest.approx(300.0)
    assert buyer.discharge_kwh == 0.0
    assert buyer_solo.discharge_kwh == pytest.approx(300.0)
    assert next_world.battery_kwh[0] > solo_next.battery_kwh[0]
    assert len(audit_rows(rec)) == 4


def test_step_one_sided_books_make_modes_identical():
    """With no buyers the auction can never fire, so the modes coincide."""
    pb = PriceBounds(1.0, 2.0)
    mgs = tuple(
        MGSpec(
            params=small_params(k, v_weight=5.0, battery_capacity_kwh=100.0,
                                charge_rate_max_kwh=50.0, discharge_rate_max_kwh=50.0,
                                serve_rate_max_kwh=50.0, dt_load_max_kwh=10.0,
                                epsilon=5.0, epsilon_max=5.0),
            load_model=LoadModel("type1", 0.0, 0.0, rng_seed=k),
            renewable_mean_kwh=50.0,
        )
        for k in (1, 2)
    )
    cfg_a = ScenarioConfig(mgs=mgs, price_bounds=pb, horizon_slots=30,
                           rho1=1000.0, rho2=1e-4, mode=MODE_AUCTION, seed=4)
    cfg_s = dataclasses.replace(cfg_a, mode=MODE_SOLO)
    traces = build_traces(cfg_a)
    _, rec_a = run(cfg_a, traces)
    _, rec_s = run(cfg_s, traces)
    for ra, rs in zip(rec_a, rec_s):
        assert ra.rows == rs.rows
        assert ra.market == rs.market


# ----------------------------------------------------------------- full runs


def test_run_is_deterministic(tmp_path):
    cfg = small_scenario(mode=MODE_AUCTION, seed=5, horizon=25)
    _, rec1 = run(cfg)
    _, rec2 = run(cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_slots_csv(a, rec1)
    write_slots_csv(b, rec2)
    assert a.read_bytes() == b.read_bytes()


def test_run_horizon_one_summary_matches_rows():
    cfg = small_scenario(horizon=1)
    summary, records = run(cfg)
    assert summary.horizon_slots == 1
    assert len(records) == 1
    row_cost = sum(r.cost for r in records[0].rows)
    assert summary.total_cost == pytest.approx(row_cost)
    assert summary.mean_time_avg_cost() == pytest.approx(row_cost / 2)


def test_run_small_scenario_is_clean():
    summary, _ = run(small_scenario(mode=MODE_AUCTION, seed=1, horizon=40))
    assert summary.violation_count == 0
    assert summary.violations == ()
    assert summary.total_grid_kwh >= 0.0


def with_v_fraction(cfg: ScenarioConfig, fraction: float) -> ScenarioConfig:
    """`cfg` with every MG's V at `fraction` of its admissible maximum."""
    mgs = tuple(
        dataclasses.replace(m, params=dataclasses.replace(
            m.params, v_weight=fraction * compute_v_max(m.params, cfg.price_bounds)
        ))
        for m in cfg.mgs
    )
    return dataclasses.replace(cfg, mgs=mgs)


def test_runs_stepped_together_are_the_runs_alone():
    """Each run of a fleet gets the summary and records, bit for bit, that
    `simulate` gives it alone, whatever the other runs' modes, V and MG ids."""
    from mgtrade.cli import default_scenario

    base = default_scenario(seed=3, horizon=30)
    configs = [
        with_v_fraction(dataclasses.replace(base, mode=mode), f)
        for mode, f in ((MODE_AUCTION, 1.0), (MODE_SOLO, 1.0), (MODE_AUCTION, 0.3), (MODE_SOLO, 0.6))
    ]
    renumbered = tuple(  # ids 16 down to 11, so ties in the book break the other way
        dataclasses.replace(m, params=dataclasses.replace(m.params, id=17 - m.params.id))
        for m in base.mgs
    )
    configs.append(dataclasses.replace(base, mgs=renumbered))
    inputs = realized_inputs(base, build_traces(base))
    together = simulate_runs(configs, inputs)
    assert len(together) == len(configs)
    for cfg, (summary, records) in zip(configs, together):
        alone_summary, alone = simulate(cfg, inputs)
        assert summary == alone_summary
        assert len(records) == len(alone) == 30
        for got, want in zip(records, alone):
            assert got.rows == want.rows
            assert (got.market, got.violations, got.ids) == (want.market, want.violations, want.ids)
            assert got.buy_bids.tolist() == want.buy_bids.tolist()
            assert got.sell_bids.tolist() == want.sell_bids.tolist()
            assert audit_rows(got) == audit_rows(want)
    assert sum(s.total_traded_kwh for s, _ in together) > 0.0  # the auction runs trade


def test_runs_stepped_together_share_mg_count_and_horizon():
    cfg = small_scenario(horizon=5)
    inputs = realized_inputs(cfg, build_traces(cfg))
    fewer = dataclasses.replace(cfg, mgs=cfg.mgs[:1])
    with pytest.raises(SimError, match="one MG count and one horizon"):
        simulate_runs([cfg, fewer], inputs)
    with pytest.raises(SimError, match="one MG count and one horizon"):
        simulate_runs([cfg, dataclasses.replace(cfg, horizon_slots=4)], inputs)


def test_paired_runs_both_modes_clean_and_market_fires():
    """Same seeds, both modes: no invariant violations, and with four MGs the
    auction actually clears trades somewhere (the books are two-sided often
    enough).  Cash comparisons between modes live in the acceptance suite at
    the reference scenario; at toy scale a short horizon can leave the ledger
    on either side."""
    traded = 0.0
    for mode in (MODE_AUCTION, MODE_SOLO):
        for seed in range(4):
            cfg = small_scenario(mode=mode, seed=seed, horizon=40, n_mgs=4)
            summary, _ = run(cfg)
            assert summary.violation_count == 0
            assert math.isfinite(summary.total_cost)
            if mode == MODE_AUCTION:
                traded += summary.total_traded_kwh
            else:
                assert summary.total_traded_kwh == 0.0
    assert traded > 0.0


# -------------------------------------------------------------------- oracle


def oracle_params(mg_id=1) -> MGParams:
    return MGParams(
        id=mg_id,
        battery_capacity_kwh=10.0,
        charge_rate_max_kwh=5.0,
        discharge_rate_max_kwh=5.0,
        serve_rate_max_kwh=5.0,
        dt_load_max_kwh=4.0,
        epsilon=1.0,
        epsilon_max=1.0,
        price_floor=1.0,
        v_weight=0.5,
    )


def oracle_config(horizon=2, initial_battery=None) -> ScenarioConfig:
    spec = MGSpec(
        params=oracle_params(),
        load_model=LoadModel("type1", 0.0, 2.0, rng_seed=0),
        renewable_mean_kwh=1.0,
    )
    return ScenarioConfig(
        mgs=(spec,), price_bounds=PriceBounds(1.0, 3.0), horizon_slots=horizon,
        rho1=1.0, rho2=1.0, mode=MODE_SOLO, seed=0,
        initial_battery_kwh=initial_battery,
    )


def test_oracle_two_slot_hand_instance():
    """Worked example: discharge what the battery holds, buy the 1 kWh gap dearly."""
    cfg = oracle_config()
    inputs = slots([(0.0, 6.0, 3.0, 3.0)], [(0.0, 2.0, 0.0, 1.0)])
    result = offline_oracle(cfg, inputs)
    assert result == pytest.approx({1: 1.5}, abs=1e-9)


def test_oracle_zero_demand_costs_nothing():
    cfg = oracle_config()
    inputs = slots([(0.0, 0.0, 0.0, 3.0)], [(0.0, 0.0, 0.0, 1.0)])
    assert offline_oracle(cfg, inputs) == {1: 0.0}


def test_oracle_matches_two_slot_grid_search():
    """LP relaxation can only do better than the exclusivity-respecting grid."""
    import numpy as np

    rng = np.random.default_rng(42)
    p = oracle_params()
    for _ in range(12):
        b0 = float(rng.integers(0, 11))
        ins = []
        for price in rng.choice([1.0, 2.0, 3.0], size=2):
            ins.append(
                (
                    float(rng.integers(0, 7)),
                    float(rng.integers(0, 7)),
                    0.0,
                    float(price),
                )
            )
        ins[0] = (ins[0][0], ins[0][1], float(rng.integers(0, 5)), ins[0][3])
        cfg = oracle_config(initial_battery=b0)
        slot_ins = slots(*([cell] for cell in ins))
        lp = offline_oracle(cfg, slot_ins)[1]
        bf = brute_force_two_slot_cost(
            b0,
            p.battery_capacity_kwh,
            p.charge_rate_max_kwh,
            p.discharge_rate_max_kwh,
            p.serve_rate_max_kwh,
            ins,
        )
        assert lp <= bf + 1e-9


@pytest.mark.parametrize(
    "horizon, n_mgs, seed, initial_battery_kwh",
    [(1, 1, 0, 0.0), (1, 3, 1, None), (2, 2, 2, 0.0), (7, 3, 3, 10.0),
     (24, 2, 4, 300.0), (48, 3, 5, None), (48, 1, 6, 40.0)],
)
def test_oracle_matches_dense_reference(horizon, n_mgs, seed, initial_battery_kwh):
    """The banded sparse LP and the dense running-sum LP find the same optimum."""
    base = small_scenario(seed=seed, horizon=horizon, n_mgs=n_mgs)
    # renewables short of the load, so most MGs must buy from the grid
    cfg = dataclasses.replace(
        base,
        initial_battery_kwh=initial_battery_kwh,
        mgs=tuple(dataclasses.replace(m, renewable_mean_kwh=5.0) for m in base.mgs),
    )
    inputs = realized_inputs(cfg, build_traces(cfg))
    got = offline_oracle(cfg, inputs)
    assert sorted(got) == [m.params.id for m in cfg.mgs]
    for mid, want in reference_costs(reference_offline_oracle, cfg, inputs).items():
        assert got[mid] == pytest.approx(want, abs=1e-6)


def reference_costs(reference, cfg, inputs) -> dict:
    """Each MG's cost by a reference oracle over plain numbers."""
    costs = {}
    for k, (m, db) in enumerate(zip(cfg.mgs, cfg.bounds())):
        p = m.params
        costs[p.id] = reference(
            initial_battery(p, db, cfg.initial_battery_kwh),
            p.battery_capacity_kwh,
            p.charge_rate_max_kwh,
            p.discharge_rate_max_kwh,
            p.serve_rate_max_kwh,
            list(zip(*(f[:, k].tolist() for f in
                       (inputs.renewable_kwh, inputs.di_load_kwh, inputs.dt_load_kwh)),
                     inputs.grid_price.tolist())),
        )
    return costs


@pytest.mark.parametrize(
    "scenario",
    [("reference", 0, 120), ("reference", 3, 120), ("reference", 7, 240),
     ("reference", 0, 720), ("sweep_small",)],
    ids=["ref-120-seed0", "ref-120-seed3", "ref-240", "ref-720", "sweep_small"],
)
def test_flow_equals_the_sparse_lp(scenario):
    """The min-cost flow finds the banded sparse LP's optimum on CLI-sized runs."""
    from mgtrade.cli import default_scenario, load_config

    if scenario[0] == "reference":
        cfg = default_scenario(seed=scenario[1], mode=MODE_SOLO, horizon=scenario[2])
    else:
        cfg, _ = load_config(Path(__file__).parent.parent / "configs" / "sweep_small.json")
    inputs = realized_inputs(cfg, build_traces(cfg))
    got = offline_oracle(cfg, inputs)
    want = reference_costs(reference_sparse_oracle, cfg, inputs)
    assert got == pytest.approx(want, rel=1e-9)
    assert max(want.values()) > 0.0  # some MG buys from the grid


@st.composite
def small_mgs(draw):
    """One MG's physics, its initial battery and 1-6 slots of (R, I, T, P)."""
    capacity = draw(st.sampled_from([0.5, 2.5, 10.0]))
    c_max = draw(st.sampled_from([0.0, capacity / 2, capacity]))
    d_max, j_max = draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=2, max_size=2))
    b0 = draw(st.sampled_from([0.0, capacity / 3, capacity]))
    kwh = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])
    cells = st.tuples(kwh, kwh, kwh, st.sampled_from([0.0, 1.0, 2.5, 16.0]))
    return capacity, c_max, d_max, j_max, b0, draw(st.lists(cells, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(small_mgs())
@example((10.0, 5.0, 3.0, 3.0, 10.0, [(0.0, 4.0, 2.0, 2.5)]))  # one slot, full battery
@example((10.0, 0.0, 0.0, 0.0, 0.0, [(1.0, 2.0, 0.0, 1.0), (0.0, 4.0, 4.0, 2.5)]))
@example((2.5, 2.5, 1.0, 0.0, 2.5, [(0.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 1.0)]))  # stuck work
def test_flow_equals_the_sparse_lp_on_small_mgs(mg):
    """Equal optima, or both infeasible, on small MGs with zero rates and edge b0s."""
    capacity, c_max, d_max, j_max, b0, cells = mg
    # queue bounds small enough for every drawn capacity: it must exceed
    # dt_load_max + epsilon_max, and the oracle needs the bounds only to exist
    p = dataclasses.replace(
        oracle_params(), battery_capacity_kwh=capacity, charge_rate_max_kwh=c_max,
        discharge_rate_max_kwh=d_max, serve_rate_max_kwh=j_max, dt_load_max_kwh=0.0,
        epsilon=0.1, epsilon_max=0.1, v_weight=0.01,
    )
    spec = MGSpec(p, LoadModel("type1", 0.0, 0.0, rng_seed=0), renewable_mean_kwh=0.0)
    cfg = dataclasses.replace(
        oracle_config(horizon=len(cells), initial_battery=b0), mgs=(spec,)
    )
    want = reference_sparse_oracle(b0, capacity, c_max, d_max, j_max, cells)
    if want is None:
        with pytest.raises(SimError, match="oracle LP failed for mg 1"):
            offline_oracle(cfg, slots(*([c] for c in cells)))
    else:
        got = offline_oracle(cfg, slots(*([c] for c in cells)))
        assert got[1] == pytest.approx(want, rel=1e-9, abs=1e-12)


def overload_dt(inputs, k, kwh=200.0):
    """Give MG k more delay-tolerant work each slot than its serve rate clears."""
    dt = inputs.dt_load_kwh.copy()
    dt[:, k] = kwh
    return dataclasses.replace(inputs, dt_load_kwh=dt)


def test_oracle_refuses_large_scenarios():
    """Size is no reason to refuse: past 48 slots only an infeasible LP is."""
    cfg = small_scenario(horizon=60)
    inputs = realized_inputs(cfg, build_traces(cfg))
    assert sorted(offline_oracle(cfg, inputs)) == [1, 2]
    with pytest.raises(SimError, match="oracle LP failed for mg 2"):
        offline_oracle(cfg, overload_dt(inputs, 1))


def test_oracle_refuses_many_mgs():
    """Past 3 MGs the oracle solves each one and refuses the infeasible one by id."""
    cfg = small_scenario(horizon=10, n_mgs=4)
    inputs = realized_inputs(cfg, build_traces(cfg))
    assert sorted(offline_oracle(cfg, inputs)) == [1, 2, 3, 4]
    with pytest.raises(SimError, match="oracle LP failed for mg 3"):
        offline_oracle(cfg, overload_dt(inputs, 2))


def test_oracle_needs_a_slot():
    cfg = small_scenario(horizon=1)
    with pytest.raises(SimError, match="at least one slot"):
        offline_oracle(cfg, [])


def test_online_run_never_beats_oracle():
    """The clairvoyant LP lower-bounds any policy that drains its backlog."""
    spec = MGSpec(
        params=small_params(1, v_weight=1.0),
        load_model=LoadModel("type1", 10.0, 20.0, rng_seed=2),
        renewable_mean_kwh=25.0,
    )
    cfg = ScenarioConfig(
        mgs=(spec,), price_bounds=PB, horizon_slots=24,
        rho1=1000.0, rho2=1e-4, mode=MODE_SOLO, seed=2,
    )
    traces = build_traces(cfg)
    inputs = realized_inputs(cfg, traces)
    summary, records = run(cfg, traces)
    # the bound needs the online trajectory to be oracle-feasible: nothing
    # older than the final slot may still be pending at the horizon
    served = summary.per_mg[1].total_served_kwh
    arrived_before_last = inputs.arrived_kwh[-2, 0]
    assert served >= arrived_before_last - 1e-6
    oracle = offline_oracle(cfg, inputs)
    assert oracle[1] <= summary.per_mg[1].time_avg_cost + 1e-6


# --------------------------------------------------------------------- audits


def test_bound_audit_passes_on_clean_run():
    cfg = small_scenario(mode=MODE_AUCTION, seed=3, horizon=30)
    summary, _ = run(cfg)
    report = bound_audit(summary, cfg)
    assert report.passed
    text = report.render()
    assert "ALL CHECKS PASSED" in text
    assert "SKIP" in text  # no oracle supplied


def test_bound_audit_flags_injected_v_weight():
    cfg = small_scenario(seed=3, horizon=10)
    summary, _ = run(cfg)
    # push one MG past its admissible v_weight after the fact
    object.__setattr__(cfg.mgs[0].params, "v_weight", 1e9)
    report = bound_audit(summary, cfg)
    assert not report.passed
    assert any(
        line.status == "FAIL" and "v_weight" in line.check for line in report.lines
    )


def test_verify_log_rows_accepts_clean_logs(tmp_path):
    cfg = small_scenario(mode=MODE_AUCTION, seed=6, horizon=30)
    _, records = run(cfg)
    path = tmp_path / "slots.csv"
    write_slots_csv(path, records)
    log = read_slots_csv(path)
    assert log["slot"][0] == 0.0
    assert verify_log_rows(cfg, log) == []


def test_verify_log_rows_catches_corruption(tmp_path):
    cfg = small_scenario(seed=6, horizon=10)
    _, records = run(cfg)
    path = tmp_path / "slots.csv"
    write_slots_csv(path, records)
    log = read_slots_csv(path)
    log["battery_kwh"][7] = 9e9
    problems = verify_log_rows(cfg, log)
    assert problems
    slot = int(log["slot"][7])
    mg = int(log["mg_id"][7])
    assert any(f"slot {slot} mg {mg}" in p for p in problems)


# Two rows of valid 96-MG auction runs. Each cost is a small difference of
# products of a few hundred kWh and ~10/kWh prices, so the 6-decimal operands
# recompute it 1.3e-4 off the recorded value; 1e-5 of the cost would not cover
# that.
ROUNDING_ROWS = (
    "11,46,2799.970311,704.430192,300.000000,-2085.743974,433.112131,170.051096,"
    "195.127849,10.375345,5.208157,5.208157,263.061035,0.000000,0.000000,"
    "263.061035,0.000000,7.839810,200.029689,0.000000,0.000000,200.029689,"
    "0.000000,13.028364,6,7.984933,7.839810,11345.203443,1646.447546",
    "82,10,2781.862651,621.503411,400.000000,-2060.994492,645.053043,287.897396,"
    "201.746251,11.920093,5.958770,5.958770,357.155647,0.000000,0.000000,"
    "357.155647,0.000000,7.279452,218.137349,0.000000,0.000000,218.137349,"
    "-0.000000,0.320225,3,8.008383,7.279452,13684.940384,9975.384787",
)


def rounding_config() -> ScenarioConfig:
    """The two MGs of ROUNDING_ROWS: reference battery, type1 and type2 loads.

    The horizon is one slot: each MG logs one row, relabelled as slot 0.
    """
    mgs = []
    for mg_id, mg_type, low, high, renewable, v in (
        (46, "type1", 100.0, 200.0, 200.0, 192.85714285714286),
        (10, "type2", 200.0, 400.0, 600.0, 171.42857142857142),
    ):
        params = MGParams(
            id=mg_id,
            battery_capacity_kwh=3000.0,
            charge_rate_max_kwh=1500.0,
            discharge_rate_max_kwh=1500.0,
            serve_rate_max_kwh=1500.0,
            dt_load_max_kwh=high,
            epsilon=low,
            epsilon_max=low,
            price_floor=1.0,
            v_weight=v,
        )
        mgs.append(MGSpec(params, LoadModel(mg_type, low, high, rng_seed=0), renewable))
    return ScenarioConfig(
        mgs=tuple(mgs), price_bounds=PB, horizon_slots=1,
        rho1=1000.0, rho2=1e-4, mode=MODE_AUCTION, seed=0,
    )


def test_verify_log_rows_allows_cost_rounding_of_large_products(tmp_path):
    path = tmp_path / "slots.csv"
    path.write_text("\n".join((",".join(SLOTS_HEADER),) + ROUNDING_ROWS) + "\n")
    log = read_slots_csv(path)
    cfg = rounding_config()
    for k, (m, db) in enumerate(zip(cfg.mgs, cfg.bounds())):
        # one row per MG: a complete log of a one-slot run, which starts from
        # the initial battery and whose one pending job is the slot's own arrival
        log["slot"][k] = 0.0
        log["oldest_pending_age"][k] = 1.0
        log["battery_kwh"][k] = initial_battery(m.params, db)
        log["virtual_kwh"][k] = virtual_battery(log["battery_kwh"][k], m.params, db)
    # the rows come from two slots of one log, so as one slot their markets
    # disagree; these are the only problems, and no cost is flagged
    market_problems = [
        "slot 0 mg 10: market columns differ from the slot's first row",
        "slot 0 mg 10: grid price differs from the slot's first row",
        "slot 0 mg 10: unit price is not the market price",
        "slot 0: bought 0.000000 / sold 620.216682 kWh != market volume 11345.203443",
    ]
    assert verify_log_rows(cfg, log) == market_problems
    for k in range(len(log)):
        recomputed = (
            log["grid_price"][k] * log["grid_kwh"][k]
            + log["buy_unit_price"][k] * log["bought_kwh"][k]
            - log["sell_unit_price"][k] * log["sold_kwh"][k]
        )
        assert abs(recomputed - log["cost"][k]) > max(1e-4, 1e-5 * abs(recomputed))
    # the rounding allowance stays far below an edit of a thousandth
    for k in range(len(log)):
        log["cost"][k] += 1e-3
    problems = verify_log_rows(cfg, log)
    assert len(problems) == 2 + len(market_problems)
    assert all("cost" in p for p in problems[:2])
    assert problems[2:] == market_problems


def test_read_slots_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "slots.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError, match="header"):
        read_slots_csv(path)


def test_summarize_counts_trades_and_ages():
    cfg, world, inputs = crossing_market()
    _, (rec,) = step(world, inputs)
    summary = summarize(cfg, [rec])
    assert summary.total_traded_kwh == pytest.approx(300.0)
    assert summary.per_mg[1].total_bought_kwh == pytest.approx(300.0)
    assert summary.per_mg[3].total_sold_kwh == pytest.approx(300.0)
    assert summary.per_mg[1].max_job_age_slots == 0  # served in its arrival slot
    # the losing buyer covers its own backlog from storage in the same slot
    assert rec.rows[1].serve_kwh == pytest.approx(200.0)
    assert summary.per_mg[2].max_job_age_slots == 0
