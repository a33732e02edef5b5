"""Slot-by-slot simulation across microgrids, plus the offline oracle.

Each slot runs a two-stage protocol: every MG computes its bid pair from its
queues, the auctioneer clears (unless the run is in no_auction mode), then
every MG solves its slot program with the cleared trade fixed and the queues
advance. Everything is pure-functional: `step` maps a world and the
horizon's exogenous inputs to the next slot's world plus a flat record, so
replays and golden logs are exact. A world holds every MG's state as
columns, and each stage of a step is one array expression over all MGs,
the market's included; only the clearing's per-bid loops read Python
floats. A record keeps the slot's columns and book order, not its book, and
`mgtrade.logs` builds its log rows and audit lines from them when it writes
them.

A world can hold several runs over the same inputs, their MGs' columns
stacked run after run (`simulate_runs`), so a slot pays numpy's per-call
cost once, not once per run; only the market goes run by run.

The offline oracle solves the whole horizon as one linear program per MG with
all randomness known and trading disabled. It is the benchmark the
drift-plus-penalty bound is audited against: online time-average cost must
stay within a_const / v_weight of it. The LP is a min-cost flow over a
time-expanded network (a bus, a battery and a service node per slot, fed by
one grid source and drained by one sink), solved exactly by
`flow.min_cost_flow` in pure Python, so no command loads an LP solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Any, Sequence

import numpy as np

from .auction import ClearingOutcome, OrderBook, budget_check, clear
from .controller import (
    Bids,
    make_bids,
    post_trade_settlement,
    solve_slot_program,
    spilled_kwh,
)
from .errors import ConfigError, RejectedAction, SimError
from .flow import min_cost_flow
from .ingest import (
    Trace,
    draw_load_grid,
    load_trace,
    scale_wind,
    synthetic_price,
    synthetic_wind,
)
from .logs import _ROW_FLOATS, _SUMMARY_OF, MarketRow, MGSlotRow, MGSummary, RunSummary
from .model import (  # the scenario names are re-exported
    FEAS_TOL,
    MODE_AUCTION,
    MODE_SOLO,
    Fleet,
    MGSpec,
    ScenarioConfig,
    SlotInputs,
    battery_step,
    delay_queue_step,
    demand_queue_step,
    initial_battery,
    mg_subseed,
    oldest_pending_age,
    virtual_battery,
)


@dataclass(frozen=True)
class ScenarioTraces:
    renewables: tuple[Trace, ...]
    prices: Trace


def build_traces(config: ScenarioConfig, traces_doc: dict | None = None) -> ScenarioTraces:
    """Each trace of a config once: from the file its trace block names, else synthetic.

    ``traces_doc`` is the trace block `config_from_dict` returns. A price
    file is clipped into the config's band and a renewable file scaled to
    its MG's mean; without a file the trace is the seeded synthetic one, at
    exactly the MG's mean, which must then be positive.
    """
    doc = traces_doc or {}
    h, pb = config.horizon_slots, config.price_bounds
    paths = doc.get("renewable_traces") or [None] * len(config.mgs)
    if len(paths) != len(config.mgs):
        raise ConfigError(f"{len(paths)} renewable traces for {len(config.mgs)} MGs")
    renewables = []
    for k, (m, path) in enumerate(zip(config.mgs, paths)):
        if path:
            renewables.append(scale_wind(load_trace(path), m.renewable_mean_kwh))
        elif m.renewable_mean_kwh > 0:
            renewables.append(synthetic_wind(h, m.renewable_mean_kwh, mg_subseed(config.seed, k)))
        else:
            raise ConfigError(f"mg {m.params.id}: renewable_mean_kwh 0 needs a trace file")
    if doc.get("price_trace"):
        raw = load_trace(doc["price_trace"])
        prices = Trace(raw.name, tuple(min(max(v, pb.p_min), pb.p_max) for v in raw.values))
    else:
        prices = synthetic_price(h, pb, config.seed)
    return ScenarioTraces(renewables=tuple(renewables), prices=prices)


def realized_inputs(config: ScenarioConfig, traces: ScenarioTraces) -> SlotInputs:
    """All slots' inputs, materialized once so oracles see the same draws.

    The loads of every MG and slot come from one `draw_load_grid` call.
    """
    h = config.horizon_slots
    named = [("price trace", traces.prices)] + [
        (f"mg {m.params.id}: renewable trace", tr) for m, tr in zip(config.mgs, traces.renewables)
    ]
    for what, tr in named:
        if len(tr.values) < h:
            raise ConfigError(
                f"{what} {tr.name!r} covers {len(tr.values)} slots, horizon needs {h}"
            )
    di, dt = draw_load_grid([m.load_model for m in config.mgs], range(h))
    renewable = [tr.values[:h] for tr in traces.renewables]
    return SlotInputs(np.array(renewable).T, di.T, dt.T, traces.prices.values[:h])


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class World:
    """Every run's MGs' state at the start of `slot`, as columns.

    Entry r*n + k of a column is MG k of run r: a world steps runs of n MGs
    each over shared inputs, and ``fleet`` holds their parameters so too.
    ``served_kwh`` is the delay-tolerant work each MG served before `slot`.
    With the horizon's arrival prefix sums it names the oldest pending job,
    so the job FIFO itself is never stored. ``names`` name the runs in errors.
    """

    configs: tuple[ScenarioConfig, ...]
    fleet: Fleet
    battery_kwh: Any
    demand_queue_kwh: Any
    delay_queue_kwh: Any
    served_kwh: Any
    slot: int
    names: tuple[str, ...]

    @classmethod
    def initial(cls, *configs: ScenarioConfig, names=()) -> "World":
        params = [m.params for cfg in configs for m in cfg.mgs]
        bounds = [db for cfg in configs for db in cfg.bounds()]
        b0 = [cfg.initial_battery_kwh for cfg in configs for _ in cfg.mgs]
        battery = np.array(list(map(initial_battery, params, bounds, b0)))
        empty = (np.zeros(len(params)) for _ in range(3))  # Q, Z, served
        names = tuple(names) or tuple(f"run {r}" for r in range(len(configs)))
        return cls(configs, Fleet.of(params, bounds), battery, *empty, slot=0, names=names)

    def where(self, run: int) -> str:
        """The slot, and the run when there are several, as an error message names them."""
        return f"slot {self.slot}" + (f" ({self.names[run]})" if len(self.configs) > 1 else "")


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class SlotRecord:
    """One slot of a run, its MGs' log rows held as columns.

    ``columns[i, k]`` is field ``_ROW_FLOATS[i]`` of MG k's row, in config
    order, and ``ids[k]`` its MG id. ``buy_bids`` and ``sell_bids`` are the
    positions of the slot's live bids in book order. ``rows`` builds the log
    rows from them, and `audit_rows` the slot's auction_audit.csv lines.
    """

    slot: int
    columns: Any
    oldest_age: Any
    market: MarketRow
    violations: tuple[str, ...]
    ids: list[int]
    buy_bids: Any
    sell_bids: Any

    @property
    def rows(self) -> tuple[MGSlotRow, ...]:
        cells = zip(self.ids, self.columns.T.tolist(), self.oldest_age.tolist())
        return tuple(MGSlotRow(self.slot, mid, *row, age) for mid, row, age in cells)


def _monitor(
    slot: int, fleet: Fleet, battery_kwh, demand_kwh, delay_kwh, spill, oldest_age, runs: int
) -> list[tuple[str, ...]]:
    """Check every MG's queue/battery bounds after the slot's updates, run by run.

    ``oldest_age`` is the age of each MG's oldest pending job at the start
    of the next slot; jobs are served oldest first, so no other job is older.
    `battery_step` has already rejected charging and discharging at once.
    """
    failed = np.array([
        ~((-FEAS_TOL <= battery_kwh) & (battery_kwh <= fleet.battery_capacity_kwh + FEAS_TOL)),
        demand_kwh > fleet.q_max + FEAS_TOL, delay_kwh > fleet.z_max + FEAS_TOL,
        spill < -FEAS_TOL, oldest_age > fleet.delta_max_slots + FEAS_TOL,
    ])
    if not failed.any():
        return [()] * runs
    bad: list[list[str]] = [[] for _ in range(runs)]
    for k in np.flatnonzero(failed.any(axis=0)).tolist():
        age = int(oldest_age[k])
        reasons = (
            f"battery {float(battery_kwh[k])} outside [0, capacity]",
            f"Q {float(demand_kwh[k])} > q_max {float(fleet.q_max[k])}",
            f"Z {float(delay_kwh[k])} > z_max {float(fleet.z_max[k])}",
            f"energy balance short by {-float(spill[k])}",
            f"job from slot {slot + 1 - age} is {age} slots old",
        )
        tag = f"slot {slot} mg {fleet.id[k]}"
        run = bad[k * runs // len(fleet.id)]
        run.extend(f"{tag}: {why}" for why, hit in zip(reasons, failed[:, k]) if hit)
    return list(map(tuple, bad))


def step(world: World, inputs: SlotInputs) -> tuple[World, list[SlotRecord]]:
    """Advance every run's MGs one slot: bids, clearing, slot programs, queue updates.

    ``inputs`` holds the whole horizon, one column per fleet entry; the step
    reads its row ``world.slot``, and the arrival prefix sums up to it for
    the job ages. Every stage is one array expression over the whole fleet
    but the market: each run's MGs post their own book, and each
    auction-mode run clears its own. Returns each run's record of the slot.
    """
    configs, fleet, t = world.configs, world.fleet, world.slot
    size, got = len(fleet.id), inputs.renewable_kwh.shape[1]
    if got != size:
        raise SimError(f"slot {t}: got {got} inputs for {size} MGs")
    r, di, dt, price = inputs.slot(t)
    b, q, z = world.battery_kwh, world.demand_queue_kwh, world.delay_queue_kwh
    n = size // len(configs)
    runs = [slice(k * n, k * n + n) for k in range(len(configs))]
    bids = make_bids(q, z, r, di, fleet)
    fills, markets = np.zeros((4, size)), []  # each run's book and market row
    for k, (cfg, at) in enumerate(zip(configs, runs)):
        try:
            run_bids = Bids(bids[0][at], bids[1][at], bids[2][at], bids[3][at])
            book = OrderBook.from_bids(cfg.ids, run_bids, cfg.rho1, cfg.rho2)
            outcome = clear(book, price) if cfg.mode == MODE_AUCTION else ClearingOutcome.empty()
            surplus = budget_check(outcome)
        except Exception as e:
            raise SimError(f"{world.where(k)}: market stage failed: {e}") from e
        fills[:, at] = outcome.fills(n)
        markets.append((book, MarketRow(
            outcome.buy_clearing_price, outcome.sell_clearing_price,
            outcome.total_volume(), surplus,
        )))

    bought, sold, buy_unit, sell_unit = fills
    x = virtual_battery(b, fleet, fleet)
    action = solve_slot_program(b, q, z, x, r, di, price, bought, sold, fleet)
    try:
        new_b = battery_step(b, action, fleet)
    except RejectedAction as e:
        raise SimError(f"{world.where(e.at // n)} {e}") from e
    c, d, j, g = action[:4]
    cost = post_trade_settlement(price, g, buy_unit, bought, sell_unit, sold)
    spill = spilled_kwh(r, di, action)
    new_z = delay_queue_step(z, q, j, fleet)
    new_q = demand_queue_step(q, j, dt)
    served = world.served_kwh + j
    oldest_age = oldest_pending_age(inputs.arrived_kwh, served, t + 1)
    violations = _monitor(t, fleet, new_b, new_q, new_z, spill, oldest_age, len(configs))

    columns = np.array((
        b, q, z, x, r, di, dt, np.full(size, price), *bids, bought, sold, buy_unit, sell_unit,
        c, d, j, g, spill, cost,
    ))
    own = [(columns, oldest_age)]  # a lone run's records hold the step's arrays, not views
    if len(runs) > 1:
        own = [(columns[:, at], oldest_age[at]) for at in runs]
    records = [
        SlotRecord(t, cols, ages, market, bad, cfg.ids, book.buy_bids, book.sell_bids)
        for cfg, (cols, ages), (book, market), bad in zip(configs, own, markets, violations)
    ]
    return World(configs, fleet, new_b, new_q, new_z, served, t + 1, world.names), records


def summarize(config: ScenarioConfig, records: list[SlotRecord]) -> RunSummary:
    """Per-MG totals and extremes of a run.

    The worst job age is the largest logged ``oldest_pending_age``: a run
    starts with no backlog, jobs are served oldest first and never in the
    slot they arrive, so a served job is never older than the oldest job
    pending at the end of the slot before.
    """
    horizon = len(records)
    violations: list[str] = []
    for rec in records:
        violations.extend(rec.violations)
    logged = np.array([rec.columns for rec in records])  # (slot, field, MG)
    ages = np.array([rec.oldest_age for rec in records])  # (slot, MG)

    def each_mg(reduce, column: str) -> list:
        """`reduce` of each MG's logged `column`, its slots in order."""
        at = ages if column == "oldest_pending_age" else logged[:, _ROW_FLOATS.index(column)]
        return list(map(reduce, at.T.tolist()))

    reduced = zip(*(each_mg(reduce, column) for _, reduce, column in _SUMMARY_OF))
    # the time average is the total cost, `_SUMMARY_OF`'s first field, over the horizon
    per_mg = {
        m.params.id: MGSummary(m.params.id, fields[0] / horizon, *fields)
        for m, fields in zip(config.mgs, reduced)
    }
    return RunSummary(
        mode=config.mode,
        horizon_slots=horizon,
        per_mg=per_mg,
        total_cost=sum(s.total_cost for s in per_mg.values()),
        total_grid_kwh=sum(s.total_grid_kwh for s in per_mg.values()),
        total_traded_kwh=sum(rec.market.volume_kwh for rec in records),
        violation_count=len(violations),
        violations=tuple(violations),
    )


def run(
    config: ScenarioConfig, traces: ScenarioTraces | None = None
) -> tuple[RunSummary, list[SlotRecord]]:
    """Simulate the whole horizon; deterministic for a fixed config and seed."""
    if traces is None:
        traces = build_traces(config)
    return simulate(config, realized_inputs(config, traces))


def simulate(
    config: ScenarioConfig, inputs: SlotInputs
) -> tuple[RunSummary, list[SlotRecord]]:
    """Simulate the whole horizon on inputs already drawn."""
    return simulate_runs([config], inputs)[0]


def simulate_runs(
    configs: Sequence[ScenarioConfig], inputs: SlotInputs, names: Sequence[str] = ()
) -> list[tuple[RunSummary, list[SlotRecord]]]:
    """Simulate runs of one MG count and horizon over the same drawn inputs, in one
    pass. Each run's summary and records are the ones `simulate` gives it alone;
    ``names`` label the runs in error messages."""
    horizon = configs[0].horizon_slots
    if any(len(c.mgs) != len(configs[0].mgs) or c.horizon_slots != horizon for c in configs):
        raise SimError("runs stepped together need one MG count and one horizon")
    if len(inputs) < horizon:
        raise SimError(f"inputs cover {len(inputs)} slots of {horizon}")
    world = World.initial(*configs, names=names)
    if len(configs) > 1:  # every run reads the same input columns; one run reads them as they are
        columns = inputs.renewable_kwh, inputs.di_load_kwh, inputs.dt_load_kwh
        inputs = SlotInputs(*(np.tile(c, (1, len(configs))) for c in columns), inputs.grid_price)
    slots = []
    for _ in range(horizon):
        world, records = step(world, inputs)
        slots.append(records)
    return [(summarize(c, run), run) for c, run in zip(configs, map(list, zip(*slots)))]


def offline_oracle(
    config: ScenarioConfig,
    inputs: SlotInputs,
    solved: dict[tuple[int, float], float] | None = None,
) -> dict[int, float]:
    """Clairvoyant per-MG optimum over the realized inputs, trading disabled.

    The LP over each slot's charge C, discharge D, delay-tolerant service J
    and grid purchase G is a pure min-cost flow, solved by `min_cost_flow`.
    Per slot t the network has three nodes:

    - the bus, with net supply R_t - I_t: a grid arc from one grid source at
      cost P_t, uncapped, and a spill arc to one sink at cost 0;
    - the battery: a charge arc from the bus (cap C_max) and a discharge arc
      to it (cap D_max), and a carry arc (cap B_max) to the next slot's
      battery, or to the sink after the last slot. Battery 0 supplies b0;
    - the service node W_t, which takes in the work dt_{t-1} arrived in the
      slot before: a service arc from the bus (cap J_max) and an uncapped
      arc W_t -> W_{t-1}. Work served at t can only meet work arrived
      before t, so the work S_t served through slot t stays at most the
      work arrived before it, and all work arrived before the final slot is
      served by the horizon (the last S is pinned), exactly as online.

    The grid source supplies every node's shortfall and sends what is not
    bought to the sink at cost 0. A plan that charges and discharges in one
    slot can shed min(C, D) from both without changing the battery path,
    the balance or the cost, so the flow loses nothing by allowing it.
    Returns each MG's time-average cost, the cheapest grid bill over the
    horizon divided by its slots.

    V enters the network only through the initial battery b0. Calls that
    share everything else (a sweep over V) can pass one `solved` dict, keyed
    by (MG id, b0): an MG found there is not solved again, and each solve is
    added to it.
    """
    h = len(inputs)
    if h < 1:
        raise SimError("oracle needs at least one slot")
    grid, sink = 3 * h, 3 * h + 1  # bus 3t, battery 3t + 1 and W_t 3t + 2 for slot t
    columns = inputs.renewable_kwh, inputs.di_load_kwh, inputs.dt_load_kwh
    price = inputs.grid_price.tolist()
    per_mg: dict[int, float] = {}
    solved = {} if solved is None else solved
    for k, (m, db) in enumerate(zip(config.mgs, config.bounds())):
        p = m.params
        b0 = initial_battery(p, db, config.initial_battery_kwh)
        if (p.id, b0) in solved:
            per_mg[p.id] = solved[p.id, b0]
            continue
        r, di, dt = (a[:, k].tolist() for a in columns)
        arcs = [(grid, 3 * t, math.inf, price[t]) for t in range(h)]  # arc t buys in slot t
        supply = [0.0] * (3 * h + 2)
        for t in range(h):
            bus, battery, service = 3 * t, 3 * t + 1, 3 * t + 2
            arcs += [
                (bus, sink, math.inf, 0.0),
                (bus, battery, p.charge_rate_max_kwh, 0.0),
                (battery, bus, p.discharge_rate_max_kwh, 0.0),
                (battery, battery + 3 if t + 1 < h else sink, p.battery_capacity_kwh, 0.0),
                (bus, service, p.serve_rate_max_kwh, 0.0),
            ]
            supply[bus] = r[t] - di[t]
            if t:
                arcs.append((service, service - 3, math.inf, 0.0))
                supply[service] = -dt[t - 1]
        arcs.append((grid, sink, math.inf, 0.0))  # what the grid is not asked for
        supply[1] += b0
        supply[grid] = -sum(v for v in supply if v < 0.0)
        supply[sink] = -sum(supply)
        flows = min_cost_flow(supply, arcs)
        if flows is None:
            raise SimError(
                f"oracle LP failed for mg {p.id}: no plan serves every load and, "
                "by the horizon, all work arrived before the final slot"
            )
        per_mg[p.id] = solved[p.id, b0] = sum(map(mul, price, flows)) / h
    return per_mg
