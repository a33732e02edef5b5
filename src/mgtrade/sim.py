"""Slot-by-slot simulation across microgrids, plus the offline oracle.

Each slot runs a two-stage protocol: every MG computes its bid pair from its
queues, the auctioneer clears (unless the run is in no_auction mode), then
every MG solves its slot program with the cleared trade fixed and the queues
advance. Everything is pure-functional: `step` maps a world and the
horizon's exogenous inputs to the next slot's world plus a flat record, so
replays and golden logs are exact. A world holds every MG's state as
columns, and each stage of a step is one array expression over all MGs,
the market's included; only the clearing's per-bid loops read Python
floats. A record keeps the slot's columns, not its book; `mgtrade.logs`
renders its log rows and audit lines when it writes them. Only an auction
run posts a book: a solo run's market stays empty.

A world can hold several runs over the same inputs, their MGs' columns
stacked run after run (`step_runs`), so a slot pays numpy's per-call cost
once, not once per run; only the market goes run by run. The records are
handed on a block of slots at a time as the runs step (`fold_runs`), and
`RunFold` folds a run's summary from them as they go by, so a command that
writes its logs as it steps (`mgtrade run`) holds no horizon of records.

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
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .auction import OrderBook, budget_check, clear
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
from .logs import _ROW_FLOATS, _SUMMARY_OF, MarketRow, MGSummary, RunSummary
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
    so the job FIFO itself is never stored; ``finished`` counts the arrival
    rows each MG's served work has finished, so the next slot's ages compare
    only the rows from the smallest count on. ``names`` name the runs in errors.
    """

    configs: tuple[ScenarioConfig, ...]
    fleet: Fleet
    battery_kwh: Any
    demand_queue_kwh: Any
    delay_queue_kwh: Any
    served_kwh: Any
    finished: Any
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
        finished = np.zeros(len(params), dtype=int)
        return cls(configs, Fleet.of(params, bounds), battery, *empty, finished, 0, names)

    def where(self, run: int) -> str:
        """The slot, and the run when there are several, as an error message names them."""
        return f"slot {self.slot}" + (f" ({self.names[run]})" if len(self.configs) > 1 else "")


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class SlotRecord:
    """One slot of a run, its MGs' log rows held as columns.

    ``columns[i, k]`` is field ``_ROW_FLOATS[i]`` of MG k's row and
    ``oldest_age[k]`` its oldest pending job's age, in config order;
    `mgtrade.logs.RunLogs` renders the slot's slots.csv lines from them, and
    its auction_audit.csv lines from those lines as written.
    """

    slot: int
    columns: Any
    oldest_age: Any
    market: MarketRow
    violations: tuple[str, ...]


def _monitor(
    slot: int, fleet: Fleet, battery_kwh, demand_kwh, delay_kwh, spill, oldest_age, runs: int
) -> list[tuple[str, ...]]:
    """Check every MG's queue/battery bounds after the slot's updates, run by run.

    ``oldest_age`` is the age of each MG's oldest pending job at the start
    of the next slot; jobs are served oldest first, so no other job is older.
    `battery_step` has already rejected charging and discharging at once.
    """
    # one test of them all; the table of which MG broke which only when one did
    inside = (-FEAS_TOL <= battery_kwh) & (battery_kwh <= fleet.battery_capacity_kwh + FEAS_TOL)
    limits = np.array((fleet.q_max, fleet.z_max, fleet.delta_max_slots)) + FEAS_TOL
    over, short = np.array((demand_kwh, delay_kwh, oldest_age)) > limits, spill < -FEAS_TOL
    if np.count_nonzero(inside) == len(inside) and not np.count_nonzero(over) + np.count_nonzero(short):
        return [()] * runs
    failed = np.array([~inside, over[0], over[1], short, over[2]])
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
    but the market: the MGs of each auction-mode run post their own book,
    which it clears. Returns each run's record of the slot.
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
    fills, markets = np.zeros((4, size)), [MarketRow(0.0, 0.0, 0.0, 0.0)] * len(configs)
    for k, (cfg, at) in enumerate(zip(configs, runs)):
        if cfg.mode != MODE_AUCTION:  # a solo run posts no book
            continue
        try:
            run_bids = Bids(bids[0][at], bids[1][at], bids[2][at], bids[3][at])
            outcome = clear(OrderBook.from_bids(fleet.id[at], run_bids, cfg.rho1, cfg.rho2), price)
            surplus = budget_check(outcome)
        except Exception as e:
            raise SimError(f"{world.where(k)}: market stage failed: {e}") from e
        fills[:, at] = outcome.fills(n)
        markets[k] = MarketRow(
            outcome.buy_clearing_price, outcome.sell_clearing_price, outcome.total_volume(), surplus
        )

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
    oldest_age = oldest_pending_age(inputs.arrived_kwh, served, t + 1, int(world.finished.min()))
    violations = _monitor(t, fleet, new_b, new_q, new_z, spill, oldest_age, len(configs))

    columns = np.array((
        b, q, z, x, r, di, dt, b, *bids, bought, sold, buy_unit, sell_unit, c, d, j, g, spill, cost,
    ))
    columns[7] = price  # every MG's row logs the slot's one grid price
    records = [
        SlotRecord(t, columns[:, at], oldest_age[at], market, bad)
        for at, market, bad in zip(runs, markets, violations)
    ]
    finished = t + 1 - oldest_age
    return World(configs, fleet, new_b, new_q, new_z, served, finished, t + 1, world.names), records


# How many slots `fold_runs` holds before it hands them on, at least, and how
# many logged floats, at most, once that is more slots: numpy's per-call cost
# is paid once a block, the log writers format a block in one go rather than
# between the steps, and a block's memory does not grow with the horizon.
# 8,192 floats are 54 slots of 6 MGs.
_BLOCK_SLOTS, _BLOCK_FLOATS = 16, 8192
# the columns `_SUMMARY_OF` totals; then those it takes an extreme of but the age,
# each with the sign that makes its extreme the largest value
_TOTALLED = [_ROW_FLOATS.index(column) for _, reduce_, column in _SUMMARY_OF if reduce_ is sum]
_TOPPED = [
    (_ROW_FLOATS.index(column), 1.0 if reduce_ is max else -1.0)
    for _, reduce_, column in _SUMMARY_OF if reduce_ is not sum and column in _ROW_FLOATS
]
_TOPPED_SIGN = np.array([[sign] for _, sign in _TOPPED])
_FOLDED = np.array(_TOTALLED + [row for row, _ in _TOPPED])  # the rows a fold reads, in order


def _first_largest(carried, rows):
    """Per column, the value `max` picks from ``carried`` and then ``rows``, in order:
    the first value that no later one exceeds. A NaN exceeds nothing and, carried,
    is exceeded by nothing; ``argmax`` takes the first of equal values, so of
    zeros of either sign the first one."""
    rows = np.where(np.isnan(rows), -np.inf, rows)
    first = np.take_along_axis(rows, rows.argmax(axis=0)[np.newaxis], axis=0)[0]
    return np.where(first > carried, first, carried)


class RunFold:
    """A run's `RunSummary`, folded from its records a block of slots at a time,
    in slot order (`add`).

    Each block's reduction starts from the values of the blocks before, so
    each MG's fields are those of
    `_SUMMARY_OF`'s reductions of its whole logged columns, bit for bit. A
    total is a plain float sum in slot order from 0, as `sum` adds on Python
    3.11 (`np.add.accumulate` adds one slot after another), and an extreme
    is the value `max` or `min` picks (`_first_largest`; a smallest value is
    the largest of the negated ones, and negation is exact). The worst job
    age is the largest logged ``oldest_pending_age``: a run starts with no
    backlog, jobs are served oldest first and never in the slot they arrive,
    so a served job is never older than the oldest job pending at the end of
    the slot before.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.slots, self.traded, self.violations = 0, 0, []
        self.totals = np.zeros((len(_TOTALLED), len(config.mgs)))  # (field, MG) so far
        self.tops = self.ages = None  # (field, MG) and (MG,) so far, once a slot is in

    def add(self, block: Sequence[SlotRecord]) -> None:
        """Fold the records of the next slots, one or more, in slot order."""
        for rec in block:
            self.traded += rec.market.volume_kwh
            self.violations += rec.violations
        logged = np.array([rec.columns[_FOLDED] for rec in block])  # (slot, row, MG)
        ages = np.array([rec.oldest_age for rec in block])  # (slot, MG)
        self.slots += len(block)
        totals = logged[:, :len(_TOTALLED)]
        totals[0] += self.totals
        self.totals = np.add.accumulate(totals)[-1]
        tops = logged[:, len(_TOTALLED):] * _TOPPED_SIGN
        if self.tops is None:  # `max` starts from the first slot's value
            self.tops, self.ages, tops, ages = tops[0], ages[0], tops[1:], ages[1:]
        if len(tops):
            self.tops = _first_largest(self.tops, tops)
            self.ages = np.maximum(self.ages, ages.max(axis=0))

    def summary(self) -> RunSummary:
        totals = iter(self.totals.tolist())
        tops = iter((self.tops * _TOPPED_SIGN).tolist())
        columns = [
            next(totals) if reduce_ is sum
            else self.ages.tolist() if column == "oldest_pending_age" else next(tops)
            for _, reduce_, column in _SUMMARY_OF
        ]
        # the time average is the total cost, `_SUMMARY_OF`'s first field, over the horizon
        per_mg = {
            m.params.id: MGSummary(m.params.id, fields[0] / self.slots, *fields)
            for m, fields in zip(self.config.mgs, zip(*columns))
        }
        return RunSummary(self.slots, per_mg, self.traded, tuple(self.violations))


def run(
    config: ScenarioConfig, traces: ScenarioTraces | None = None
) -> tuple[RunSummary, list[SlotRecord]]:
    """Simulate the whole horizon: the run's summary and its records, one per slot.
    Deterministic for a fixed config and seed."""
    if traces is None:
        traces = build_traces(config)
    records: list[SlotRecord] = []
    [summary] = fold_runs([config], realized_inputs(config, traces), sinks=[records.append])
    return summary, records


def fold_runs(
    configs: Sequence[ScenarioConfig],
    inputs: SlotInputs,
    names: Sequence[str] = (),
    sinks: Sequence[Callable[[SlotRecord], Any]] = (),
) -> list[RunSummary]:
    """Step runs of one MG count and horizon over the same drawn inputs
    (`step_runs`), and fold each run's summary a block of slots at a time.
    Each run's summary and records are the ones it gives stepped alone;
    ``names`` label the runs in error messages.

    The runs' records are held for a block of slots (`_BLOCK_SLOTS`); then
    each run's go to its sink in ``sinks``, if it has one, one after another
    in slot order, and to its fold, and are dropped. No more than a block of
    records is held, whatever the horizon, and a sink that writes logs
    formats a block at a time: slot by slot between the steps, a 96-MG x
    120-slot run took 5-14% longer.
    """
    folds = [RunFold(c) for c in configs]
    size = max(_BLOCK_SLOTS, _BLOCK_FLOATS // (len(_ROW_FLOATS) * len(configs[0].mgs)))
    block: list[list[SlotRecord]] = []

    def hand_on() -> None:
        runs = list(zip(*block))  # each run's records of the block
        for sink, records in zip(sinks, runs):
            for rec in records:
                sink(rec)
        for fold, records in zip(folds, runs):
            fold.add(records)
        block.clear()

    for records in step_runs(configs, inputs, names):
        block.append(records)
        if len(block) == size:
            hand_on()
    hand_on()
    return [fold.summary() for fold in folds]


def step_runs(
    configs: Sequence[ScenarioConfig], inputs: SlotInputs, names: Sequence[str] = ()
) -> Iterator[list[SlotRecord]]:
    """Step runs of one MG count and horizon over the same drawn inputs as one
    world, and yield each slot's records, one per run, in slot order."""
    horizon = configs[0].horizon_slots
    if any(len(c.mgs) != len(configs[0].mgs) or c.horizon_slots != horizon for c in configs):
        raise SimError("runs stepped together need one MG count and one horizon")
    if len(inputs) < horizon:
        raise SimError(f"inputs cover {len(inputs)} slots of {horizon}")
    world = World.initial(*configs, names=names)
    if len(configs) > 1:  # every run reads the same input columns; one run reads them as they are
        columns = inputs.renewable_kwh, inputs.di_load_kwh, inputs.dt_load_kwh
        inputs = SlotInputs(*(np.tile(c, (1, len(configs))) for c in columns), inputs.grid_price)
    for _ in range(horizon):
        world, records = step(world, inputs)
        yield records


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
