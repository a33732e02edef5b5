"""Slot-by-slot simulation across microgrids, plus oracles and audits.

Each slot runs a two-stage protocol: every MG computes its bid pair from its
queues, the auctioneer clears (unless the run is in no_auction mode), then
every MG solves its slot program with the cleared trade fixed and the queues
advance. Everything is pure-functional: `step` maps a world and the
horizon's exogenous inputs to the next slot's world plus a flat record, so
replays and golden logs are exact. A world holds every MG's state as
columns, and each stage of a step is one array expression over all MGs,
the market's included; only the clearing's per-bid loops read Python
floats. A record keeps the slot's columns and book order, not its book, and
its log rows and audit lines are built from them when they are written.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, mul
from pathlib import Path
from typing import Any, NamedTuple, get_type_hints

from .auction import ClearingOutcome, OrderBook, budget_check, clear
from .controller import (
    make_bids,
    post_trade_settlement,
    solve_slot_program,
    spilled_kwh,
)
from .errors import ConfigError, ParseError, RejectedAction, SimError
from .flow import min_cost_flow
from .ingest import (
    LoadModel,
    Trace,
    draw_load_grid,
    load_trace,
    scale_wind,
    synthetic_price,
    synthetic_wind,
)
from .model import (
    FEAS_TOL,
    DerivedBounds,
    Fleet,
    MGParams,
    PriceBounds,
    SlotInputs,
    battery_step,
    compute_bounds,
    delay_queue_step,
    demand_queue_step,
    initial_battery,
    oldest_pending_age,
    virtual_battery,
    within,
)

MODE_AUCTION = "with_auction"
MODE_SOLO = "no_auction"


@dataclass(frozen=True)
class MGSpec:
    """Everything scenario-level about one MG: physics, loads, renewables."""

    params: MGParams
    load_model: LoadModel
    renewable_mean_kwh: float

    def __post_init__(self) -> None:
        if self.renewable_mean_kwh < 0:
            raise ConfigError(f"mg {self.params.id}: renewable mean must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    mgs: tuple[MGSpec, ...]
    price_bounds: PriceBounds
    horizon_slots: int
    rho1: float
    rho2: float
    mode: str
    seed: int
    initial_battery_kwh: float | None = None

    def __post_init__(self) -> None:
        if self.horizon_slots < 1:
            raise ConfigError("horizon_slots must be >= 1")
        if self.mode not in (MODE_AUCTION, MODE_SOLO):
            raise ConfigError(f"mode must be {MODE_AUCTION!r} or {MODE_SOLO!r}")
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise ConfigError("rho1 and rho2 must be > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.mgs:
            raise ConfigError("need at least one MG")
        ids = [m.params.id for m in self.mgs]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate mg ids: {ids}")
        for m in self.mgs:
            # raises if v_weight > v_max for this price band
            compute_bounds(m.params, self.price_bounds)
            lm = m.load_model
            dt_draw_max = 2.0 * lm.dt_share * lm.high_kwh
            if m.params.dt_load_max_kwh + FEAS_TOL < dt_draw_max:
                raise ConfigError(
                    f"mg {m.params.id}: dt_load_max_kwh {m.params.dt_load_max_kwh} "
                    f"below the largest possible draw {dt_draw_max}"
                )

    def bounds(self) -> tuple[DerivedBounds, ...]:
        return tuple(compute_bounds(m.params, self.price_bounds) for m in self.mgs)


@dataclass(frozen=True)
class ScenarioTraces:
    renewables: tuple[Trace, ...]
    prices: Trace


def mg_subseed(seed: int, index: int) -> int:
    """Stable per-MG stream seed; distinct streams come from tags in ingest."""
    return seed * 1009 + index


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
    import numpy as np

    h = config.horizon_slots
    for k, tr in enumerate((traces.prices, *traces.renewables)):
        if len(tr.values) < h:
            name = f"renewable trace {k - 1}" if k else "price trace"
            raise ConfigError(f"{name} covers {len(tr.values)} slots, horizon needs {h}")
    di, dt = draw_load_grid([m.load_model for m in config.mgs], range(h))
    renewable = [tr.values[:h] for tr in traces.renewables]
    return SlotInputs(np.array(renewable).T, di.T, dt.T, traces.prices.values[:h])


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class World:
    """Every MG's state at the start of `slot`, as columns: entry k is MG k.

    ``served_kwh`` is the delay-tolerant work each MG served before `slot`.
    With the horizon's arrival prefix sums it names the oldest pending job,
    so the job FIFO itself is never stored.
    """

    config: ScenarioConfig
    fleet: Fleet
    battery_kwh: Any
    demand_queue_kwh: Any
    delay_queue_kwh: Any
    served_kwh: Any
    slot: int

    @classmethod
    def initial(cls, config: ScenarioConfig) -> "World":
        import numpy as np

        params, bounds = [m.params for m in config.mgs], config.bounds()
        b0 = config.initial_battery_kwh
        battery = np.array([initial_battery(p, b, b0) for p, b in zip(params, bounds)])
        empty = (np.zeros(len(params)) for _ in range(3))  # Q, Z, served
        return cls(config, Fleet.of(params, bounds), battery, *empty, slot=0)


class MGSlotRow(NamedTuple):
    """One MG's full accounting for one slot (state is start-of-slot)."""

    slot: int
    mg_id: int
    battery_kwh: float
    demand_queue_kwh: float
    delay_queue_kwh: float
    virtual_kwh: float
    renewable_kwh: float
    di_load_kwh: float
    dt_load_kwh: float
    grid_price: float
    bid_sell_price: float
    bid_buy_price: float
    bid_sell_qty: float
    bid_buy_qty: float
    bought_kwh: float
    sold_kwh: float
    buy_unit_price: float
    sell_unit_price: float
    charge_kwh: float
    discharge_kwh: float
    serve_kwh: float
    grid_kwh: float
    spill_kwh: float
    cost: float
    oldest_pending_age: int


class MarketRow(NamedTuple):
    """The slot's clearing prices, volume and auctioneer surplus."""

    buy_price: float
    sell_price: float
    volume_kwh: float
    surplus: float


# the float fields of a log row: all but the slot, the MG id and the age
_ROW_FLOATS = MGSlotRow._fields[2:-1]


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
    slot: int, fleet: Fleet, battery_kwh, demand_kwh, delay_kwh, spill, oldest_age
) -> list[str]:
    """Check every MG's queue/battery bounds after the slot's updates.

    ``oldest_age`` is the age of each MG's oldest pending job at the start
    of the next slot; jobs are served oldest first, so no other job is older.
    `battery_step` has already rejected charging and discharging at once.
    """
    import numpy as np

    failed = np.array([
        ~((-FEAS_TOL <= battery_kwh) & (battery_kwh <= fleet.battery_capacity_kwh + FEAS_TOL)),
        demand_kwh > fleet.q_max + FEAS_TOL, delay_kwh > fleet.z_max + FEAS_TOL,
        spill < -FEAS_TOL, oldest_age > fleet.delta_max_slots + FEAS_TOL,
    ])
    if not failed.any():
        return []
    bad: list[str] = []
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
        bad.extend(f"{tag}: {why}" for why, hit in zip(reasons, failed[:, k]) if hit)
    return bad


def step(world: World, inputs: SlotInputs) -> tuple[World, SlotRecord]:
    """Advance every MG one slot: bids, clearing, slot programs, queue updates.

    ``inputs`` holds the whole horizon; the step reads its row ``world.slot``,
    and the arrival prefix sums up to it for the job ages.
    """
    import numpy as np

    cfg, fleet, t = world.config, world.fleet, world.slot
    n, got = len(fleet.id), inputs.renewable_kwh.shape[1]
    if got != n:
        raise SimError(f"slot {t}: got {got} inputs for {n} MGs")
    r, di, dt, price = inputs.slot(t)
    b, q, z = world.battery_kwh, world.demand_queue_kwh, world.delay_queue_kwh
    try:
        bids = make_bids(q, z, r, di, fleet)
        book = OrderBook.from_bids(fleet.id, bids, cfg.rho1, cfg.rho2)
        outcome = clear(book, price) if cfg.mode == MODE_AUCTION else ClearingOutcome.empty()
        surplus = budget_check(outcome)
    except Exception as e:
        raise SimError(f"slot {t}: market stage failed: {e}") from e

    bought, sold, buy_unit, sell_unit = outcome.fills(n)
    x = virtual_battery(b, fleet, fleet)
    action = solve_slot_program(b, q, z, x, r, di, price, bought, sold, fleet)
    try:
        new_b = battery_step(b, action, fleet)
    except RejectedAction as e:
        raise SimError(f"slot {t} {e}") from e
    c, d, j, g = action[:4]
    cost = post_trade_settlement(price, g, buy_unit, bought, sell_unit, sold)
    spill = spilled_kwh(r, di, action)
    new_z = delay_queue_step(z, q, j, fleet)
    new_q = demand_queue_step(q, j, dt)
    served = world.served_kwh + j
    oldest_age = oldest_pending_age(inputs.arrived_kwh, served, t + 1)
    violations = _monitor(t, fleet, new_b, new_q, new_z, spill, oldest_age)

    columns = np.array((
        b, q, z, x, r, di, dt, np.full(n, price), *bids, bought, sold, buy_unit, sell_unit,
        c, d, j, g, spill, cost,
    ))
    market = MarketRow(
        outcome.buy_clearing_price, outcome.sell_clearing_price,
        outcome.total_volume(), surplus,
    )
    record = SlotRecord(
        t, columns, oldest_age, market, tuple(violations), fleet.id, book.buy_bids, book.sell_bids
    )
    return World(cfg, fleet, new_b, new_q, new_z, served, t + 1), record


class MGSummary(NamedTuple):
    mg_id: int
    time_avg_cost: float
    total_cost: float
    total_grid_kwh: float
    total_bought_kwh: float
    total_sold_kwh: float
    total_served_kwh: float
    max_q_kwh: float
    max_z_kwh: float
    min_b_kwh: float
    max_b_kwh: float
    max_job_age_slots: int


@dataclass(frozen=True)
class RunSummary:
    mode: str
    horizon_slots: int
    per_mg: dict[int, MGSummary]
    total_cost: float
    total_grid_kwh: float
    total_traded_kwh: float
    violation_count: int
    violations: tuple[str, ...] = field(default_factory=tuple)

    def mean_time_avg_cost(self) -> float:
        return self.total_cost / (len(self.per_mg) * self.horizon_slots)

    def max_job_age(self) -> int:
        return max((s.max_job_age_slots for s in self.per_mg.values()), default=0)


def summarize(config: ScenarioConfig, records: list[SlotRecord]) -> RunSummary:
    """Per-MG totals and extremes of a run.

    The worst job age is the largest logged ``oldest_pending_age``: a run
    starts with no backlog, jobs are served oldest first and never in the
    slot they arrive, so a served job is never older than the oldest job
    pending at the end of the slot before.
    """
    import numpy as np

    horizon = len(records)
    violations: list[str] = []
    for rec in records:
        violations.extend(rec.violations)
    logged = np.array([rec.columns for rec in records])  # (slot, field, MG)

    def each_mg(reduce, field: str) -> list:
        """`reduce` of each MG's logged `field`, its slots in order."""
        return list(map(reduce, logged[:, _ROW_FLOATS.index(field)].T.tolist()))

    costs = each_mg(sum, "cost")
    ages = map(max, np.array([rec.oldest_age for rec in records]).T.tolist())
    per_mg = {
        m.params.id: MGSummary(m.params.id, cost / horizon, cost, *totals, age)
        for m, cost, *totals, age in zip(
            config.mgs, costs,
            each_mg(sum, "grid_kwh"), each_mg(sum, "bought_kwh"),
            each_mg(sum, "sold_kwh"), each_mg(sum, "serve_kwh"),
            each_mg(max, "demand_queue_kwh"), each_mg(max, "delay_queue_kwh"),
            each_mg(min, "battery_kwh"), each_mg(max, "battery_kwh"), ages,
        )
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
    if len(inputs) < config.horizon_slots:
        raise SimError(f"inputs cover {len(inputs)} slots of {config.horizon_slots}")
    world = World.initial(config)
    records: list[SlotRecord] = []
    for _ in range(config.horizon_slots):
        world, rec = step(world, inputs)
        records.append(rec)
    return summarize(config, records), records


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


@dataclass(frozen=True)
class AuditLine:
    check: str
    status: str  # PASS / FAIL / SKIP
    detail: str


@dataclass(frozen=True)
class AuditReport:
    lines: tuple[AuditLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.status != "FAIL" for line in self.lines)

    def render(self) -> str:
        width = max(len(line.check) for line in self.lines)
        out = [
            f"{line.check:<{width}}  {line.status:<4}  {line.detail}"
            for line in self.lines
        ]
        verdict = "ALL CHECKS PASSED" if self.passed else "FAILURES PRESENT"
        return "\n".join(out + [verdict])


def bound_audit(
    summary: RunSummary,
    config: ScenarioConfig,
    oracle: dict[int, float] | None = None,
) -> AuditReport:
    """Assert the stability guarantees on a finished run.

    Per MG: time-average cost within a_const / v_weight of the oracle (when
    one is supplied), zero recorded bound violations, job ages under the
    worst-case ceiling, and the v_weight <= v_max precondition.
    """
    lines: list[AuditLine] = []

    def check(name: str, ok: bool | None, detail: str) -> None:
        status = "SKIP" if ok is None else "PASS" if ok else "FAIL"
        lines.append(AuditLine(check=name, status=status, detail=detail))

    for m in config.mgs:
        mid = m.params.id
        s = summary.per_mg[mid]
        try:
            db = compute_bounds(m.params, config.price_bounds)
        except ConfigError as e:
            # e.g. a v_weight pushed past v_max after construction: flag the
            # precondition breach instead of crashing the audit
            check(f"mg{mid} v_weight precondition", False, str(e))
            continue
        check(
            f"mg{mid} v_weight precondition", True,
            f"v={m.params.v_weight:.6f} v_max={db.v_max:.6f}",
        )
        check(
            f"mg{mid} demand queue ceiling", s.max_q_kwh <= db.q_max + FEAS_TOL,
            f"max Q={s.max_q_kwh:.6f} q_max={db.q_max:.6f}",
        )
        check(
            f"mg{mid} delay queue ceiling", s.max_z_kwh <= db.z_max + FEAS_TOL,
            f"max Z={s.max_z_kwh:.6f} z_max={db.z_max:.6f}",
        )
        b_ok = (
            s.min_b_kwh >= -FEAS_TOL
            and s.max_b_kwh <= m.params.battery_capacity_kwh + FEAS_TOL
        )
        check(
            f"mg{mid} battery range", b_ok, f"B in [{s.min_b_kwh:.6f}, {s.max_b_kwh:.6f}]"
        )
        check(
            f"mg{mid} worst job age", s.max_job_age_slots <= db.delta_max_slots + FEAS_TOL,
            f"age={s.max_job_age_slots} bound={db.delta_max_slots:.3f}",
        )
        if oracle is None:
            check(
                f"mg{mid} cost gap vs oracle", None,
                "`mgtrade run` does not solve the oracle; `mgtrade sweep` does",
            )
        else:
            gap_cap = db.a_const / m.params.v_weight
            check(
                f"mg{mid} cost gap vs oracle",
                s.time_avg_cost <= oracle[mid] + gap_cap + 1e-6,
                f"online={s.time_avg_cost:.6f} oracle={oracle[mid]:.6f} a/v={gap_cap:.6f}",
            )
    check(
        "recorded violations", summary.violation_count == 0,
        f"count={summary.violation_count}",
    )
    return AuditReport(lines=tuple(lines))


def _log_columns(cls, prefix: str = "") -> tuple[tuple[str, ...], str]:
    """Column names of a log record class and the %-format of one record's cells.

    The record's annotated fields are the columns, in order. Fields declared
    ``float`` are written at 6 decimals (``%.6f`` renders as ``format(x,
    ".6f")`` does), every other field as it is. No cell needs CSV quoting.
    """
    hints = get_type_hints(cls)
    cells = ",".join("%.6f" if t is float else "%s" for t in hints.values())
    return tuple(prefix + n for n in hints), cells


# lines end as csv.writer ends them
_EOL = "\r\n"
_MG_COLUMNS, _MG_CELLS = _log_columns(MGSlotRow)
_MARKET_COLUMNS, _MARKET_CELLS = _log_columns(MarketRow, prefix="market_")
SLOTS_HEADER = _MG_COLUMNS + _MARKET_COLUMNS
# positions of the fields declared ``int``, whose logged values must be whole
_WHOLE_CELLS = tuple(
    SLOTS_HEADER.index(n) for n, t in get_type_hints(MGSlotRow).items() if t is int
)


def write_slots_csv(path, records: list[SlotRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SLOTS_HEADER) + _EOL)
        for rec in records:
            line = _MG_CELLS + "," + _MARKET_CELLS % rec.market + _EOL
            fh.writelines(line % row for row in rec.rows)


_SUMMARY_COLUMNS, _SUMMARY_CELLS = _log_columns(MGSummary)
SUMMARY_HEADER = _SUMMARY_COLUMNS + ("violations",)


def write_summary_csv(path, summary: RunSummary) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SUMMARY_HEADER) + _EOL)
        line = _SUMMARY_CELLS + f",{summary.violation_count}" + _EOL
        for mid in sorted(summary.per_mg):
            fh.write(line % summary.per_mg[mid])


# auction_audit.csv: the fields of an `audit_rows` line and their cells
AUDIT_HEADER = (
    "slot", "mg_id", "side", "price", "quantity", "accepted", "cleared_price",
    "cleared_quantity",
)
_AUDIT_CELLS = "%s,%s,%s,%.6f,%.6f,%s,%.6f,%.6f"
# each side's bid price and kWh, fill and unit price, as the log rows name them
_SIDE_FIELDS = {
    side: (f"bid_{side}_price", f"bid_{side}_qty", fill, f"{side}_unit_price")
    for side, fill in (("buy", "bought_kwh"), ("sell", "sold_kwh"))
}
# and the rows of a record's columns that hold them
_SIDE_ROWS = {side: list(map(_ROW_FLOATS.index, names)) for side, names in _SIDE_FIELDS.items()}


def audit_rows(record: SlotRecord) -> list[tuple]:
    """The slot's audit lines: every live bid, buys then sells, each side in book order.

    A line is (slot, MG id, side, price, quantity, accepted, cleared price,
    cleared quantity), read from the record's columns. A bid is accepted
    when its MG traded on its side; its cleared price is then its unit price
    and its cleared quantity its fill, and both are zero otherwise.
    """
    rows: list[tuple] = []
    for side, at in (("buy", record.buy_bids), ("sell", record.sell_bids)):
        price, kwh, got, unit = record.columns[_SIDE_ROWS[side]][:, at]
        rows.extend(zip(
            repeat(record.slot), [record.ids[k] for k in at.tolist()], repeat(side),
            price.tolist(), kwh.tolist(), (got > 0.0).astype(int).tolist(), unit.tolist(),
            got.tolist(),
        ))
    return rows


def write_audit_csv(path, records: list[SlotRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(AUDIT_HEADER) + _EOL)
        line = _AUDIT_CELLS + _EOL
        for rec in records:
            fh.writelines(line % row for row in audit_rows(rec))


def log_number(path, line: int, column: str, cell: str) -> float:
    """A logged finite number; any other cell is a ParseError naming where it sits."""
    try:
        x = float(cell)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ParseError(
            f"{path}: line {line}, column {column!r}: {cell!r} is not a finite number"
        )
    return x


def log_numbers(path, line: int, columns, cells) -> list[float]:
    """A log line's cells as finite numbers, each checked by `log_number` if need be."""
    try:
        values = list(map(float, cells))
        if math.isfinite(sum(values)):
            return values
    except ValueError:
        pass
    return [log_number(path, line, *cc) for cc in zip(columns, cells)]


def log_lines(path, header: tuple[str, ...], error=SimError):
    """A log's nonblank rows after its header, as (line, cells).

    Logs quote no cell (see `_log_columns`), so a row is its line split at
    the commas. A missing log or a different header raises `error`; a
    ragged row is a ParseError.
    """
    if not Path(path).exists():
        raise error(f"missing log: {path}")
    with open(path, newline="") as fh:
        found = fh.readline().rstrip("\r\n").split(",")
        if tuple(found) != header:
            raise error(f"{path}: unexpected header {found}")
        for line, text in enumerate(fh, 2):
            cells = text.rstrip("\r\n").split(",")
            if len(cells) != len(header):
                if cells == [""]:
                    continue
                raise ParseError(
                    f"{path}: line {line}: {len(cells)} cells, header has {len(header)}"
                )
            yield line, cells


def read_slots_csv(path) -> list[dict[str, float]]:
    """Parse a slots log back into numeric dict rows (ids and slots as floats).

    A column of an ``int`` field must hold a whole number.
    """
    out: list[dict[str, float]] = []
    for line, cells in log_lines(path, SLOTS_HEADER):
        values = log_numbers(path, line, SLOTS_HEADER, cells)
        for i in _WHOLE_CELLS:
            if not values[i].is_integer():
                raise ParseError(
                    f"{path}: line {line}, column {SLOTS_HEADER[i]!r}: "
                    f"{cells[i]!r} is not a whole number"
                )
        out.append(dict(zip(SLOTS_HEADER, values)))
    if not out:
        raise SimError(f"{path}: no rows")
    return out


# each side's bid price and kWh, fill, unit price and market price in slots.csv
_SIDE_COLUMNS = {
    side: itemgetter(*names, f"market_{side}_price") for side, names in _SIDE_FIELDS.items()
}


def verify_audit_csv(path, rows: list[dict[str, float]]) -> list[str]:
    """Check auction_audit.csv line by line against the slots log `rows`.

    Every bid logged with a positive quantity has one line, buys then sells
    in book order (rounding may tie prices), with the MG's logged bid, fill
    and, when accepted, the market price. A line is accepted when its fill or
    unit price is nonzero: in memory a fill is positive exactly when the unit
    price is the positive market price.
    """
    logged = {(r["slot"], r["mg_id"]): r for r in rows}
    listed: dict[tuple[float, float], str] = {}  # the side of each listed bid
    problems: list[str] = []

    def problem(why: str) -> None:  # about the line being read
        problems.append(f"auction_audit.csv line {line}: slot {cells[0]} mg {cells[1]}: {why}")

    last = (-math.inf,)  # the book order key of the line before
    for line, cells in log_lines(path, AUDIT_HEADER):
        try:  # a cell that is not finite matches no logged number
            slot, mid, price, kwh, accepted, paid, got = map(float, cells[:2] + cells[3:])
        except ValueError:  # which `log_numbers` names
            log_numbers(path, line, AUDIT_HEADER[:2] + AUDIT_HEADER[3:], cells[:2] + cells[3:])
        side, key = cells[2], (slot, mid)
        r, columns = logged.get(key), _SIDE_COLUMNS.get(side)
        if r is None or columns is None or key in listed:
            problem("no such bid in slots.csv, or listed twice")
            continue
        listed[key] = side
        at = (slot, side, price if side == "sell" else -price)  # "buy" < "sell"
        if at < last:
            problem("out of book order")
        last = at
        bid_price, bid_kwh, fill, unit, market = columns(r)
        won = fill != 0.0 or unit != 0.0
        want = bid_price, bid_kwh, won, market if won else 0.0, fill
        if (price, kwh, accepted, paid, got) != want:
            problem(f"{cells[3:]} != {_AUDIT_CELLS[9:] % want} from slots.csv")
    for key, r in logged.items():
        side = "buy" if r["bid_buy_qty"] > 0.0 else "sell" if r["bid_sell_qty"] > 0.0 else None
        if side and listed.get(key) != side:
            problems.append(f"slot {key[0]:.0f} mg {key[1]:.0f}: no audit line for its {side} bid")
    return problems


# the recorded cost's operands: grid price and kWh, buy and sell price and kWh
_COST_OPERANDS = itemgetter(
    "grid_price", "grid_kwh", "buy_unit_price", "bought_kwh", "sell_unit_price",
    "sold_kwh",
)

# a bid's columns, and the logged columns `make_bids` posts it from
_BID_COLUMNS = itemgetter("bid_sell_price", "bid_buy_price", "bid_sell_qty", "bid_buy_qty")
_BID_OPERANDS = itemgetter("demand_queue_kwh", "delay_queue_kwh", "renewable_kwh", "di_load_kwh")

# Tolerance of the log checks. Logs hold 6-decimal renderings, so this is loose
# relative to the in-memory checks but still far below any physical quantity.
LOG_TOL = 1e-4


def verify_log_rows(config: ScenarioConfig, rows: list[dict[str, float]]) -> list[str]:
    """Re-derive every per-slot invariant from a written log alone.

    Every configured MG must log exactly one row per slot of the horizon.
    Quantities are compared within `LOG_TOL`; the recomputed cost also
    allows for the rounding of its six operands. Each row's
    ``oldest_pending_age`` is re-derived, as the run derives it, from the
    prefix sums of the logged ``dt_load_kwh`` and ``serve_kwh``, and each
    MG's slot-0 battery must be the ``initial_battery`` of the config.
    """
    problems: list[str] = []
    bounds_all = {m.params.id: b for m, b in zip(config.mgs, config.bounds())}
    params_all = {m.params.id: m.params for m in config.mgs}
    by_mg: dict[int, list[dict[str, float]]] = {}
    by_slot: dict[int, list[dict[str, float]]] = {}
    for row in rows:
        by_mg.setdefault(int(row["mg_id"]), []).append(row)
        by_slot.setdefault(int(row["slot"]), []).append(row)

    horizon = range(config.horizon_slots)
    for mid in params_all:
        slots = sorted(int(r["slot"]) for r in by_mg.get(mid, ()))
        if slots != list(horizon):
            problems.append(
                f"mg {mid}: logged slots are not 0..{horizon[-1]}: "
                f"{len(set(horizon) - set(slots))} missing, "
                f"{len(slots) - len(set(slots))} repeated"
            )

    for mid, mg_rows in by_mg.items():
        if mid not in params_all:
            problems.append(f"mg {mid}: not in config")
            continue
        p = params_all[mid]
        db = bounds_all[mid]
        mg_rows.sort(key=lambda r: r["slot"])
        # the run starts from `initial_battery`, which the log renders to 6 decimals
        b0 = initial_battery(p, db, config.initial_battery_kwh)
        first = mg_rows[0]["battery_kwh"]
        if mg_rows[0]["slot"] == 0 and abs(first - b0) > 5e-7 + 2.0**-50 * b0:
            problems.append(f"slot 0 mg {mid}: battery {first} != initial battery {b0}")
        arrived: list[float] = []  # logged work arrived by the end of each slot
        served = 0.0
        for r in mg_rows:
            t = int(r["slot"])
            tag = f"slot {t} mg {mid}"
            arrived.append((arrived[-1] if arrived else 0.0) + r["dt_load_kwh"])
            served += r["serve_kwh"]
            # the age as `oldest_pending_age` derives it; every logged kWh is off
            # by up to 5e-7 and each sum by its rounding, so a job boundary that
            # close to the threshold admits either side
            slack = len(arrived) * (1e-6 + 2.0**-52 * (arrived[-1] + abs(served)))
            ages = [t + 1 - bisect_right(arrived, served + FEAS_TOL + e) for e in (slack, -slack)]
            if not ages[0] <= r["oldest_pending_age"] <= ages[1]:
                problems.append(
                    f"{tag}: oldest pending age {r['oldest_pending_age']:.0f} is not "
                    f"{ages[0]}..{ages[1]}, from the logged serves and arrivals"
                )
            if not within(r["battery_kwh"], 0.0, p.battery_capacity_kwh, LOG_TOL):
                problems.append(f"{tag}: battery {r['battery_kwh']} out of range")
            if r["demand_queue_kwh"] > db.q_max + LOG_TOL:
                problems.append(f"{tag}: Q {r['demand_queue_kwh']} > {db.q_max}")
            if r["delay_queue_kwh"] > db.z_max + LOG_TOL:
                problems.append(f"{tag}: Z {r['delay_queue_kwh']} > {db.z_max}")
            if abs(r["virtual_kwh"] - virtual_battery(r["battery_kwh"], p, db)) > LOG_TOL:
                problems.append(f"{tag}: X {r['virtual_kwh']} != B - theta - D_max")
            if min(r["charge_kwh"], r["discharge_kwh"]) > LOG_TOL:
                problems.append(f"{tag}: simultaneous charge and discharge")
            operands = _COST_OPERANDS(r)
            pg, grid, pb, bought, ps, sold = operands
            expected_cost = pg * grid + pb * bought - ps * sold
            # each operand is off by at most 5e-7 after 6-decimal rounding, so
            # a product a*b is off by at most 5e-7 * (|a| + |b|)
            rounding = 5e-7 * sum(map(abs, operands))
            if abs(expected_cost - r["cost"]) > LOG_TOL + rounding:
                problems.append(f"{tag}: cost {r['cost']} != recomputed {expected_cost}")
            balance = (
                r["renewable_kwh"] + r["grid_kwh"] + r["discharge_kwh"] + r["bought_kwh"]
                - r["di_load_kwh"] - r["serve_kwh"] - r["sold_kwh"] - r["charge_kwh"]
            )
            if balance < -LOG_TOL:
                problems.append(f"{tag}: balance short by {-balance}")
            if abs(balance - r["spill_kwh"]) > LOG_TOL:
                problems.append(f"{tag}: spill {r['spill_kwh']} != balance slack {balance}")
            if r["oldest_pending_age"] > db.delta_max_slots + LOG_TOL:
                problems.append(f"{tag}: pending job age {r['oldest_pending_age']}")
            # the bids `make_bids` posts from the logged Q, Z, R and I. Those and
            # the logged bids are off by up to 5e-7 each, so a price (Q + Z) / V
            # by 5e-7 + 1e-6 / V and a quantity by 1.5e-6, plus float rounding;
            # within that of R - I = 0 the MG may have sold or bought
            q, z, renewable, di = _BID_OPERANDS(r)
            sell_price, buy_price, sell_kwh, buy_kwh = bids = _BID_COLUMNS(r)
            value, surplus = (q + z) / p.v_weight, renewable - di
            slack = 1.5e-6 + 1e-6 / p.v_weight + 2.0**-50 * (value + q + renewable + di)
            wanted = min(max(p.serve_rate_max_kwh - renewable, 0.0), q)
            as_seller = abs(sell_kwh - surplus) <= slack and abs(buy_kwh) <= slack
            as_buyer = abs(sell_kwh) <= slack and abs(buy_kwh - wanted) <= slack
            if not (
                abs(sell_price - value) <= slack
                and abs(buy_price - max(value, p.price_floor)) <= slack
                and (surplus > -slack and as_seller or surplus < slack and as_buyer)
            ):
                problems.append(f"{tag}: bids {list(bids)} != make_bids of the logged Q, Z, R, I")
        for prev, cur in zip(mg_rows, mg_rows[1:]):
            t = int(cur["slot"])
            tag = f"slot {t} mg {mid}"
            want_b = prev["battery_kwh"] - prev["discharge_kwh"] + prev["charge_kwh"]
            if abs(cur["battery_kwh"] - want_b) > LOG_TOL:
                problems.append(f"{tag}: battery {cur['battery_kwh']} != step {want_b}")
            want_q = max(prev["demand_queue_kwh"] - prev["serve_kwh"], 0.0) + prev["dt_load_kwh"]
            if abs(cur["demand_queue_kwh"] - want_q) > LOG_TOL:
                problems.append(f"{tag}: Q {cur['demand_queue_kwh']} != step {want_q}")
            base_z = max(prev["delay_queue_kwh"] - prev["serve_kwh"], 0.0)
            if prev["demand_queue_kwh"] > LOG_TOL:
                candidates = (base_z + p.epsilon,)
            else:
                # backlog indistinguishable from zero at log precision; the
                # indicator could have read either way in memory
                candidates = (base_z, base_z + p.epsilon)
            if all(abs(cur["delay_queue_kwh"] - w) > LOG_TOL for w in candidates):
                problems.append(f"{tag}: Z {cur['delay_queue_kwh']} != step {candidates}")
    for t in sorted(by_slot):
        problems.extend(_market_problems(t, by_slot[t]))
    return problems


def _market_problems(t: int, rows: list[dict[str, float]]) -> list[str]:
    """Check one slot's market columns against each other and its MG rows.

    Rounding to 6 decimals keeps the order of two values, and renders two
    copies of one in-memory number identically, so the price checks are
    exact; sums and products allow for the rounding of their operands.
    """
    problems: list[str] = []
    first = rows[0]
    market = [first[k] for k in _MARKET_COLUMNS]
    pb, ps = first["market_buy_price"], first["market_sell_price"]
    volume, surplus = first["market_volume_kwh"], first["market_surplus"]
    grid = first["grid_price"]
    bought = sold = 0.0
    for r in rows:
        tag = f"slot {t} mg {int(r['mg_id'])}"
        if [r[k] for k in _MARKET_COLUMNS] != market:
            problems.append(f"{tag}: market columns differ from the slot's first row")
        if r["grid_price"] != grid:
            problems.append(f"{tag}: grid price differs from the slot's first row")
        if r["buy_unit_price"] not in (0.0, pb) or r["sell_unit_price"] not in (0.0, ps):
            problems.append(f"{tag}: unit price is not the market price")
        if r["bought_kwh"] > 0.0 and r["sold_kwh"] > 0.0:
            problems.append(f"{tag}: both bought and sold")
        bought += r["bought_kwh"]
        sold += r["sold_kwh"]
    tag = f"slot {t}"
    # every logged kWh is off by at most 5e-7
    slack = LOG_TOL + 5e-7 * (len(rows) + 1)
    if abs(bought - volume) > slack or abs(sold - volume) > slack:
        problems.append(
            f"{tag}: bought {bought:.6f} / sold {sold:.6f} kWh != market volume {volume}"
        )
    if volume > 0.0 and pb > grid:
        problems.append(f"{tag}: market buy price {pb} above grid price {grid}")
    if volume > 0.0 and pb < ps:
        problems.append(f"{tag}: market buy price {pb} below sell price {ps}")
    # pb - ps is off by at most 1e-6 and the volume by 5e-7
    if abs((pb - ps) * volume - surplus) > LOG_TOL + 5e-7 * (2 * abs(volume) + abs(pb - ps)):
        problems.append(f"{tag}: surplus {surplus} != (buy - sell price) * volume")
    return problems
