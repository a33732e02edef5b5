"""Slot-by-slot simulation across microgrids, plus oracles and audits.

Each slot runs a two-stage protocol: every MG computes its bid pair from its
queues, the auctioneer clears (unless the run is in no_auction mode), then
every MG solves its slot program with the cleared trade fixed and the queues
advance. Everything is pure-functional: `step` maps a world and the slot's
exogenous inputs to a new world plus a flat record, so replays and golden
logs are exact.

The offline oracle solves the whole horizon as one linear program per MG with
all randomness known and trading disabled. It is the benchmark the
drift-plus-penalty bound is audited against: online time-average cost must
stay within a_const / v_weight of it.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from .auction import (
    AuditRow,
    ClearingOutcome,
    OrderBook,
    audit_rows,
    budget_check,
    clear,
)
from .controller import (
    make_bids,
    post_trade_settlement,
    solve_slot_program,
    spilled_kwh,
)
from .errors import ConfigError, ParseError, SimError
from .ingest import LoadModel, Trace, draw_load_grid, synthetic_price, synthetic_wind
from .model import (
    FEAS_TOL,
    ControlAction,
    DerivedBounds,
    MGParams,
    MGState,
    PriceBounds,
    SlotInputs,
    battery_step,
    compute_bounds,
    delay_queue_step,
    demand_queue_step,
    initial_state,
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


def build_traces(config: ScenarioConfig) -> ScenarioTraces:
    """Synthetic renewable and price traces for a config (seeded, exact means)."""
    renewables = tuple(
        synthetic_wind(
            config.horizon_slots,
            m.renewable_mean_kwh,
            mg_subseed(config.seed, k),
        )
        for k, m in enumerate(config.mgs)
    )
    prices = synthetic_price(config.horizon_slots, config.price_bounds, config.seed)
    return ScenarioTraces(renewables=renewables, prices=prices)


def realized_inputs(
    config: ScenarioConfig, traces: ScenarioTraces
) -> list[tuple[SlotInputs, ...]]:
    """All slots' inputs, materialized once so oracles see the same draws.

    The loads of every MG and slot come from one `draw_load_grid` call.
    """
    if traces.prices.slot_count < config.horizon_slots:
        raise ConfigError(
            f"price trace covers {traces.prices.slot_count} slots, "
            f"horizon needs {config.horizon_slots}"
        )
    for k, tr in enumerate(traces.renewables):
        if tr.slot_count < config.horizon_slots:
            raise ConfigError(
                f"renewable trace {k} covers {tr.slot_count} slots, "
                f"horizon needs {config.horizon_slots}"
            )
    if len(traces.renewables) != len(config.mgs):
        raise ConfigError(
            f"{len(traces.renewables)} renewable traces for {len(config.mgs)} MGs"
        )
    di, dt = draw_load_grid(
        [m.load_model for m in config.mgs], range(config.horizon_slots)
    )
    renewables = zip(*(tr.values for tr in traces.renewables))
    return [
        tuple(map(SlotInputs, renewable, di_t, dt_t, repeat(price)))
        for renewable, di_t, dt_t, price in zip(
            renewables, zip(*di), zip(*dt), traces.prices.values
        )
    ]


@dataclass(frozen=True)
class World:
    config: ScenarioConfig
    bounds: tuple[DerivedBounds, ...]
    states: tuple[MGState, ...]
    slot: int

    @classmethod
    def initial(cls, config: ScenarioConfig) -> "World":
        bounds = config.bounds()
        states = tuple(
            initial_state(m.params, b, config.initial_battery_kwh)
            for m, b in zip(config.mgs, bounds)
        )
        return cls(config=config, bounds=bounds, states=states, slot=0)


@dataclass(frozen=True)
class MGSlotRow:
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


@dataclass(frozen=True)
class MarketRow:
    """The slot's clearing prices, volume and auctioneer surplus."""

    buy_price: float
    sell_price: float
    volume_kwh: float
    surplus: float


@dataclass(frozen=True)
class SlotRecord:
    slot: int
    rows: tuple[MGSlotRow, ...]
    market: MarketRow
    violations: tuple[str, ...]
    market_audit: tuple[AuditRow, ...] = ()  # book-ordered bid/fill lines


def _monitor(
    slot: int,
    params: MGParams,
    b: DerivedBounds,
    new_state: MGState,
    action: ControlAction,
    spill: float,
    oldest_age: int,
) -> list[str]:
    """Check every queue/battery bound after the slot's updates.

    ``oldest_age`` is the age of the oldest pending job at the start of the
    next slot; the FIFO is ordered by arrival, so no other job is older.
    """
    bad: list[str] = []
    tag = f"slot {slot} mg {params.id}"
    if not within(new_state.battery_kwh, 0.0, params.battery_capacity_kwh):
        bad.append(f"{tag}: battery {new_state.battery_kwh} outside [0, capacity]")
    if new_state.demand_queue_kwh > b.q_max + FEAS_TOL:
        bad.append(f"{tag}: Q {new_state.demand_queue_kwh} > q_max {b.q_max}")
    if new_state.delay_queue_kwh > b.z_max + FEAS_TOL:
        bad.append(f"{tag}: Z {new_state.delay_queue_kwh} > z_max {b.z_max}")
    if min(action.charge_kwh, action.discharge_kwh) > FEAS_TOL:
        bad.append(f"{tag}: charge and discharge both positive")
    if spill < -FEAS_TOL:
        bad.append(f"{tag}: energy balance short by {-spill}")
    if oldest_age > b.delta_max_slots + FEAS_TOL:
        arrival = slot + 1 - oldest_age
        bad.append(f"{tag}: job from slot {arrival} is {oldest_age} slots old")
    return bad


def step(world: World, inputs: tuple[SlotInputs, ...]) -> tuple[World, SlotRecord]:
    """Advance one slot: bids, clearing, per-MG slot programs, queue updates."""
    cfg = world.config
    t = world.slot
    if len(inputs) != len(cfg.mgs):
        raise SimError(f"slot {t}: got {len(inputs)} inputs for {len(cfg.mgs)} MGs")

    grid_price = inputs[0].grid_price
    if any(ins.grid_price != grid_price for ins in inputs):
        raise SimError(f"slot {t}: MGs disagree on the grid price")
    try:
        bids = tuple(
            make_bids(s, ins, m.params)
            for s, ins, m in zip(world.states, inputs, cfg.mgs)
        )
        book = OrderBook.from_bids(list(bids), cfg.rho1, cfg.rho2)
        if cfg.mode == MODE_AUCTION:
            outcome = clear(book, grid_price)
        else:
            outcome = ClearingOutcome.empty()
        surplus = budget_check(outcome)
    except Exception as e:
        raise SimError(f"slot {t}: market stage failed: {e}") from e

    new_states: list[MGState] = []
    rows: list[MGSlotRow] = []
    violations: list[str] = []
    for k, (st, ins, m, b) in enumerate(
        zip(world.states, inputs, cfg.mgs, world.bounds)
    ):
        try:
            trade = outcome.allocation_for(m.params.id)
            x = virtual_battery(st.battery_kwh, m.params, b)
            action = solve_slot_program(st, x, ins, trade, m.params)
            cost = post_trade_settlement(action, trade, ins)
            spill = spilled_kwh(ins, action)
            after = battery_step(st, action, m.params)
            after = delay_queue_step(after, action, m.params)
            after = demand_queue_step(after, action, ins, t)
        except Exception as e:
            raise SimError(f"slot {t} mg {m.params.id}: {e}") from e
        oldest_age = after.oldest_pending_age(t + 1)
        violations.extend(_monitor(t, m.params, b, after, action, spill, oldest_age))
        new_states.append(after)
        rows.append(
            MGSlotRow(
                slot=t,
                mg_id=m.params.id,
                battery_kwh=st.battery_kwh,
                demand_queue_kwh=st.demand_queue_kwh,
                delay_queue_kwh=st.delay_queue_kwh,
                virtual_kwh=x,
                renewable_kwh=ins.renewable_kwh,
                di_load_kwh=ins.di_load_kwh,
                dt_load_kwh=ins.dt_load_kwh,
                grid_price=ins.grid_price,
                bid_sell_price=bids[k].sell_price,
                bid_buy_price=bids[k].buy_price,
                bid_sell_qty=bids[k].sell_quantity_kwh,
                bid_buy_qty=bids[k].buy_quantity_kwh,
                bought_kwh=trade.bought_kwh,
                sold_kwh=trade.sold_kwh,
                buy_unit_price=trade.buy_unit_price,
                sell_unit_price=trade.sell_unit_price,
                charge_kwh=action.charge_kwh,
                discharge_kwh=action.discharge_kwh,
                serve_kwh=action.serve_dt_kwh,
                grid_kwh=action.grid_purchase_kwh,
                spill_kwh=spill,
                cost=cost,
                oldest_pending_age=oldest_age,
            )
        )

    record = SlotRecord(
        slot=t,
        rows=tuple(rows),
        market=MarketRow(
            buy_price=outcome.buy_clearing_price,
            sell_price=outcome.sell_clearing_price,
            volume_kwh=outcome.total_volume(),
            surplus=surplus,
        ),
        violations=tuple(violations),
        market_audit=tuple(audit_rows(t, book, outcome)),
    )
    new_world = World(
        config=cfg, bounds=world.bounds, states=tuple(new_states), slot=t + 1
    )
    return new_world, record


@dataclass(frozen=True)
class MGSummary:
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
    starts with an empty FIFO, jobs are served oldest first and never in the
    slot they arrive, so a served job is never older than the oldest job
    pending at the end of the slot before.
    """
    horizon = len(records)
    per_mg: dict[int, MGSummary] = {}
    violations: list[str] = []
    for rec in records:
        violations.extend(rec.violations)
    for k, m in enumerate(config.mgs):
        mid = m.params.id
        rows = [rec.rows[k] for rec in records]
        per_mg[mid] = MGSummary(
            mg_id=mid,
            time_avg_cost=sum(r.cost for r in rows) / horizon,
            total_cost=sum(r.cost for r in rows),
            total_grid_kwh=sum(r.grid_kwh for r in rows),
            total_bought_kwh=sum(r.bought_kwh for r in rows),
            total_sold_kwh=sum(r.sold_kwh for r in rows),
            total_served_kwh=sum(r.serve_kwh for r in rows),
            max_q_kwh=max(r.demand_queue_kwh for r in rows),
            max_z_kwh=max(r.delay_queue_kwh for r in rows),
            min_b_kwh=min(r.battery_kwh for r in rows),
            max_b_kwh=max(r.battery_kwh for r in rows),
            max_job_age_slots=max(r.oldest_pending_age for r in rows),
        )
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
    inputs = realized_inputs(config, traces)
    world = World.initial(config)
    records: list[SlotRecord] = []
    for t in range(config.horizon_slots):
        world, rec = step(world, inputs[t])
        records.append(rec)
    return summarize(config, records), records


def offline_oracle(
    config: ScenarioConfig,
    inputs: list[tuple[SlotInputs, ...]],
    solved: dict[tuple[int, float], float] | None = None,
) -> dict[int, float]:
    """Clairvoyant per-MG optimum over the realized inputs, trading disabled.

    One LP per MG over all slots, with variables [C | D | J | G | B | S]:
    the slot's charge, discharge, delay-tolerant service and grid purchase,
    the battery B_t at the start of slot t (B_0 = b0, B_t = B_{t-1} +
    C_{t-1} - D_{t-1}), and the work S_t served through slot t (S_t =
    S_{t-1} + J_t). Every row is banded, so the matrix is sparse and shared
    by all MGs. Service is capped by the pre-arrival backlog exactly as
    online (S_t at most the work arrived before t), and all work that
    arrives before the final slot must be finished by the horizon (the last
    S is pinned to it). The charge/discharge exclusivity is dropped: any plan
    running both in one slot can shed min(C, D) from each without changing
    the battery path, the balance slack, or the cost, so the relaxation
    loses nothing. Returns each MG's time-average cost. scipy is imported
    here, so runs and audits never load it.

    V enters the LP only through the initial battery b0. Calls that share
    everything else (a sweep over V) can pass one `solved` dict, keyed by
    (MG id, b0): an MG found there is not solved again, and each solve is
    added to it.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import bmat, eye

    h = len(inputs)
    if h < 1:
        raise SimError("oracle needs at least one slot")
    one, lag = eye(h), eye(h, k=-1)  # lag reads the previous slot
    rows = bmat(
        [
            [one, None, None, None, one, None],  # C + B <= B_max
            [None, one, None, None, -one, None],  # D <= B
            [one, -one, one, -one, None, None],  # I + J + C <= R + G + D
            [-lag, lag, None, None, one - lag, None],  # battery step, B_0 = b0
            [None, None, -one, None, None, one - lag],  # S_t = S_{t-1} + J_t
        ],
        format="csr",
    )
    a_ub, a_eq = rows[: 3 * h], rows[3 * h :]
    b_eq = np.zeros(2 * h)

    slot_row = attrgetter("renewable_kwh", "di_load_kwh", "dt_load_kwh", "grid_price")
    per_mg: dict[int, float] = {}
    solved = {} if solved is None else solved
    for k, (m, db) in enumerate(zip(config.mgs, config.bounds())):
        p = m.params
        key = p.id, initial_state(p, db, config.initial_battery_kwh).battery_kwh
        if key in solved:
            per_mg[p.id] = solved[key]
            continue
        b_eq[0] = key[1]
        r, di, dt, price = np.array([slot_row(slot[k]) for slot in inputs]).T
        arrived = np.concatenate(([0.0], np.cumsum(dt[:-1])))  # before each slot
        # every variable is nonnegative (for B and S their rows imply it), and
        # the last S is pinned to the work that arrived before the final slot
        lo = np.zeros(6 * h)
        lo[-1] = arrived[-1]
        hi = np.concatenate((
            np.repeat([p.charge_rate_max_kwh, p.discharge_rate_max_kwh,
                       p.serve_rate_max_kwh, np.inf, np.inf], h),
            arrived,
        ))
        b_ub = np.concatenate((np.full(h, p.battery_capacity_kwh), np.zeros(h), r - di))
        cost = np.concatenate((np.zeros(3 * h), price, np.zeros(2 * h)))
        res = linprog(
            cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=np.column_stack((lo, hi)), method="highs",
        )
        if not res.success:
            raise SimError(f"oracle LP failed for mg {p.id}: {res.message}")
        per_mg[p.id] = solved[key] = float(res.fun) / h

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
    for m in config.mgs:
        mid = m.params.id
        s = summary.per_mg[mid]
        try:
            db = compute_bounds(m.params, config.price_bounds)
        except ConfigError as e:
            # e.g. a v_weight pushed past v_max after construction: flag the
            # precondition breach instead of crashing the audit
            lines.append(
                AuditLine(
                    check=f"mg{mid} v_weight precondition",
                    status="FAIL",
                    detail=str(e),
                )
            )
            continue
        lines.append(
            AuditLine(
                check=f"mg{mid} v_weight precondition",
                status="PASS",
                detail=f"v={m.params.v_weight:.6f} v_max={db.v_max:.6f}",
            )
        )
        lines.append(
            AuditLine(
                check=f"mg{mid} demand queue ceiling",
                status="PASS" if s.max_q_kwh <= db.q_max + FEAS_TOL else "FAIL",
                detail=f"max Q={s.max_q_kwh:.6f} q_max={db.q_max:.6f}",
            )
        )
        lines.append(
            AuditLine(
                check=f"mg{mid} delay queue ceiling",
                status="PASS" if s.max_z_kwh <= db.z_max + FEAS_TOL else "FAIL",
                detail=f"max Z={s.max_z_kwh:.6f} z_max={db.z_max:.6f}",
            )
        )
        b_ok = (
            s.min_b_kwh >= -FEAS_TOL
            and s.max_b_kwh <= m.params.battery_capacity_kwh + FEAS_TOL
        )
        lines.append(
            AuditLine(
                check=f"mg{mid} battery range",
                status="PASS" if b_ok else "FAIL",
                detail=f"B in [{s.min_b_kwh:.6f}, {s.max_b_kwh:.6f}]",
            )
        )
        age_ok = s.max_job_age_slots <= db.delta_max_slots + FEAS_TOL
        lines.append(
            AuditLine(
                check=f"mg{mid} worst job age",
                status="PASS" if age_ok else "FAIL",
                detail=(
                    f"age={s.max_job_age_slots} bound={db.delta_max_slots:.3f}"
                ),
            )
        )
        if oracle is None:
            lines.append(
                AuditLine(
                    check=f"mg{mid} cost gap vs oracle",
                    status="SKIP",
                    detail="`mgtrade run` does not solve the oracle; `mgtrade sweep` does",
                )
            )
        else:
            gap_cap = db.a_const / m.params.v_weight
            bound = oracle[mid] + gap_cap
            ok = s.time_avg_cost <= bound + 1e-6
            lines.append(
                AuditLine(
                    check=f"mg{mid} cost gap vs oracle",
                    status="PASS" if ok else "FAIL",
                    detail=(
                        f"online={s.time_avg_cost:.6f} "
                        f"oracle={oracle[mid]:.6f} a/v={gap_cap:.6f}"
                    ),
                )
            )
    lines.append(
        AuditLine(
            check="recorded violations",
            status="PASS" if summary.violation_count == 0 else "FAIL",
            detail=f"count={summary.violation_count}",
        )
    )
    return AuditReport(lines=tuple(lines))


def _log_columns(cls, prefix: str = "") -> tuple[tuple[str, ...], Callable]:
    """Column names of a log record class and a renderer for one record.

    The record's annotated fields are the columns, in order. Fields declared
    ``float`` are written at 6 decimals, every other field as it is.
    """
    hints = get_type_hints(cls)
    get = attrgetter(*hints)
    specs = tuple(".6f" if t is float else "" for t in hints.values())

    def render(record) -> list[str]:
        return list(map(format, get(record), specs))

    return tuple(prefix + n for n in hints), render


_MG_COLUMNS, _render_mg_row = _log_columns(MGSlotRow)
_MARKET_COLUMNS, _render_market = _log_columns(MarketRow, prefix="market_")
SLOTS_HEADER = _MG_COLUMNS + _MARKET_COLUMNS
# positions of the fields declared ``int``, whose logged values must be whole
_WHOLE_CELLS = tuple(
    SLOTS_HEADER.index(n) for n, t in get_type_hints(MGSlotRow).items() if t is int
)


def write_slots_csv(path, records: list[SlotRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SLOTS_HEADER)
        for rec in records:
            market = _render_market(rec.market)
            w.writerows(_render_mg_row(row) + market for row in rec.rows)


_SUMMARY_COLUMNS, _render_summary = _log_columns(MGSummary)
SUMMARY_HEADER = _SUMMARY_COLUMNS + ("violations",)


def write_summary_csv(path, summary: RunSummary) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_HEADER)
        for mid in sorted(summary.per_mg):
            w.writerow(_render_summary(summary.per_mg[mid]) + [summary.violation_count])


AUDIT_HEADER, _render_audit = _log_columns(AuditRow)


def write_audit_csv(path, rows: list[AuditRow]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(AUDIT_HEADER)
        w.writerows(map(_render_audit, rows))


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


def log_lines(path, reader, width: int):
    """A log's nonblank rows as (line, cells); a ragged row is a ParseError."""
    for cells in reader:
        if len(cells) != width:
            if not cells:
                continue
            raise ParseError(
                f"{path}: line {reader.line_num}: {len(cells)} cells, header has {width}"
            )
        yield reader.line_num, cells


def read_slots_csv(path) -> list[dict[str, float]]:
    """Parse a slots log back into numeric dict rows (ids and slots as floats).

    A column of an ``int`` field must hold a whole number.
    """
    p = Path(path)
    if not p.exists():
        raise SimError(f"missing log: {p}")
    out: list[dict[str, float]] = []
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != SLOTS_HEADER:
            raise SimError(f"{p}: unexpected header {header}")
        for line, cells in log_lines(p, reader, len(SLOTS_HEADER)):
            try:
                values = list(map(float, cells))
                ok = math.isfinite(sum(values))
            except ValueError:
                ok = False
            if not ok:  # parse cell by cell, which names the bad cell
                values = [log_number(p, line, *cc) for cc in zip(SLOTS_HEADER, cells)]
            for i in _WHOLE_CELLS:
                if not values[i].is_integer():
                    raise ParseError(
                        f"{p}: line {line}, column {SLOTS_HEADER[i]!r}: "
                        f"{cells[i]!r} is not a whole number"
                    )
            out.append(dict(zip(SLOTS_HEADER, values)))
    if not out:
        raise SimError(f"{p}: no rows")
    return out


# the recorded cost's operands: grid price and kWh, buy and sell price and kWh
_COST_OPERANDS = (
    "grid_price", "grid_kwh", "buy_unit_price", "bought_kwh", "sell_unit_price",
    "sold_kwh",
)

# Tolerance of the log checks. Logs hold 6-decimal renderings, so this is loose
# relative to the in-memory checks but still far below any physical quantity.
LOG_TOL = 1e-4


def verify_log_rows(config: ScenarioConfig, rows: list[dict[str, float]]) -> list[str]:
    """Re-derive every per-slot invariant from a written log alone.

    Every configured MG must log exactly one row per slot of the horizon.
    Quantities are compared within `LOG_TOL`; the recomputed cost also
    allows for the rounding of its six operands.
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
        for r in mg_rows:
            t = int(r["slot"])
            tag = f"slot {t} mg {mid}"
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
            operands = [r[k] for k in _COST_OPERANDS]
            pg, grid, pb, bought, ps, sold = operands
            expected_cost = pg * grid + pb * bought - ps * sold
            # each operand is off by at most 5e-7 after 6-decimal rounding, so
            # a product a*b is off by at most 5e-7 * (|a| + |b|)
            rounding = 5e-7 * sum(map(abs, operands))
            if abs(expected_cost - r["cost"]) > LOG_TOL + rounding:
                problems.append(
                    f"{tag}: cost {r['cost']} != recomputed {expected_cost}"
                )
            balance = (
                r["renewable_kwh"]
                + r["grid_kwh"]
                + r["discharge_kwh"]
                + r["bought_kwh"]
                - r["di_load_kwh"]
                - r["serve_kwh"]
                - r["sold_kwh"]
                - r["charge_kwh"]
            )
            if balance < -LOG_TOL:
                problems.append(f"{tag}: balance short by {-balance}")
            if abs(balance - r["spill_kwh"]) > LOG_TOL:
                problems.append(
                    f"{tag}: spill {r['spill_kwh']} != balance slack {balance}"
                )
            if r["oldest_pending_age"] > db.delta_max_slots + LOG_TOL:
                problems.append(f"{tag}: pending job age {r['oldest_pending_age']}")
        for prev, cur in zip(mg_rows, mg_rows[1:]):
            t = int(cur["slot"])
            tag = f"slot {t} mg {mid}"
            want_b = prev["battery_kwh"] - prev["discharge_kwh"] + prev["charge_kwh"]
            if abs(cur["battery_kwh"] - want_b) > LOG_TOL:
                problems.append(
                    f"{tag}: battery {cur['battery_kwh']} != step {want_b}"
                )
            want_q = (
                max(prev["demand_queue_kwh"] - prev["serve_kwh"], 0.0)
                + prev["dt_load_kwh"]
            )
            if abs(cur["demand_queue_kwh"] - want_q) > LOG_TOL:
                problems.append(
                    f"{tag}: Q {cur['demand_queue_kwh']} != step {want_q}"
                )
            base_z = max(prev["delay_queue_kwh"] - prev["serve_kwh"], 0.0)
            if prev["demand_queue_kwh"] > LOG_TOL:
                candidates = (base_z + p.epsilon,)
            else:
                # backlog indistinguishable from zero at log precision; the
                # indicator could have read either way in memory
                candidates = (base_z, base_z + p.epsilon)
            if all(abs(cur["delay_queue_kwh"] - w) > LOG_TOL for w in candidates):
                problems.append(
                    f"{tag}: Z {cur['delay_queue_kwh']} != step {candidates}"
                )
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
