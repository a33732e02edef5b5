"""Per-MG drift-plus-penalty agent: truthful bids and the per-slot program.

The agent does two things each slot. Before clearing it posts a bid pair
whose prices equal its marginal valuation of serving backlog, (Q + Z) / V
(buy side floored at the configured minimum price). After clearing it solves

    minimize  X*(C - D) - (Q + Z)*J + V*P*G

over feasible (C, D, J, G) with the traded quantities fixed. The caller
passes X = B - theta - D_max, derived by :func:`mgtrade.model.virtual_battery`.
The trade payments are constants at that stage and are excluded from the
argmin; they re-enter through :func:`post_trade_settlement`.

The program is a tiny nonconvex LP (the charge/discharge exclusivity). It is
solved exactly by splitting on the exclusive pair and scanning the explicit
vertices of each 2-variable piecewise-linear branch: the box bounds crossed
with the two balance breakpoints. This is deterministic and avoids
iterative-solver noise in replay-sensitive tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MarketError
from .model import (
    FEAS_TOL,
    ControlAction,
    MGParams,
    MGState,
    SlotInputs,
)


@dataclass(frozen=True)
class BidPair:
    """One MG's sell and buy bids for a slot; a zero quantity marks an absent side."""

    mg_id: int
    sell_price: float
    buy_price: float
    sell_quantity_kwh: float
    buy_quantity_kwh: float

    def __post_init__(self) -> None:
        if self.sell_price < 0 or self.buy_price < 0:
            raise MarketError(f"mg {self.mg_id}: bid prices must be >= 0")
        if self.sell_quantity_kwh < 0 or self.buy_quantity_kwh < 0:
            raise MarketError(f"mg {self.mg_id}: bid quantities must be >= 0")
        if self.sell_quantity_kwh > 0 and self.buy_quantity_kwh > 0:
            raise MarketError(
                f"mg {self.mg_id}: cannot bid on both market sides in one slot"
            )


@dataclass(frozen=True)
class TradeAllocation:
    """Cleared quantities and uniform unit prices for one MG.

    Prices are zero on a side the MG lost (or never bid)."""

    mg_id: int
    bought_kwh: float
    sold_kwh: float
    buy_unit_price: float
    sell_unit_price: float

    @classmethod
    def none(cls, mg_id: int) -> "TradeAllocation":
        return cls(mg_id, 0.0, 0.0, 0.0, 0.0)


def marginal_value(state: MGState, params: MGParams) -> float:
    """The MG's per-kWh valuation of serving backlog now: (Q + Z) / V."""
    return (state.demand_queue_kwh + state.delay_queue_kwh) / params.v_weight


def make_bids(state: MGState, inputs: SlotInputs, params: MGParams) -> BidPair:
    """Truthful bid pair for the slot.

    Prices are always the valuation formulas (sell at (Q+Z)/V, buy at the
    same floored at price_floor). Quantities decide which side is present:
    a slot-surplus MG (renewable exceeds its inflexible load) offers the
    surplus for sale; otherwise it asks for service headroom J_max - R,
    clamped to its backlog since buying beyond it wastes money. A side with
    zero quantity is absent, so no rational MG ever sits on both.
    """
    value = marginal_value(state, params)
    buy_price = max(value, params.price_floor)
    surplus = inputs.renewable_kwh - inputs.di_load_kwh
    sell_qty = 0.0
    buy_qty = 0.0
    if surplus > 0:
        sell_qty = surplus
    else:
        headroom = max(params.serve_rate_max_kwh - inputs.renewable_kwh, 0.0)
        buy_qty = min(headroom, state.demand_queue_kwh)
    return BidPair(
        mg_id=params.id,
        sell_price=value,
        buy_price=buy_price,
        sell_quantity_kwh=sell_qty,
        buy_quantity_kwh=buy_qty,
    )


def solve_slot_program(
    state: MGState,
    x: float,
    inputs: SlotInputs,
    trade: TradeAllocation,
    params: MGParams,
) -> ControlAction:
    """Exact minimizer of the drift-plus-penalty slot objective.

    ``x`` is the virtual battery queue X of ``state``. Feasible set:
    0 <= C <= min(capacity - B, C_max), 0 <= D <= min(B, D_max),
    C*D = 0, 0 <= J <= min(J_max, Q), G >= 0, and the energy balance
    I + J + sold + C <= R + G + D + bought. Purchased auction energy may serve
    loads but never charge the battery, which adds C + sold <= R + G + D.
    """
    if trade.bought_kwh < 0 or trade.sold_kwh < 0:
        raise MarketError(f"mg {params.id}: negative trade quantities")
    if trade.bought_kwh > 0 and trade.sold_kwh > 0:
        raise MarketError(f"mg {params.id}: trade on both sides in one slot")

    b, q, z = state.battery_kwh, state.demand_queue_kwh, state.delay_queue_kwh
    r, i = inputs.renewable_kwh, inputs.di_load_kwh
    bought, sold = trade.bought_kwh, trade.sold_kwh
    qz = q + z
    vp = params.v_weight * inputs.grid_price

    ub_c = max(min(params.battery_capacity_kwh - b, params.charge_rate_max_kwh), 0.0)
    ub_d = max(min(b, params.discharge_rate_max_kwh), 0.0)
    ub_j = max(min(params.serve_rate_max_kwh, q), 0.0)

    s1 = r + bought - i - sold  # slack before grid import, loads covered
    s2 = r - sold  # slack available to charging (no auction energy)

    def branch_minimum(sign: int, ub_v: float) -> tuple[float, float, float]:
        """Minimize (sign*x)*v - qz*j + vp*max(0, u + j - s1, u - s2) over the box.

        ``u = sign*v`` is the battery flow: sign +1 for the charge branch
        (v = C), -1 for the discharge branch (v = D). The objective is convex
        piecewise-linear, so the minimum sits on a vertex of the box edges and
        the breakpoint lines u = s2, j = s1 - s2 and u + j = s1. The vertices
        are scanned in lexicographic order, so ties resolve toward inaction.
        """
        vs = (0.0, ub_v, sign * s2)
        js = (0.0, ub_j, s1 - s2)
        # the diagonal meets j = s1 - s2 at (sign*s2, s1 - s2), already listed;
        # a recomputed copy can be an ulp off and win the scan instead
        candidates = (
            [(v, j) for v in vs for j in js]
            + [(v, s1 - sign * v) for v in vs]
            + [(sign * (s1 - j), j) for j in js[:2]]
        )
        best = None
        for v, j in sorted(
            (min(max(v, 0.0), ub_v), min(max(j, 0.0), ub_j))
            for v, j in candidates
            if -FEAS_TOL <= v <= ub_v + FEAS_TOL and -FEAS_TOL <= j <= ub_j + FEAS_TOL
        ):
            u = sign * v
            obj = sign * x * v - qz * j + vp * max(0.0, u + j - s1, u - s2)
            if best is None or obj < best[0] - 1e-12:
                best = (obj, v, j)
        assert best is not None  # the box corners always qualify
        return best

    obj_c, c_opt, j_c = branch_minimum(1, ub_c)
    obj_d, d_opt, j_d = branch_minimum(-1, ub_d)

    c, d, j = (0.0, d_opt, j_d) if obj_d < obj_c - 1e-12 else (c_opt, 0.0, j_c)

    # snap to bounds and recompute the exact minimal grid purchase
    c = 0.0 if c < FEAS_TOL else min(c, ub_c)
    d = 0.0 if d < FEAS_TOL else min(d, ub_d)
    j = 0.0 if j < FEAS_TOL else min(j, ub_j)
    g = max(0.0, i + j + sold + c - r - d - bought, c + sold - r - d)
    if g < FEAS_TOL:
        g = 0.0
    return ControlAction(
        charge_kwh=c,
        discharge_kwh=d,
        serve_dt_kwh=j,
        grid_purchase_kwh=g,
        bought_kwh=bought,
        sold_kwh=sold,
    )


def post_trade_settlement(
    action: ControlAction, trade: TradeAllocation, inputs: SlotInputs
) -> float:
    """Realized slot cost: grid purchases plus trade payments minus trade revenue."""
    return (
        inputs.grid_price * action.grid_purchase_kwh
        + trade.buy_unit_price * trade.bought_kwh
        - trade.sell_unit_price * trade.sold_kwh
    )


def spilled_kwh(
    inputs: SlotInputs, action: ControlAction
) -> float:
    """Renewable energy left unused by the slot's allocation (logged, not priced)."""
    return (
        inputs.renewable_kwh
        + action.grid_purchase_kwh
        + action.discharge_kwh
        + action.bought_kwh
        - inputs.di_load_kwh
        - action.serve_dt_kwh
        - action.sold_kwh
        - action.charge_kwh
    )
