"""Drift-plus-penalty agents: truthful bids and the per-slot program.

The agents do two things each slot. Before clearing each posts a bid pair
whose prices equal its marginal valuation of serving backlog, (Q + Z) / V
(buy side floored at the configured minimum price). After clearing each
solves

    minimize  X*(C - D) - (Q + Z)*J + V*P*G

over feasible (C, D, J, G) with the traded quantities fixed. The caller
passes X = B - theta - D_max, derived by :func:`mgtrade.model.virtual_battery`.
The trade payments are constants at that stage and are excluded from the
argmin; they re-enter through :func:`post_trade_settlement`.

Every function here takes columns, one entry per MG (see
:class:`mgtrade.model.Fleet`), so one call serves every MG of a slot; the
arithmetic is each MG's scalar arithmetic, operation for operation, so the
results are the same floats a per-MG loop gives. The bid columns go to the
order book as they are, and the traded quantities come back as columns
(:meth:`mgtrade.auction.ClearingOutcome.fills`).

The program is a tiny nonconvex LP (the charge/discharge exclusivity). It is
solved exactly by splitting on the exclusive pair and scanning the explicit
vertices of each 2-variable piecewise-linear branch: the box bounds crossed
with the two balance breakpoints. This is deterministic and avoids
iterative-solver noise in replay-sensitive tests.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from .model import FEAS_TOL, ControlAction, Fleet, _max


class Bids(NamedTuple):
    """Every MG's sell and buy bid for a slot; a zero quantity marks an absent side."""

    sell_price: Any
    buy_price: Any
    sell_quantity_kwh: Any
    buy_quantity_kwh: Any


def make_bids(demand_kwh, delay_kwh, renewable_kwh, di_load_kwh, fleet: Fleet) -> Bids:
    """Truthful bid pairs for the slot.

    Prices are always the valuation formulas (sell at (Q+Z)/V, buy at the
    same floored at price_floor). Quantities decide which side is present:
    a slot-surplus MG (renewable exceeds its inflexible load) offers the
    surplus for sale; otherwise it asks for service headroom J_max - R,
    clamped to its backlog since buying beyond it wastes money. A side with
    zero quantity is absent, so no rational MG ever sits on both.
    """
    value = (demand_kwh + delay_kwh) / fleet.v_weight
    surplus = renewable_kwh - di_load_kwh
    sells = surplus > 0
    headroom = _max(fleet.serve_rate_max_kwh - renewable_kwh, 0.0)
    wanted = np.where(demand_kwh < headroom, demand_kwh, headroom)  # min(headroom, Q)
    return Bids(
        sell_price=value,
        buy_price=_max(value, fleet.price_floor),
        sell_quantity_kwh=np.where(sells, surplus, 0.0),
        buy_quantity_kwh=np.where(sells, 0.0, wanted),
    )


def solve_slot_program(
    battery_kwh,
    demand_kwh,
    delay_kwh,
    x,
    renewable_kwh,
    di_load_kwh,
    grid_price,
    bought_kwh,
    sold_kwh,
    fleet: Fleet,
) -> ControlAction:
    """Exact minimizer of every MG's drift-plus-penalty slot objective.

    ``x`` is the virtual battery queue X of ``battery_kwh``. Feasible set:
    0 <= C <= min(capacity - B, C_max), 0 <= D <= min(B, D_max),
    C*D = 0, 0 <= J <= min(J_max, Q), G >= 0, and the energy balance
    I + J + sold + C <= R + G + D + bought. Purchased auction energy may serve
    loads but never charge the battery, which adds C + sold <= R + G + D.

    In each branch (charge: sign +1, v = C; discharge: sign -1, v = D) the
    objective (sign*x)*v - qz*j + vp*max(0, u + j - s1, u - s2), with
    battery flow u = sign*v, is convex piecewise-linear, so its minimum sits
    on a vertex of the box edges and the breakpoint lines u = s2,
    j = s1 - s2 and u + j = s1. Every MG's two branches are columns of one
    table of those 13 vertices, each column scanned in lexicographic (v, j)
    order; a later vertex wins only by more than 1e-12, so ties resolve
    toward inaction.
    """
    n = len(battery_kwh)
    qz = demand_kwh + delay_kwh
    vp = fleet.v_weight * grid_price

    cap = fleet.battery_capacity_kwh
    ub_c = np.maximum(np.minimum(cap - battery_kwh, fleet.charge_rate_max_kwh), 0.0)
    ub_d = np.maximum(np.minimum(battery_kwh, fleet.discharge_rate_max_kwh), 0.0)
    ub_j = np.maximum(np.minimum(fleet.serve_rate_max_kwh, demand_kwh), 0.0)

    s1 = renewable_kwh + bought_kwh - di_load_kwh - sold_kwh  # slack before grid import, loads covered
    s2 = renewable_kwh - sold_kwh  # slack available to charging (no auction energy)

    # (vertex, branch, MG) tables, the charge branch first
    sign = np.array(((1.0,), (-1.0,)))
    ub_v = np.array((ub_c, ub_d))
    rows = 13
    v = np.empty((rows, 2, n))
    j = np.empty((rows, 2, n))
    # the box and breakpoint crossings: (v, j) for v in (0, ub_v, sign*s2)
    # for j in (0, ub_j, s1 - s2)
    v[0:3], v[3:6], v[6:9] = 0.0, ub_v, sign * s2
    j[0:9:3], j[1:9:3], j[2:9:3] = 0.0, ub_j, s1 - s2
    # the diagonal u + j = s1 from v = 0 and v = ub_v, and from j = 0 and
    # j = ub_j. From v = sign*s2 it meets j = s1 - s2 at row 8, bit for bit
    # (a product with sign is exact), so that vertex is not listed twice
    v[9:11] = v[0:6:3]
    j[9:11] = s1 - sign * v[9:11]
    j[11:13] = j[0:2]
    v[11:13] = sign * (s1 - j[11:13])

    ok = (-FEAS_TOL <= v) & (v <= ub_v + FEAS_TOL) & (-FEAS_TOL <= j) & (j <= ub_j + FEAS_TOL)
    v = np.minimum(np.maximum(v, 0.0), ub_v)
    j = np.minimum(np.maximum(j, 0.0), ub_j)
    u = sign * v
    obj = (sign * x) * v - qz * j + vp * np.maximum(np.maximum(0.0, u + j - s1), u - s2)
    obj[~ok] = np.inf

    # the scan, in (v, j) order (the sort is stable). An infeasible vertex
    # never takes the lead and the first feasible one always does (obj < inf
    # - 1e-12), so this is the scan over feasible vertices alone
    v, j, obj = (a.reshape(rows, 2 * n) for a in (v, j, obj))
    cols = np.arange(2 * n)
    order = np.lexsort((j, v), axis=0)
    obj = obj[order, cols]
    limit = obj - 1e-12
    bar = limit[0].copy()
    took = np.zeros((rows, 2 * n), dtype=bool)
    for o, lim, t in zip(obj[1:], limit[1:], took[1:]):
        np.less(o, bar, out=t)
        np.copyto(bar, lim, where=t)
    lead = np.where(took.any(axis=0), rows - 1 - took[::-1].argmax(axis=0), 0)
    obj, best = obj[lead, cols], order[lead, cols]
    # snap to zero (the vertices already lie within their bounds), then
    # pick each MG's branch and recompute the exact minimal grid purchase
    v, j = (np.where(a < FEAS_TOL, 0.0, a) for a in (v[best, cols], j[best, cols]))
    discharge = obj[n:] < obj[:n] - 1e-12
    c = np.where(discharge, 0.0, v[:n])
    d = np.where(discharge, v[n:], 0.0)
    j = np.where(discharge, j[n:], j[:n])
    r, i, bought, sold = renewable_kwh, di_load_kwh, bought_kwh, sold_kwh
    g = np.maximum(
        np.maximum(0.0, i + j + sold + c - r - d - bought), c + sold - r - d
    )
    g = np.where(g < FEAS_TOL, 0.0, g)
    return ControlAction(c, d, j, g, bought, sold)


def post_trade_settlement(
    grid_price, grid_kwh, buy_unit_price, bought_kwh, sell_unit_price, sold_kwh
):
    """Realized slot cost: grid purchases plus trade payments minus trade revenue."""
    return grid_price * grid_kwh + buy_unit_price * bought_kwh - sell_unit_price * sold_kwh


def spilled_kwh(renewable_kwh, di_load_kwh, action: ControlAction):
    """Renewable energy left unused by the slot's allocation (logged, not priced)."""
    c, d, j, g, bought, sold = action
    return renewable_kwh + g + d + bought - di_load_kwh - j - sold - c
