"""Independent reference implementations used to check the package.

Everything here is deliberately written from the problem statement rather
than from the package modules: grid searches and exhaustive enumerations
whose only shared vocabulary with the implementation is plain numbers. Tests
compare the fast implementations against these. The last four sections are
the exception: frozen copies of the scalar slot step, of the columnar checks
and scan, of the tuple market stage and of the row-dict log audit that the
package's versions replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def brute_force_slot_objective(
    battery: float,
    q: float,
    z: float,
    x: float,
    renewable: float,
    di: float,
    price: float,
    bought: float,
    sold: float,
    capacity: float,
    c_max: float,
    d_max: float,
    j_max: float,
    v: float,
    step: float = 1.0,
) -> float:
    """Grid-search minimum of the slot objective at a fixed resolution.

    All decision variables live on a `step`-spaced grid; the grid purchase is
    the smallest grid value covering the energy balance, with purchased trade
    energy barred from charging the battery. Returns the best objective.
    """

    def axis(upper: float) -> np.ndarray:
        if upper <= 0:
            return np.array([0.0])
        vals = np.arange(0.0, upper + step * 1e-9, step)
        if vals[-1] < upper - 1e-12:
            vals = np.append(vals, upper)
        return vals

    qz = q + z
    vp = v * price
    best = math.inf

    # branch without discharging
    cs = axis(min(capacity - battery, c_max))
    js = axis(min(j_max, q))
    cg, jg = np.meshgrid(cs, js, indexing="ij")
    need = np.maximum(
        0.0,
        np.maximum(
            di + jg + sold + cg - renewable - bought,
            cg + sold - renewable,
        ),
    )
    g = np.ceil(need / step - 1e-9) * step
    obj = x * cg - qz * jg + vp * g
    best = min(best, float(obj.min()))

    # branch without charging
    ds = axis(min(battery, d_max))
    dg, jg = np.meshgrid(ds, js, indexing="ij")
    need = np.maximum(
        0.0,
        np.maximum(
            di + jg + sold - renewable - bought - dg,
            sold - renewable - dg,
        ),
    )
    g = np.ceil(need / step - 1e-9) * step
    obj = -x * dg - qz * jg + vp * g
    best = min(best, float(obj.min()))

    return best


def enumerate_clearings(
    buy_bids: list[tuple[int, float, float]],
    sell_bids: list[tuple[int, float, float]],
    rho1: float,
    rho2: float,
    grid_price: float,
) -> tuple[float | None, dict[tuple[int, int], float] | None, float, float]:
    """Exhaustive best marginal pair for a double-auction book.

    Returns (best_score, best_allocation, buy_price, sell_price);
    (None, None, 0, 0) when no feasible pair allocates anything.
    """
    buys = sorted((b for b in buy_bids if b[2] > 0), key=lambda b: (-b[1], b[0]))
    sells = sorted((s for s in sell_bids if s[2] > 0), key=lambda s: (s[1], s[0]))
    best_score = None
    best = (None, None, 0.0, 0.0)
    for mi in range(1, len(buys)):
        bp = buys[mi][1]
        if bp > grid_price:
            continue
        for ml in range(1, len(sells)):
            sp = sells[ml][1]
            if not bp > sp:
                continue
            x_star = math.inf if sp <= 0 else math.sqrt(rho1 * bp / (rho2 * sp))
            rem_s = [qty for _, _, qty in sells[:ml]]
            alloc: dict[tuple[int, int], float] = {}
            score = 0.0
            for buyer_id, _, bq in buys[:mi]:
                rem_b = bq
                for kk, (seller_id, _, _) in enumerate(sells[:ml]):
                    if rem_b <= 1e-9:
                        break
                    if rem_s[kk] <= 1e-9:
                        continue
                    take = min(x_star, rem_b, rem_s[kk])
                    if take <= 1e-9:
                        continue
                    alloc[(buyer_id, seller_id)] = take
                    score += rho1 * bp * math.log(take) - rho2 * sp * take * take / 2.0
                    rem_b -= take
                    rem_s[kk] -= take
            if alloc and (best_score is None or score > best_score + 1e-12):
                best_score = score
                best = (best_score, alloc, bp, sp)
    return best


def clearing_score(
    allocations: dict[tuple[int, int], float],
    buy_price: float,
    sell_price: float,
    rho1: float,
    rho2: float,
) -> float:
    """Welfare of a realized allocation at the clearing prices."""
    score = 0.0
    for x in allocations.values():
        score += rho1 * buy_price * math.log(x) - rho2 * sell_price * x * x / 2.0
    return score


def brute_force_two_slot_cost(
    b0: float,
    capacity: float,
    c_max: float,
    d_max: float,
    j_max: float,
    inputs: list[tuple[float, float, float, float]],  # (R, I, T, P) per slot
    step: float = 1.0,
) -> float:
    """Exclusivity-respecting grid search over a 2-slot horizon.

    Serves every kWh that arrives before the final slot; returns the minimal
    time-average grid cost. Exponential in the horizon, hence 2 slots only.
    """
    assert len(inputs) == 2
    (r0, i0, t0, p0), (r1, i1, t1, p1) = inputs

    def axis(upper: float) -> list[float]:
        if upper <= 0:
            return [0.0]
        vals = list(np.arange(0.0, upper + step * 1e-9, step))
        if vals[-1] < upper - 1e-12:
            vals.append(upper)
        return vals

    best = math.inf
    for c0 in axis(min(capacity - b0, c_max)):
        for d0 in axis(min(b0, d_max)):
            if c0 > 0 and d0 > 0:
                continue
            b1 = b0 - d0 + c0
            # queue before slot 0 is empty, so no serving then
            g0 = max(0.0, i0 + c0 - r0 - d0)
            g0 = math.ceil(g0 / step - 1e-9) * step
            q1 = t0
            for c1 in axis(min(capacity - b1, c_max)):
                for d1 in axis(min(b1, d_max)):
                    if c1 > 0 and d1 > 0:
                        continue
                    j1 = min(j_max, q1)
                    if j1 < q1 - 1e-9:
                        continue  # must clear the pre-final backlog
                    g1 = max(0.0, i1 + j1 + c1 - r1 - d1)
                    g1 = math.ceil(g1 / step - 1e-9) * step
                    cost = p0 * g0 + p1 * g1
                    best = min(best, cost / 2.0)
    return best


def reference_offline_oracle(
    b0: float,
    capacity: float,
    c_max: float,
    d_max: float,
    j_max: float,
    inputs: list[tuple[float, float, float, float]],  # (R, I, T, P) per slot
) -> float:
    """Clairvoyant time-average grid cost as one dense LP over (C, D, J, G).

    The battery and the served work are written out as running sums over
    lower-triangular blocks, so the LP needs O(h^2) memory: a reference for
    small horizons only. Service is capped by the work that arrived before
    each slot, and everything that arrived before the final slot is served.
    """
    from scipy.optimize import linprog

    r, di, dt, price = (np.array(col, dtype=float) for col in zip(*inputs))
    h = len(inputs)
    n = 4 * h  # [C | D | J | G]
    cost_vec = np.zeros(n)
    cost_vec[3 * h :] = price

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    lower = np.tril(np.ones((h, h)))  # includes the diagonal
    strict = lower - np.eye(h)  # tau < t only

    # C_t + B_t <= B_max  where B_t = b0 + sum_{tau<t} (C - D)
    block = np.zeros((h, n))
    block[:, 0:h] = lower
    block[:, h : 2 * h] = -strict
    rows.append(block)
    rhs.extend([capacity - b0] * h)

    # D_t <= B_t
    block = np.zeros((h, n))
    block[:, h : 2 * h] = lower
    block[:, 0:h] = -strict
    rows.append(block)
    rhs.extend([b0] * h)

    # sum_{tau<=t} J_tau <= sum_{tau<t} T_tau (pre-arrival backlog cap)
    block = np.zeros((h, n))
    block[:, 2 * h : 3 * h] = lower
    rows.append(block)
    rhs.extend(list(strict @ dt))

    # finish everything that arrived before the last slot
    block = np.zeros((1, n))
    block[0, 2 * h : 3 * h] = -1.0
    rows.append(block)
    rhs.append(-float(dt[:-1].sum()) if h > 1 else 0.0)

    # I + J + C <= R + G + D
    block = np.zeros((h, n))
    block[:, 0:h] = np.eye(h)
    block[:, h : 2 * h] = -np.eye(h)
    block[:, 2 * h : 3 * h] = np.eye(h)
    block[:, 3 * h :] = -np.eye(h)
    rows.append(block)
    rhs.extend(list(r - di))

    var_bounds = (
        [(0.0, c_max)] * h + [(0.0, d_max)] * h + [(0.0, j_max)] * h + [(0.0, None)] * h
    )
    res = linprog(
        cost_vec, A_ub=np.vstack(rows), b_ub=np.array(rhs), bounds=var_bounds,
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun) / h


def reference_sparse_oracle(
    b0: float,
    capacity: float,
    c_max: float,
    d_max: float,
    j_max: float,
    inputs: list[tuple[float, float, float, float]],  # (R, I, T, P) per slot
) -> float | None:
    """The same optimum as one banded sparse LP, or None when it is infeasible.

    Variables [C | D | J | G | B | S]: the slot's charge, discharge,
    delay-tolerant service and grid purchase, the battery B_t at the start of
    slot t (B_0 = b0, B_t = B_{t-1} + C_{t-1} - D_{t-1}), and the work S_t
    served through slot t (S_t = S_{t-1} + J_t). Service is capped by the
    work that arrived before each slot (S_t at most it), and the last S is
    pinned to all the work that arrived before the final slot. Every row is
    banded, so the LP needs O(h) memory: a reference for long horizons.
    """
    from scipy.optimize import linprog
    from scipy.sparse import bmat, eye

    r, di, dt, price = (np.array(col, dtype=float) for col in zip(*inputs))
    h = len(inputs)
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
    b_eq = np.zeros(2 * h)
    b_eq[0] = b0
    arrived = np.concatenate(([0.0], np.cumsum(dt[:-1])))  # before each slot
    # every variable is nonnegative (for B and S their rows imply it)
    lo = np.zeros(6 * h)
    lo[-1] = arrived[-1]
    hi = np.concatenate((np.repeat([c_max, d_max, j_max, np.inf, np.inf], h), arrived))
    res = linprog(
        np.concatenate((np.zeros(3 * h), price, np.zeros(2 * h))),
        A_ub=rows[: 3 * h],
        b_ub=np.concatenate((np.full(h, capacity), np.zeros(h), r - di)),
        A_eq=rows[3 * h :],
        b_eq=b_eq,
        bounds=np.column_stack((lo, hi)),
        method="highs",
    )
    return float(res.fun) / h if res.success else None


def slot_objective(state, x, inputs, action, params) -> float:
    """Slot program objective X*(C - D) - (Q + Z)*J + V*P*G of an action."""
    qz = state.demand_queue_kwh + state.delay_queue_kwh
    return (
        x * (action.charge_kwh - action.discharge_kwh)
        - qz * action.serve_dt_kwh
        + params.v_weight * inputs.grid_price * action.grid_purchase_kwh
    )


def slot_objective_with_settlement(state, x, inputs, action, trade, params) -> float:
    """Slot objective plus the V-weighted trade payments (deviation metric).

    X*(C - D) - (Q + Z)*J + V*P*G + V*(p_buy*bought - p_sell*sold).
    """
    return slot_objective(state, x, inputs, action, params) + params.v_weight * (
        trade.buy_unit_price * trade.bought_kwh
        - trade.sell_unit_price * trade.sold_kwh
    )


def reference_draw_loads(
    seed: int, low: float, high: float, dt_share: float, slot: int
) -> tuple[float, float]:
    """One slot's (di, dt) as two `Generator.uniform` draws on (seed, 3, slot).

    DI is drawn from 2*(1-share)*[low, high], then DT from 2*share*[low, high].
    """
    rng = np.random.default_rng((seed, 3, slot))
    di_scale = 2.0 * (1.0 - dt_share)
    dt_scale = 2.0 * dt_share
    di = rng.uniform(di_scale * low, di_scale * high)
    dt = rng.uniform(dt_scale * low, dt_scale * high)
    return float(di), float(dt)


def reference_clear(
    buys: tuple[tuple[int, float, float], ...],
    sells: tuple[tuple[int, float, float], ...],
    rho1: float,
    rho2: float,
    grid_price: float,
) -> tuple[float, float, dict[tuple[int, int], float]]:
    """The clearing as one scan that scores every candidate bitwise.

    `buys` and `sells` are a book's sorted bids. Returns (buy price, sell
    price, allocations), (0.0, 0.0, {}) for an empty clearing. A frozen copy
    of the prefix scan that `mgtrade.auction.clear` used before it scored
    candidates in bulk: one northwest-corner fill path per book, each
    uncapped candidate's score folded term by term over its prefix, a capped
    candidate's from its own greedy fill, and a later candidate wins only by
    more than 1e-12.
    """
    from bisect import bisect_left
    from functools import reduce
    from itertools import accumulate
    from operator import add, sub

    dust = 1e-9

    def greedy(buyers, sellers, bp, sp):
        x_star = math.sqrt(rho1 * bp / (rho2 * sp)) if sp > 0 else math.inf
        alloc, score = {}, 0.0
        rem_s = [q for _, _, q in sellers]
        for buyer_id, _, rem_b in buyers:
            for k, (seller_id, _, _) in enumerate(sellers):
                if rem_b <= dust:
                    break
                if rem_s[k] <= dust:
                    continue
                x = min(x_star, rem_b, rem_s[k])
                if x <= dust:
                    continue
                alloc[(buyer_id, seller_id)] = x
                score += rho1 * bp * math.log(x) - rho2 * sp * x * x / 2.0
                rem_b -= x
                rem_s[k] -= x
        return alloc, score

    path = []
    rem_s = [q for _, _, q in sells]
    first = 0
    for i, (_, _, rem_b) in enumerate(buys):
        while first < len(rem_s) and rem_s[first] <= dust:
            first += 1
        for k in range(first, len(rem_s)):
            if rem_b <= dust:
                break
            if rem_s[k] <= dust:
                continue
            x = min(rem_b, rem_s[k])
            path.append((i, k, x))
            rem_b -= x
            rem_s[k] -= x

    buyer_at = [i for i, _, _ in path]
    seller_at = [k for _, k, _ in path]
    xs = [x for _, _, x in path]
    logs = list(map(math.log, xs))
    top = list(accumulate(xs, max, initial=0.0))
    losses: list[list[float]] = []  # losses[ml - 1], built once per ml
    best = None
    for mi in range(1, len(buys)):
        bp = buys[mi][1]
        if bp > grid_price:
            continue
        by_buyer = bisect_left(buyer_at, mi)
        gains = [rho1 * bp * lx for lx in logs[:by_buyer]]
        for ml in range(1, len(sells)):
            sp = sells[ml][1]
            if not bp > sp:
                break
            if len(losses) < ml:
                c = rho2 * sp
                losses.append([c * x * x / 2.0 for x in xs[: bisect_left(seller_at, ml)]])
            loss = losses[ml - 1]
            p = min(by_buyer, len(loss))
            if not p:
                continue
            if sp > 0 and math.sqrt(rho1 * bp / (rho2 * sp)) < top[p]:
                fill, score = greedy(buys[:mi], sells[:ml], bp, sp)
                if not fill:
                    continue
            else:
                fill, score = p, reduce(add, map(sub, gains, loss), 0.0)
            if best is None or score > best[3] + 1e-12:
                best = bp, sp, fill, score
    if best is None or best[3] <= 0.0:
        return 0.0, 0.0, {}
    bp, sp, fill, _ = best
    if isinstance(fill, int):
        fill = {(buys[i][0], sells[k][0]): x for i, k, x in path[:fill]}
    return bp, sp, fill


# --------------------------------------------------------------------------
# The scalar slot step, frozen: one MG at a time, with the job FIFO stored.
#
# Frozen copies of the per-MG records and functions that `mgtrade.model` and
# `mgtrade.controller` used before the slot step became columnar. The
# columnar step must reproduce `make_bids` and `solve_slot_program` bit for
# bit, and its prefix-sum job age must name the job `fifo_serve` keeps first.

FEAS_TOL = 1e-9


class SlotInputs(NamedTuple):
    """Exogenous randomness for one MG in one slot."""

    renewable_kwh: float
    di_load_kwh: float
    dt_load_kwh: float
    grid_price: float


class MGState(NamedTuple):
    """Dynamic per-slot state of one MG, with its FIFO of (arrival slot, kWh) jobs."""

    battery_kwh: float
    demand_queue_kwh: float
    delay_queue_kwh: float
    pending_jobs: tuple[tuple[int, float], ...] = ()

    def oldest_pending_age(self, slot: int) -> int:
        """Age in slots of the oldest unserved job, 0 if none pending."""
        if not self.pending_jobs:
            return 0
        return slot - self.pending_jobs[0][0]


class BidPair(NamedTuple):
    """One MG's sell and buy bids for a slot; a zero quantity marks an absent side."""

    mg_id: int
    sell_price: float
    buy_price: float
    sell_quantity_kwh: float
    buy_quantity_kwh: float


def fifo_serve(
    pending: tuple[tuple[int, float], ...], serve_kwh: float
) -> tuple[tuple[int, float], ...]:
    """Drain pending jobs oldest-first by serve_kwh; return the remaining FIFO."""
    remaining = serve_kwh
    kept: list[tuple[int, float]] = []
    for arrival, job in pending:
        if remaining <= FEAS_TOL:
            kept.append((arrival, job))
            continue
        if job <= remaining + FEAS_TOL:
            remaining -= job
        else:
            kept.append((arrival, job - remaining))
            remaining = 0.0
    return tuple(kept)


def marginal_value(state: MGState, params) -> float:
    """The MG's per-kWh valuation of serving backlog now: (Q + Z) / V."""
    return (state.demand_queue_kwh + state.delay_queue_kwh) / params.v_weight


def make_bids(state: MGState, inputs: SlotInputs, params) -> BidPair:
    """Truthful bid pair: sell any slot surplus, else ask for service headroom."""
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
    return BidPair(params.id, value, buy_price, sell_qty, buy_qty)


def solve_slot_program(state: MGState, x: float, inputs: SlotInputs, trade, params):
    """Exact minimizer of the drift-plus-penalty slot objective for one MG.

    Returns a `mgtrade.model.ControlAction` of floats. Splits on the exclusive
    charge/discharge pair and scans each branch's vertices in lexicographic
    order; a later vertex wins only by more than 1e-12.
    """
    from mgtrade.errors import MarketError
    from mgtrade.model import ControlAction

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
        vs = (0.0, ub_v, sign * s2)
        js = (0.0, ub_j, s1 - s2)
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

    c = 0.0 if c < FEAS_TOL else min(c, ub_c)
    d = 0.0 if d < FEAS_TOL else min(d, ub_d)
    j = 0.0 if j < FEAS_TOL else min(j, ub_j)
    g = max(0.0, i + j + sold + c - r - d - bought, c + sold - r - d)
    if g < FEAS_TOL:
        g = 0.0
    return ControlAction(c, d, j, g, bought, sold)


def check_action(state: MGState, action, params) -> None:
    """Raise RejectedAction naming the first violated feasibility constraint."""
    from mgtrade.errors import RejectedAction

    c, d = action.charge_kwh, action.discharge_kwh
    if c < -FEAS_TOL:
        raise RejectedAction(f"charge_kwh {c} < 0")
    if d < -FEAS_TOL:
        raise RejectedAction(f"discharge_kwh {d} < 0")
    if action.serve_dt_kwh < -FEAS_TOL:
        raise RejectedAction(f"serve_dt_kwh {action.serve_dt_kwh} < 0")
    if action.grid_purchase_kwh < -FEAS_TOL:
        raise RejectedAction(f"grid_purchase_kwh {action.grid_purchase_kwh} < 0")
    if c > FEAS_TOL and d > FEAS_TOL:
        raise RejectedAction(f"charge {c} and discharge {d} both positive")
    charge_cap = min(
        params.battery_capacity_kwh - state.battery_kwh, params.charge_rate_max_kwh
    )
    if c > charge_cap + FEAS_TOL:
        raise RejectedAction(
            f"charge {c} exceeds min(capacity - B, charge rate) = {charge_cap}"
        )
    discharge_cap = min(state.battery_kwh, params.discharge_rate_max_kwh)
    if d > discharge_cap + FEAS_TOL:
        raise RejectedAction(
            f"discharge {d} exceeds min(B, discharge rate) = {discharge_cap}"
        )


# --------------------------------------------------------------------------
# The columnar checks and the slot program's scan, frozen.
#
# `reference_check_action` and `reference_monitor` are `mgtrade.model.check_action`
# and `mgtrade.sim._monitor` as they were before each became one fused test:
# they build the whole (constraint, MG) table every slot. `reference_scan` is
# the slot program's 1e-12 scan, one row after another. The package's versions
# must raise, report and choose exactly as these do.


def reference_scan(column) -> int:
    """The row that leads a column: row 0 first, then each later row whose value is
    below the leader's less 1e-12, in row order."""
    lead, bar = 0, column[0] - 1e-12
    for k, value in enumerate(column[1:], 1):
        if value < bar:
            lead, bar = k, value - 1e-12
    return lead


def reference_check_action(battery_kwh, action, fleet) -> None:
    """Raise RejectedAction naming the first MG that breaks a feasibility
    constraint, and the first constraint it breaks."""
    from mgtrade.errors import RejectedAction

    c, d, j, g = action[:4]
    charge_cap = np.minimum(fleet.battery_capacity_kwh - battery_kwh, fleet.charge_rate_max_kwh)
    discharge_cap = np.minimum(battery_kwh, fleet.discharge_rate_max_kwh)
    broken = np.array([
        c < -FEAS_TOL, d < -FEAS_TOL, j < -FEAS_TOL, g < -FEAS_TOL,
        (c > FEAS_TOL) & (d > FEAS_TOL),
        c > charge_cap + FEAS_TOL, d > discharge_cap + FEAS_TOL,
    ])
    if not broken.any():
        return
    k = int(broken.any(axis=0).argmax())
    c, d, j, g, charge_cap, discharge_cap = (
        float(a[k]) for a in (c, d, j, g, charge_cap, discharge_cap)
    )
    reasons = (
        f"charge_kwh {c} < 0",
        f"discharge_kwh {d} < 0",
        f"serve_dt_kwh {j} < 0",
        f"grid_purchase_kwh {g} < 0",
        f"charge {c} and discharge {d} both positive",
        f"charge {c} exceeds min(capacity - B, charge rate) = {charge_cap}",
        f"discharge {d} exceeds min(B, discharge rate) = {discharge_cap}",
    )
    raise RejectedAction(f"mg {fleet.id[k]}: {reasons[int(broken[:, k].argmax())]}", k)


def reference_monitor(
    slot: int, fleet, battery_kwh, demand_kwh, delay_kwh, spill, oldest_age, runs: int
) -> list[tuple[str, ...]]:
    """Every MG's queue/battery bound violations after a slot, run by run."""
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


# --------------------------------------------------------------------------
# The market stage, frozen: the book as sorted tuples, fills by MG id.
#
# Frozen copies of the tuple `OrderBook`, `ClearingOutcome.trades` and
# `audit_rows` that `mgtrade.auction` used before the book became columns
# indexed by fleet position. With `reference_clear` they make the whole
# market stage of one slot; the columnar stage must reproduce its book order,
# fills and unit prices bit for bit, and its audit lines rendered. The audit
# lines have changed since: they follow the rendered prices, not the book,
# and a bid whose quantity renders as 0.000000 has none.


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


@dataclass(frozen=True)
class TupleBook:
    """Sorted one-shot order book: (mg_id, price, quantity) per bid."""

    buy_bids: tuple[tuple[int, float, float], ...]
    sell_bids: tuple[tuple[int, float, float], ...]
    rho1: float
    rho2: float

    def __post_init__(self) -> None:
        from mgtrade.errors import MarketError

        if self.rho1 <= 0 or self.rho2 <= 0:
            raise MarketError("welfare weights rho1, rho2 must be > 0")
        for mg_id, price, qty in self.buy_bids + self.sell_bids:
            if price < 0 or qty < 0:
                raise MarketError(f"mg {mg_id}: negative bid price or quantity")
        buys = tuple(b for b in self.buy_bids if b[2] > 0.0)
        sells = tuple(s for s in self.sell_bids if s[2] > 0.0)
        buys = tuple(sorted(buys, key=lambda b: (-b[1], b[0])))
        sells = tuple(sorted(sells, key=lambda s: (s[1], s[0])))
        seen: set[int] = set()
        for mg_id, _, _ in buys + sells:
            if mg_id in seen:
                raise MarketError(f"mg {mg_id}: appears more than once in the book")
            seen.add(mg_id)
        object.__setattr__(self, "buy_bids", buys)
        object.__setattr__(self, "sell_bids", sells)

    @classmethod
    def from_bids(cls, ids, bids, rho1: float, rho2: float) -> "TupleBook":
        """The book of every MG's bid pair: ``ids[k]`` posted entry k of each column."""
        buys = tuple(zip(ids, bids.buy_price.tolist(), bids.buy_quantity_kwh.tolist()))
        sells = tuple(zip(ids, bids.sell_price.tolist(), bids.sell_quantity_kwh.tolist()))
        return cls(buys, sells, rho1, rho2)


def reference_trades(
    buy_price: float, sell_price: float, allocations: dict[tuple[int, int], float]
) -> dict[int, TradeAllocation]:
    """Cleared quantity and unit price of every MG that trades, by MG id.

    Each MG's pairs are summed in allocation order; the logged quantities
    depend on that order to the last bit.
    """
    bought: dict[int, float] = {}
    sold: dict[int, float] = {}
    for (b, s), q in allocations.items():
        bought[b] = bought.get(b, 0.0) + q
        sold[s] = sold.get(s, 0.0) + q
    out = {b: TradeAllocation(b, q, 0.0, buy_price, 0.0) for b, q in bought.items()}
    for s, q in sold.items():
        out[s] = TradeAllocation(s, 0.0, q, 0.0, sell_price)
    return out


class AuditRow(NamedTuple):
    """One bid of a slot's book with its acceptance and fill."""

    slot: int
    mg_id: int
    side: str
    price: float
    quantity: float
    accepted: int
    cleared_price: float
    cleared_quantity: float


# the cells of an AuditRow's line in auction_audit.csv
AUDIT_CELLS = "%s,%s,%s,%.6f,%.6f,%s,%.6f,%.6f"


def reference_audit_rows(
    slot: int, book: TupleBook, buy_price: float, sell_price: float,
    trades: dict[int, TradeAllocation],
) -> list[AuditRow]:
    """One row per bid whose quantity renders nonzero, buys then sells. A
    side's rows go by the price the log renders, falling for buys and rising
    for sells, ties by MG id; so bids whose prices differ by less than the
    rendering shows are listed by id, whatever their book order."""
    rows: list[AuditRow] = []
    for side, bids, cleared, sign in (
        ("buy", book.buy_bids, buy_price, -1.0),
        ("sell", book.sell_bids, sell_price, 1.0),
    ):
        shown = [b for b in bids if "%.6f" % b[2] != "0.000000"]
        for mg_id, price, qty in sorted(shown, key=lambda b: (sign * float("%.6f" % b[1]), b[0])):
            trade = trades.get(mg_id)
            if trade is None:
                rows.append(AuditRow(slot, mg_id, side, price, qty, 0, 0.0, 0.0))
            else:
                got = trade.bought_kwh if side == "buy" else trade.sold_kwh
                rows.append(AuditRow(slot, mg_id, side, price, qty, 1, cleared, got))
    return rows


# ------------------------------------------------- frozen row-dict log audit
#
# `read_slots_csv`, `verify_log_rows` and `verify_audit_csv` as `mgtrade.sim`
# had them before logs were read as columns: a parser that reads a log line
# by line, one dict per slots.csv row, and per-row checks. The columnar audit
# must raise the same errors and report the same problems.


def log_number(path, line: int, column: str, cell: str) -> float:
    """A logged finite number; any other cell is a ParseError naming where it sits."""
    from mgtrade.errors import ParseError

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


def log_lines(path, header: tuple[str, ...]):
    """A log's nonblank rows after its header, as (line, cells)."""
    from pathlib import Path

    from mgtrade.errors import ParseError, SimError

    if not Path(path).exists():
        raise SimError(f"missing log: {path}")
    with open(path, newline="") as fh:
        found = fh.readline().rstrip("\r\n").split(",")
        if tuple(found) != header:
            raise ParseError(f"{path}: unexpected header {found}")
        for line, text in enumerate(fh, 2):
            cells = text.rstrip("\r\n").split(",")
            if len(cells) != len(header):
                if cells == [""]:
                    continue
                raise ParseError(
                    f"{path}: line {line}: {len(cells)} cells, header has {len(header)}"
                )
            yield line, cells


def within(value: float, low: float, high: float, tol: float | None = None) -> bool:
    """``low - tol <= value <= high + tol``, the tolerance FEAS_TOL unless given."""
    from mgtrade.model import FEAS_TOL

    tol = FEAS_TOL if tol is None else tol
    return low - tol <= value <= high + tol


def reference_read_slots_csv(path) -> list[dict[str, float]]:
    """Parse a slots log back into numeric dict rows (ids and slots as floats)."""
    from typing import get_type_hints

    from mgtrade.errors import ParseError, SimError
    from mgtrade.logs import SLOTS_HEADER, MGSlotRow

    whole = [SLOTS_HEADER.index(n) for n, t in get_type_hints(MGSlotRow).items() if t is int]
    out: list[dict[str, float]] = []
    for line, cells in log_lines(path, SLOTS_HEADER):
        values = log_numbers(path, line, SLOTS_HEADER, cells)
        for i in whole:
            if not values[i].is_integer():
                raise ParseError(
                    f"{path}: line {line}, column {SLOTS_HEADER[i]!r}: "
                    f"{cells[i]!r} is not a whole number"
                )
        out.append(dict(zip(SLOTS_HEADER, values)))
    if not out:
        raise SimError(f"{path}: no rows")
    return out


def reference_verify_audit_csv(path, rows: list[dict[str, float]]) -> list[str]:
    """Check auction_audit.csv line by line against the slots log `rows`."""
    from operator import itemgetter

    from mgtrade.logs import _SIDE_FIELDS, AUDIT_HEADER

    side_columns = {
        side: itemgetter(*names, f"market_{side}_price") for side, names in _SIDE_FIELDS.items()
    }
    logged = {(r["slot"], r["mg_id"]): r for r in rows}
    listed: dict[tuple[float, float], str] = {}
    problems: list[str] = []

    def problem(why: str) -> None:
        problems.append(f"auction_audit.csv line {line}: slot {cells[0]} mg {cells[1]}: {why}")

    last = (-math.inf,)
    for line, cells in log_lines(path, AUDIT_HEADER):
        try:
            slot, mid, price, kwh, accepted, paid, got = map(float, cells[:2] + cells[3:])
        except ValueError:
            log_numbers(path, line, AUDIT_HEADER[:2] + AUDIT_HEADER[3:], cells[:2] + cells[3:])
        side, key = cells[2], (slot, mid)
        r, columns = logged.get(key), side_columns.get(side)
        if r is None or columns is None or key in listed:
            problem("no such bid in slots.csv, or listed twice")
            continue
        listed[key] = side
        at = (slot, side, price if side == "sell" else -price)
        if at < last:
            problem("out of book order")
        last = at
        bid_price, bid_kwh, fill, unit, market = columns(r)
        won = fill != 0.0 or unit != 0.0
        want = bid_price, bid_kwh, won, market if won else 0.0, fill
        if (price, kwh, accepted, paid, got) != want:
            problem(f"{cells[3:]} != {AUDIT_CELLS[9:] % want} from slots.csv")
    for key, r in logged.items():
        side = "buy" if r["bid_buy_qty"] > 0.0 else "sell" if r["bid_sell_qty"] > 0.0 else None
        if side and listed.get(key) != side:
            problems.append(f"slot {key[0]:.0f} mg {key[1]:.0f}: no audit line for its {side} bid")
    return problems


def reference_verify_log_rows(config, rows: list[dict[str, float]]) -> list[str]:
    """Re-derive every per-slot invariant from a written log alone, row by row."""
    from bisect import bisect_right
    from operator import itemgetter

    from mgtrade.model import FEAS_TOL, MODE_SOLO, initial_battery, virtual_battery
    from mgtrade.logs import LOG_TOL

    cost_operands = itemgetter(
        "grid_price", "grid_kwh", "buy_unit_price", "bought_kwh", "sell_unit_price", "sold_kwh"
    )
    bid_columns = itemgetter("bid_sell_price", "bid_buy_price", "bid_sell_qty", "bid_buy_qty")
    bid_operands = itemgetter(
        "demand_queue_kwh", "delay_queue_kwh", "renewable_kwh", "di_load_kwh"
    )
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
        b0 = initial_battery(p, db, config.initial_battery_kwh)
        first = mg_rows[0]["battery_kwh"]
        if mg_rows[0]["slot"] == 0 and abs(first - b0) > 5e-7 + 2.0**-50 * b0:
            problems.append(f"slot 0 mg {mid}: battery {first} != initial battery {b0}")
        arrived: list[float] = []
        served = 0.0
        for r in mg_rows:
            t = int(r["slot"])
            tag = f"slot {t} mg {mid}"
            arrived.append((arrived[-1] if arrived else 0.0) + r["dt_load_kwh"])
            served += r["serve_kwh"]
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
            operands = cost_operands(r)
            pg, grid, pb, bought, ps, sold = operands
            expected_cost = pg * grid + pb * bought - ps * sold
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
            q, z, renewable, di = bid_operands(r)
            sell_price, buy_price, sell_kwh, buy_kwh = bids = bid_columns(r)
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
                candidates = (base_z, base_z + p.epsilon)
            if all(abs(cur["delay_queue_kwh"] - w) > LOG_TOL for w in candidates):
                problems.append(f"{tag}: Z {cur['delay_queue_kwh']} != step {candidates}")
    for t in sorted(by_slot):
        problems.extend(_reference_market_problems(t, by_slot[t], config.mode == MODE_SOLO))
    return problems


def _reference_market_problems(t: int, rows: list[dict[str, float]], solo: bool) -> list[str]:
    """Check one slot's market columns against each other and its MG rows; a
    solo run's market, fills and unit prices must all be zero."""
    from mgtrade.logs import _MARKET_COLUMNS, LOG_TOL

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
    if solo:
        for k in [*_MARKET_COLUMNS, "bought_kwh", "sold_kwh", "buy_unit_price", "sell_unit_price"]:
            if any(r[k] != 0.0 for r in rows):
                problems.append(f"{tag}: {k} is not 0 in a no_auction run")
                break
    slack = LOG_TOL + 5e-7 * (len(rows) + 1)
    if abs(bought - volume) > slack or abs(sold - volume) > slack:
        problems.append(
            f"{tag}: bought {bought:.6f} / sold {sold:.6f} kWh != market volume {volume}"
        )
    if volume > 0.0 and pb > grid:
        problems.append(f"{tag}: market buy price {pb} above grid price {grid}")
    if volume > 0.0 and pb < ps:
        problems.append(f"{tag}: market buy price {pb} below sell price {ps}")
    if abs((pb - ps) * volume - surplus) > LOG_TOL + 5e-7 * (2 * abs(volume) + abs(pb - ps)):
        problems.append(f"{tag}: surplus {surplus} != (buy - sell price) * volume")
    return problems
