"""Uniform-price double auction over per-slot microgrid bid pairs.

The auctioneer sorts buy bids descending and sell bids ascending, then picks
a marginal pair (one buy bid, one sell bid) that prices the slot: everyone
strictly ahead of the marginal bid on their side wins, winners trade at the
marginal prices, and the marginal bids themselves sit out. Candidate marginal
pairs are scored by the realized surplus-style welfare

    sum over matched pairs of  rho1 * beta * ln(x) - rho2 * alpha * x^2 / 2

evaluated at the actually allocated quantities, and the best-scoring feasible
pair wins. A pair is feasible only when its buy price stays at or below the
grid price and strictly above its sell price, so every trade beats buying
from the grid and the auctioneer never runs a deficit.

Winners are matched greedily, buyers in book order each filling sellers in
book order, every pair capped at the marginal pair's stationary quantity x*.
Without the cap this fill is one northwest-corner path through the book,
monotone in both the buyer and the seller index, so the uncapped allocation
of every candidate is a prefix of it: the pairs whose buyer and seller are
both ahead of the marginal bids. The path is built once per book. A
candidate takes its prefix whenever x* is at least every quantity in it,
since the cap then changes no step; otherwise (a binding cap) it reruns the
capped greedy fill on its own winners.

A prefix's score factors into prefix sums along the path, so one numpy
expression scores every (marginal buy, marginal sell) pair of the book.
Factoring changes the last bits of a score, and the scan keeps a later pair
only if it beats the best so far by more than 1e-12, so the choice is not
made on the factored scores: a forward error bound on them picks the few
candidates that can still win, and only those are scored with the greedy
fill's own float operations, in its order, and scanned. The outcome is
bitwise the one scanning every pair with from-scratch fills gives. numpy is
imported when a book is scored, so audits never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add, sub
from typing import Any, NamedTuple

from .controller import Bids, TradeAllocation
from .errors import InvariantViolation, MarketError

DUST_KWH = 1e-9


@dataclass(frozen=True)
class OrderBook:
    """Sorted one-shot order book: (mg_id, price, quantity) per bid."""

    buy_bids: tuple[tuple[int, float, float], ...]
    sell_bids: tuple[tuple[int, float, float], ...]
    rho1: float
    rho2: float

    def __post_init__(self) -> None:
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
    def from_bids(cls, ids: list[int], bids: Bids, rho1: float, rho2: float) -> "OrderBook":
        """The book of every MG's bid pair: ``ids[k]`` posted entry k of each column."""
        buys = tuple(zip(ids, bids.buy_price.tolist(), bids.buy_quantity_kwh.tolist()))
        sells = tuple(zip(ids, bids.sell_price.tolist(), bids.sell_quantity_kwh.tolist()))
        return cls(buys, sells, rho1, rho2)

    @cached_property
    def fill_path(self) -> tuple[tuple[int, int, float], ...]:
        """The uncapped greedy fill as (buyer index, seller index, kWh) steps.

        Buyers in book order fill sellers in book order, each step trading
        min(buyer remaining, seller remaining) with the greedy fill's dust
        rules. A buyer starts at the first seller that is not exhausted, so
        both indices are nondecreasing along the path.
        """
        path: list[tuple[int, int, float]] = []
        remaining_s = [qty for _, _, qty in self.sell_bids]
        first = 0
        for i, (_, _, rem_b) in enumerate(self.buy_bids):
            while first < len(remaining_s) and remaining_s[first] <= DUST_KWH:
                first += 1
            for k in range(first, len(remaining_s)):
                if rem_b <= DUST_KWH:
                    break
                rem_s = remaining_s[k]
                if rem_s <= DUST_KWH:
                    continue
                x = min(rem_b, rem_s)
                path.append((i, k, x))
                rem_b -= x
                remaining_s[k] -= x
        return tuple(path)


@dataclass(frozen=True)
class ClearingOutcome:
    buy_clearing_price: float
    sell_clearing_price: float
    allocations: dict[tuple[int, int], float] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "ClearingOutcome":
        return cls(0.0, 0.0)

    def total_volume(self) -> float:
        return sum(self.allocations.values())

    @cached_property
    def trades(self) -> dict[int, TradeAllocation]:
        """Cleared quantity and unit price of every MG that trades, by MG id.

        Built once per outcome. Each MG's pairs are summed in allocation
        order; the logged quantities depend on that order to the last bit.
        """
        bought: dict[int, float] = {}
        sold: dict[int, float] = {}
        for (b, s), q in self.allocations.items():
            bought[b] = bought.get(b, 0.0) + q
            sold[s] = sold.get(s, 0.0) + q
        out = {
            b: TradeAllocation(b, q, 0.0, self.buy_clearing_price, 0.0)
            for b, q in bought.items()
        }
        for s, q in sold.items():
            out[s] = TradeAllocation(s, 0.0, q, 0.0, self.sell_clearing_price)
        return out

    def allocation_for(self, mg_id: int) -> TradeAllocation:
        return self.trades.get(mg_id) or TradeAllocation.none(mg_id)


def pair_quantity(
    buy_price: float, sell_price: float, rho1: float, rho2: float
) -> float:
    """Stationary point of rho1*b*ln(x) - rho2*a*x^2/2: sqrt(rho1*b/(rho2*a))."""
    if sell_price <= 0:
        raise MarketError("sell price must be > 0: pair quantity is unbounded")
    if rho1 <= 0 or rho2 <= 0:
        raise MarketError("welfare weights rho1, rho2 must be > 0")
    if buy_price < 0:
        raise MarketError("buy price must be >= 0")
    return math.sqrt(rho1 * buy_price / (rho2 * sell_price))


def _greedy_allocation(
    buyers: tuple[tuple[int, float, float], ...],
    sellers: tuple[tuple[int, float, float], ...],
    buy_price: float,
    sell_price: float,
    rho1: float,
    rho2: float,
) -> tuple[dict[tuple[int, int], float], float]:
    """Match winners best-first, each pair capped at its welfare stationary point.

    Returns (allocations, realized welfare score). Pairwise balance holds by
    construction: one number per (buyer, seller) pair.
    """
    if sell_price > 0:
        x_star = pair_quantity(buy_price, sell_price, rho1, rho2)
    else:
        x_star = math.inf
    alloc: dict[tuple[int, int], float] = {}
    score = 0.0
    remaining_s = [qty for _, _, qty in sellers]
    for buyer_id, _, buy_qty in buyers:
        rem_b = buy_qty
        for k, (seller_id, _, _) in enumerate(sellers):
            if rem_b <= DUST_KWH:
                break
            rem_s = remaining_s[k]
            if rem_s <= DUST_KWH:
                continue
            x = min(x_star, rem_b, rem_s)
            if x <= DUST_KWH:
                continue
            alloc[(buyer_id, seller_id)] = x
            score += rho1 * buy_price * math.log(x) - rho2 * sell_price * x * x / 2.0
            rem_b -= x
            remaining_s[k] -= x
    return alloc, score


class _Candidates(NamedTuple):
    """Every feasible marginal pair of a book, in scan order, with its score.

    Scan order is marginal buy index outer, marginal sell index inner; the
    first three fields are numpy int arrays, one entry per pair. A pair whose
    greedy fill is its prefix of the fill path has that prefix's length in
    ``prefix`` and its factored score in ``estimate``. A pair whose x* cap
    binds has its (allocation, score) from the capped greedy fill in
    ``capped``, and that score as its estimate (-inf if the fill allocates
    nothing). Every estimate lies within ``error`` of the greedy fill's
    score. ``logs`` is ln(x) of each path step.
    """

    mi: Any
    ml: Any
    prefix: Any
    estimate: Any
    error: float
    capped: dict[int, tuple[dict[tuple[int, int], float], float]]
    logs: list[float]


def _candidates(book: OrderBook, grid_price: float) -> _Candidates:
    """Score every feasible marginal pair (mi, ml) of the book at once.

    On a saturated prefix of p path pairs the greedy fill's score is the sum
    of a*ln(x) - c*x*x/2 with a = rho1*bp and c = rho2*sp. Factored, that is
    a*L[p] - c*Q[p], with L and Q the prefix sums of ln(x) and x*x/2 along
    the path, so the whole (mi, ml) grid is one array expression. A pair is
    feasible when bp <= grid price, bp > sp for it and every sell ahead of it
    (sells ascend, so the first sell at or above bp ends the row) and its
    prefix is nonempty. The cap binds when x* is below the prefix's largest
    quantity; only those pairs rerun the greedy fill, in Python.

    ``error`` bounds |estimate - greedy score| by the forward error bounds of
    recursive summation (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3-4), gamma_k = k*u/(1 - k*u), u = 2**-53. Each greedy
    term carries at most gamma_3 of relative error and its fold gamma_(p-1)
    more; L and Q carry gamma_(p-1) and gamma_p and the last multiplies and
    subtraction gamma_2. So both scores lie within gamma_(p+2)*W of the exact
    real sum, W = a*sum|ln x| + c*sum x*x/2 over the prefix, and differ by at
    most gamma_(2p+4)*W. One bound serves the whole book: p <= n, the path's
    length, and a, c <= rho times the grid price, so (2n + 8)*u*W_max with
    W_max taken over the whole path leaves room for rounding W_max and the
    band's arithmetic; n*2**-1070 covers underflow. Both scores use the
    same `math.log` values.
    """
    import numpy as np

    buys, sells = book.buy_bids, book.sell_bids
    buyer_at, seller_at, xs = zip(*book.fill_path)
    logs = list(map(math.log, xs))
    n = len(xs)
    xs = np.array(xs, dtype=float)
    sums = np.zeros((2, n + 1))  # L and Q: the sums of the first p pairs at [:, p]
    np.cumsum((logs, xs * xs / 2.0), axis=1, out=sums[:, 1:])
    top = np.zeros(n + 1)  # top[p]: largest x of the first p pairs
    np.maximum.accumulate(xs, out=top[1:])
    w_max = grid_price * (book.rho1 * sum(map(abs, logs)) + book.rho2 * sums[1, n])
    error = (2 * n + 8) * 2.0**-53 * w_max + n * 2.0**-1070

    by_buyer = np.searchsorted(buyer_at, np.arange(1, len(buys)))
    by_seller = np.searchsorted(seller_at, np.arange(1, len(sells)))
    bp = np.array([price for _, price, _ in buys[1:]])
    sp = np.array([price for _, price, _ in sells[1:]])
    p = np.minimum(by_buyer[:, None], by_seller)
    feasible = np.logical_and.accumulate(bp[:, None] > sp, axis=1)
    feasible &= (bp <= grid_price)[:, None] & (p > 0)
    cells = np.flatnonzero(feasible)
    mi, ml = np.divmod(cells, len(sp))
    p = p.ravel()[cells]
    a, c = book.rho1 * bp[mi], book.rho2 * sp[ml]  # the greedy fill's rho1*bp, rho2*sp
    ln_sum, sq_sum = sums[:, p]
    estimate = a * ln_sum - c * sq_sum
    with np.errstate(divide="ignore", invalid="ignore"):
        cap_binds = (c > 0) & (np.sqrt(a / c) < top[p])  # pair_quantity's x*
    mi += 1
    ml += 1
    capped = {}
    for k in np.flatnonzero(cap_binds).tolist():
        i, j = int(mi[k]), int(ml[k])
        alloc, score = _greedy_allocation(
            buys[:i], sells[:j], buys[i][1], sells[j][1], book.rho1, book.rho2
        )
        capped[k] = alloc, score
        estimate[k] = score if alloc else -math.inf
    return _Candidates(mi, ml, p, estimate, error, capped, logs)


def _band(estimate, error: float) -> list[int]:
    """Candidates, in scan order, among which the full scan picks its winner.

    Every exact score lies within ``error`` of its estimate. Rank the
    estimates and cut at the first gap wider than 2*error + 1e-12, plus room
    for the rounding of `best + 1e-12`, and the band is the candidates above
    the cut. It holds the top estimate, and with it every candidate within
    1e-12 of the best exact score. Each band member's exact score beats
    every other candidate's by more than 1e-12, so the full scan's first band
    member replaces whatever best the scan held, and no candidate outside
    the band ever replaces a band member: from there the scan over the band
    alone makes the same choices as the full scan. Without such a gap (or
    with a bound that is not finite) the band is everything.
    """
    import numpy as np

    order = np.argsort(-estimate, kind="stable")
    ranked = estimate[order]
    with np.errstate(invalid="ignore"):  # -inf - -inf: no gap there
        gap = ranked[:-1] - ranked[1:]
    margin = 2 * error + 1e-12 + 2.0**-50 * (np.abs(ranked[1:]) + error + 1e-12)
    clears = gap > margin
    size = int(clears.argmax()) + 1 if clears.any() else len(order)
    return sorted(order[:size].tolist())


def clear(book: OrderBook, grid_price: float) -> ClearingOutcome:
    """Run the double auction for one slot.

    Picks the best-scoring candidate marginal pair, scanning pairs in order;
    a later pair must beat the best so far by more than 1e-12 to replace it.
    A book that never crosses, or whose best candidate scores a nonpositive
    welfare, clears empty rather than erroring. Only the candidates of
    `_band` are scanned, each with the greedy fill's exact score (a prefix's
    is refolded bitwise), which picks the same pair as scanning them all.
    The helpers import numpy when they run, so audits never load it.
    """
    buys, sells = book.buy_bids, book.sell_bids
    # winners sit strictly ahead of the marginal bids and fill along the path
    if len(buys) < 2 or len(sells) < 2 or not book.fill_path:
        return ClearingOutcome.empty()
    cand = _candidates(book, grid_price)
    best = None
    folded: dict[tuple[float, float, int], float] = {}  # prices and prefix fix a fold
    for k in _band(cand.estimate, cand.error):
        mi, ml = int(cand.mi[k]), int(cand.ml[k])
        if k in cand.capped:
            fill, score = cand.capped[k]
            if not fill:
                continue
        else:
            fill = p = int(cand.prefix[k])
            key = buys[mi][1], sells[ml][1], p
            if key not in folded:
                a, c = book.rho1 * key[0], book.rho2 * key[1]
                gains = [a * lx for lx in cand.logs[:p]]
                losses = [c * x * x / 2.0 for _, _, x in book.fill_path[:p]]
                # the greedy fill's `score += term`, term by term in path order
                folded[key] = reduce(add, map(sub, gains, losses), 0.0)
            score = folded[key]
        if best is None or score > best[3] + 1e-12:
            best = mi, ml, fill, score
    if best is None or best[3] <= 0.0:
        return ClearingOutcome.empty()
    mi, ml, fill, _ = best
    if isinstance(fill, int):
        fill = {(buys[i][0], sells[k][0]): x for i, k, x in book.fill_path[:fill]}
    return ClearingOutcome(buys[mi][1], sells[ml][1], fill)


def budget_check(outcome: ClearingOutcome) -> float:
    """Auctioneer surplus: buyers' payments minus sellers' receipts, never < 0."""
    volume = outcome.total_volume()
    surplus = (outcome.buy_clearing_price - outcome.sell_clearing_price) * volume
    if surplus < -1e-9:
        raise InvariantViolation(
            f"auctioneer deficit {surplus:.9f}: buy price "
            f"{outcome.buy_clearing_price} below sell price "
            f"{outcome.sell_clearing_price}"
        )
    if volume > DUST_KWH and outcome.buy_clearing_price <= outcome.sell_clearing_price:
        raise InvariantViolation("positive volume with non-crossing clearing prices")
    return surplus


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


def audit_rows(slot: int, book: OrderBook, outcome: ClearingOutcome) -> list[AuditRow]:
    """One row per bid, buys then sells in book order."""
    trades = outcome.trades
    rows: list[AuditRow] = []
    for side, bids, cleared in (
        ("buy", book.buy_bids, outcome.buy_clearing_price),
        ("sell", book.sell_bids, outcome.sell_clearing_price),
    ):
        for mg_id, price, qty in bids:
            trade = trades.get(mg_id)
            if trade is None:
                rows.append(AuditRow(slot, mg_id, side, price, qty, 0, 0.0, 0.0))
            else:
                got = trade.bought_kwh if side == "buy" else trade.sold_kwh
                rows.append(AuditRow(slot, mg_id, side, price, qty, 1, cleared, got))
    return rows
