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
capped greedy fill on its own winners. A prefix is scored with the same
float operations, in the same order, as the greedy fill would use, so every
score is bitwise the one the from-scratch fill gives.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from operator import add, sub
from typing import NamedTuple

from .controller import BidPair, TradeAllocation
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
    def from_bids(cls, bids: list[BidPair], rho1: float, rho2: float) -> "OrderBook":
        buys = tuple((b.mg_id, b.buy_price, b.buy_quantity_kwh) for b in bids)
        sells = tuple((b.mg_id, b.sell_price, b.sell_quantity_kwh) for b in bids)
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


def _candidates(
    book: OrderBook, grid_price: float
) -> Iterator[tuple[int, int, int | dict[tuple[int, int], float], float]]:
    """Yield (mi, ml, fill, score) for every feasible marginal pair.

    ``fill`` is the length of the candidate's prefix of ``book.fill_path``,
    or, when the x* cap binds inside that prefix, the allocation the capped
    greedy fill gives. Winners are the bids strictly ahead of the marginal
    ones, so a book needs at least two bids per side to yield anything.
    Pairs come in scan order: marginal buy index outer, marginal sell index
    inner.
    """
    buys, sells = book.buy_bids, book.sell_bids
    rho1, rho2 = book.rho1, book.rho2
    path = book.fill_path
    buyer_at = [i for i, _, _ in path]
    seller_at = [k for _, k, _ in path]
    xs = [x for _, _, x in path]
    logs = list(map(math.log, xs))
    top = list(accumulate(xs, max, initial=0.0))  # top[p]: largest x of p pairs
    # Python evaluates the greedy fill's term rho1*bp*ln(x) - rho2*sp*x*x/2
    # as (rho1*bp)*ln(x) - ((rho2*sp)*x)*x/2, so the two halves are kept per
    # pair: gains for the marginal buy price, losses[ml - 1] for the
    # marginal sell price, over the pairs whose buyer (seller) is ahead.
    losses: list[list[float]] = []
    for mi in range(1, len(buys)):
        buy_price = buys[mi][1]
        if buy_price > grid_price:
            continue
        by_buyer = bisect_left(buyer_at, mi)
        a = rho1 * buy_price
        gains = [a * lx for lx in logs[:by_buyer]]
        for ml in range(1, len(sells)):
            sell_price = sells[ml][1]
            if not buy_price > sell_price:
                break  # sells ascend: later ml only worse
            if len(losses) < ml:
                c = rho2 * sell_price
                by_seller = bisect_left(seller_at, ml)
                losses.append([c * x * x / 2.0 for x in xs[:by_seller]])
            loss = losses[ml - 1]
            p = min(by_buyer, len(loss))
            if not p:
                continue
            if sell_price > 0 and pair_quantity(buy_price, sell_price, rho1, rho2) < top[p]:
                alloc, score = _greedy_allocation(
                    buys[:mi], sells[:ml], buy_price, sell_price, rho1, rho2
                )
                if alloc:
                    yield mi, ml, alloc, score
            else:
                # map stops after p terms; reduce is the fill's score += term
                yield mi, ml, p, reduce(add, map(sub, gains, loss), 0.0)


def clear(book: OrderBook, grid_price: float) -> ClearingOutcome:
    """Run the double auction for one slot.

    Picks the best-scoring candidate marginal pair; a later pair must beat
    the best so far by more than 1e-12 to replace it. A book that never
    crosses, or whose best candidate scores a nonpositive welfare, clears
    empty rather than erroring.
    """
    best = None
    for cand in _candidates(book, grid_price):
        if best is None or cand[3] > best[3] + 1e-12:
            best = cand
    if best is None or best[3] <= 0.0:
        return ClearingOutcome.empty()
    mi, ml, fill, _ = best
    buys, sells = book.buy_bids, book.sell_bids
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
