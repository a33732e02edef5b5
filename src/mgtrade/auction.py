"""Uniform-price double auction over per-slot microgrid bid pairs.

A slot's market is held as columns indexed by fleet position, as the slot
step holds its MGs: the book keeps every MG's bid columns and the book order
of each side, the fills name MGs by position, and each MG's bought and sold
kWh and unit prices come from them as columns. The slot's record keeps the
book order, from which `mgtrade.sim.audit_rows` lists the bids.

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
greedy fill on its own winners with the cap.

A prefix's score factors into prefix sums along the path, so one numpy
expression scores every (marginal buy, marginal sell) pair of the book.
Factoring changes the last bits of a score, and the scan keeps a later pair
only if it beats the best so far by more than 1e-12, so the choice is not
made on the factored scores: a forward error bound on them picks the few
candidates that can still win, and only those are scored with the greedy
fill's own float operations, in its order, and scanned. The outcome is
bitwise the one scanning every pair with from-scratch fills gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Any, NamedTuple

import numpy as np

from .controller import Bids
from .errors import InvariantViolation, MarketError

DUST_KWH = 1e-9


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class OrderBook:
    """A slot's bids by fleet position, and the book order of each side.

    ``bids`` holds every MG's bid pair and ``ids`` its MG id: entry k of
    each column belongs to the MG at position k of the fleet. ``buy_bids``
    lists the positions of the live buy bids in book order, price descending
    with ties by MG id; ``sell_bids`` the live sell bids, price ascending
    with ties by MG id. A bid is live when its quantity is positive.
    """

    ids: Any
    bids: Bids
    buy_bids: Any
    sell_bids: Any
    rho1: float
    rho2: float

    @classmethod
    def from_bids(cls, ids, bids: Bids, rho1: float, rho2: float) -> "OrderBook":
        """The book of every MG's bid pair: ``ids[k]`` posted entry k of each column.

        Rejects welfare weights that are not positive, a negative price or
        quantity on either side of any bid, live or not (naming the first MG
        with one), and an MG live twice or on both sides.
        """
        if rho1 <= 0 or rho2 <= 0:
            raise MarketError("welfare weights rho1, rho2 must be > 0")
        ids, table = np.asarray(ids), np.array(bids)
        if len(ids) and table.min() < 0:
            bad = (table < 0).any(axis=0).argmax()
            raise MarketError(f"mg {ids[bad]}: negative bid price or quantity")
        sell_price, buy_price, sell_kwh, buy_kwh = bids
        (buys,), (sells,) = (buy_kwh > 0.0).nonzero(), (sell_kwh > 0.0).nonzero()
        live = ids[np.concatenate((buys, sells))].tolist()
        if len(set(live)) < len(live):
            twice = next(m for k, m in enumerate(live) if m in live[:k])
            raise MarketError(f"mg {twice}: appears more than once in the book")
        buys = buys[np.lexsort((ids[buys], -buy_price[buys]))]
        sells = sells[np.lexsort((ids[sells], sell_price[sells]))]
        return cls(ids, bids, buys, sells, rho1, rho2)

    @cached_property
    def floats(self) -> tuple[list[float], list[float], list[float], list[float]]:
        """Buy prices, buy kWh, sell prices and sell kWh in book order, as
        Python floats: the per-bid loops do the greedy fill's arithmetic."""
        sell_price, buy_price, sell_kwh, buy_kwh = self.bids
        buys = [column[self.buy_bids].tolist() for column in (buy_price, buy_kwh)]
        sells = [column[self.sell_bids].tolist() for column in (sell_price, sell_kwh)]
        return (*buys, *sells)

    @cached_property
    def fill_path(self) -> tuple[tuple[int, int, float], ...]:
        """The uncapped greedy fill, one northwest-corner path through the book."""
        _, buy_kwh, _, sell_kwh = self.floats
        return tuple(_greedy_fill(buy_kwh, sell_kwh))


@dataclass(frozen=True)
class ClearingOutcome:
    """A slot's clearing prices and trades.

    ``allocations`` holds one (buyer, seller, kWh) entry per matched pair,
    in fill order, each MG named by its fleet position; it is empty when
    nothing clears.
    """

    buy_clearing_price: float
    sell_clearing_price: float
    allocations: tuple[tuple[int, int, float], ...] = ()

    @classmethod
    def empty(cls) -> "ClearingOutcome":
        return cls(0.0, 0.0)

    def total_volume(self) -> float:
        return sum(x for _, _, x in self.allocations)

    def fills(self, n: int):
        """Every MG's (bought, sold, buy unit price, sell unit price), as four columns.

        Entry k of each column belongs to fleet position k of n. `bincount`
        adds each MG's trades in fill order, one after another from 0.0; the
        logged quantities depend on that order to the last bit. An MG that
        traded on a side pays or earns that side's clearing price; every
        other unit price is zero.
        """
        fills = np.zeros((4, n))
        if self.allocations:
            buyer, seller, kwh = zip(*self.allocations)
            fills[0] = np.bincount(buyer, weights=kwh, minlength=n)
            fills[1] = np.bincount(seller, weights=kwh, minlength=n)
            fills[2] = np.where(fills[0] > 0.0, self.buy_clearing_price, 0.0)
            fills[3] = np.where(fills[1] > 0.0, self.sell_clearing_price, 0.0)
        return fills


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


def _greedy_fill(
    buy_kwh: list[float], sell_kwh: list[float], x_star: float = math.inf
) -> list[tuple[int, int, float]]:
    """Match winners best-first, each pair capped at x_star: (buyer, seller, kWh) steps.

    ``buy_kwh`` and ``sell_kwh`` are the winners' quantities in book order,
    and the steps index them. Buyers in book order fill sellers in book
    order, each step trading min(x_star, buyer remaining, seller remaining)
    unless that is dust. A buyer starts at the first seller that is not
    exhausted, so uncapped both indices are nondecreasing along the fill.
    Pairwise balance holds by construction: one number per (buyer, seller)
    pair.
    """
    fill: list[tuple[int, int, float]] = []
    remaining_s = list(sell_kwh)
    first = 0
    for i, rem_b in enumerate(buy_kwh):
        while first < len(remaining_s) and remaining_s[first] <= DUST_KWH:
            first += 1
        for k in range(first, len(remaining_s)):
            if rem_b <= DUST_KWH:
                break
            rem_s = remaining_s[k]
            if rem_s <= DUST_KWH:
                continue
            x = min(x_star, rem_b, rem_s)
            if x <= DUST_KWH:
                continue
            fill.append((i, k, x))
            rem_b -= x
            remaining_s[k] -= x
    return fill


def _score(fill, buy_price: float, sell_price: float, rho1: float, rho2: float) -> float:
    """A fill's realized welfare: rho1*bp*ln(x) - rho2*sp*x*x/2 added up step by step."""
    a, c = rho1 * buy_price, rho2 * sell_price
    return reduce(add, (a * math.log(x) - c * x * x / 2.0 for _, _, x in fill), 0.0)


class _Candidates(NamedTuple):
    """Every feasible marginal pair of a book, in scan order, with its score.

    Scan order is marginal buy index outer, marginal sell index inner; the
    first three fields are numpy int arrays, one entry per pair. A pair whose
    greedy fill is its prefix of the fill path has that prefix's length in
    ``prefix`` and its factored score in ``estimate``. A pair whose x* cap
    binds has its (fill, score) from the capped greedy fill in ``capped``,
    and that score as its estimate (-inf if the fill allocates nothing).
    Every estimate lies within ``error`` of the greedy fill's score.
    """

    mi: Any
    ml: Any
    prefix: Any
    estimate: Any
    error: float
    capped: dict[int, tuple[list[tuple[int, int, float]], float]]


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
    buy_price, buy_kwh, sell_price, sell_kwh = book.floats
    rho = book.rho1, book.rho2
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

    by_buyer = np.searchsorted(buyer_at, np.arange(1, len(buy_kwh)))
    by_seller = np.searchsorted(seller_at, np.arange(1, len(sell_kwh)))
    bp, sp = np.array(buy_price[1:]), np.array(sell_price[1:])
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
        bp_i, sp_j = buy_price[i], sell_price[j]
        fill = _greedy_fill(buy_kwh[:i], sell_kwh[:j], pair_quantity(bp_i, sp_j, *rho))
        score = _score(fill, bp_i, sp_j, *rho)
        capped[k] = fill, score
        estimate[k] = score if fill else -math.inf
    return _Candidates(mi, ml, p, estimate, error, capped)


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
    # winners sit strictly ahead of the marginal bids and fill along the path
    if len(book.buy_bids) < 2 or len(book.sell_bids) < 2 or not book.fill_path:
        return ClearingOutcome.empty()
    buy_price, _, sell_price, _ = book.floats
    cand = _candidates(book, grid_price)
    best = None
    for k in _band(cand.estimate, cand.error):
        mi, ml = int(cand.mi[k]), int(cand.ml[k])
        if k in cand.capped:
            fill, score = cand.capped[k]
            if not fill:
                continue
        else:
            fill = book.fill_path[: int(cand.prefix[k])]
            score = _score(fill, buy_price[mi], sell_price[ml], book.rho1, book.rho2)
        if best is None or score > best[3] + 1e-12:
            best = mi, ml, fill, score
    if best is None or best[3] <= 0.0:
        return ClearingOutcome.empty()
    mi, ml, fill, _ = best
    buyer, seller = book.buy_bids.tolist(), book.sell_bids.tolist()
    trades = tuple((buyer[i], seller[k], x) for i, k, x in fill)
    return ClearingOutcome(buy_price[mi], sell_price[ml], trades)


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
