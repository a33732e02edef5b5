"""Double-auction clearing, pricing, budget balance, and audit output."""

import csv
import functools
import math
import random
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtrade import auction
from mgtrade.auction import (
    ClearingOutcome,
    OrderBook,
    _candidates,
    budget_check,
    clear,
    pair_quantity,
)
from mgtrade.controller import Bids
from mgtrade.errors import InvariantViolation, MarketError
from mgtrade.sim import AUDIT_HEADER, audit_rows, write_audit_csv

from columnar import allocations_by_id, book_of, book_sides, record_of, trade_of
from oracles import (
    TradeAllocation,
    TupleBook,
    enumerate_clearings,
    reference_audit_rows,
    reference_clear,
    reference_trades,
)

RHO1, RHO2 = 1000.0, 1e-4


def book(buys, sells, rho1=RHO1, rho2=RHO2) -> OrderBook:
    return book_of(buys, sells, rho1, rho2)


# ------------------------------------------------------------- pair quantity


def test_pair_quantity_reference_value():
    q = pair_quantity(2.0, 1.0, RHO1, RHO2)
    assert q == pytest.approx(math.sqrt(2e7), rel=1e-9)


def test_pair_quantity_unit_case():
    assert pair_quantity(3.0, 3.0, 5.0, 5.0) == pytest.approx(1.0)


def test_pair_quantity_scales_with_sqrt_of_buy_price():
    base = pair_quantity(2.0, 1.0, RHO1, RHO2)
    assert pair_quantity(4.0, 1.0, RHO1, RHO2) == pytest.approx(base * math.sqrt(2.0))


def test_pair_quantity_rejects_zero_ask():
    with pytest.raises(MarketError):
        pair_quantity(2.0, 0.0, RHO1, RHO2)


def test_pair_quantity_rejects_bad_weights():
    with pytest.raises(MarketError):
        pair_quantity(2.0, 1.0, 0.0, RHO2)
    with pytest.raises(MarketError):
        pair_quantity(-1.0, 1.0, RHO1, RHO2)


# ----------------------------------------------------------------- order book


def test_book_sorts_and_breaks_ties_by_id():
    b = book(
        buys=[(3, 5.0, 1.0), (1, 7.0, 1.0), (2, 7.0, 1.0)],
        sells=[(6, 2.0, 1.0), (4, 2.0, 1.0), (5, 1.0, 1.0)],
    )
    buys, sells = book_sides(b)
    assert [x[0] for x in buys] == [1, 2, 3]
    assert [x[0] for x in sells] == [5, 4, 6]


def test_book_drops_zero_quantity_bids():
    b = book(buys=[(1, 5.0, 0.0), (2, 4.0, 3.0)], sells=[])
    assert len(b.buy_bids) == 1
    assert book_sides(b)[0][0][0] == 2


def test_book_rejects_duplicate_mg():
    with pytest.raises(MarketError):
        book(buys=[(1, 5.0, 1.0)], sells=[(1, 2.0, 1.0)])


def test_book_rejects_negative_price():
    with pytest.raises(MarketError):
        book(buys=[(1, -5.0, 1.0)], sells=[])
    # a negative quantity is rejected, not dropped with the zero-quantity bids
    with pytest.raises(MarketError, match="mg 1: negative"):
        book(buys=[(1, 5.0, -3.0), (2, 4.0, 2.0)], sells=[(3, 1.0, 2.0)])


def test_book_rejects_bad_weights():
    with pytest.raises(MarketError):
        book(buys=[], sells=[], rho2=0.0)


def test_from_bids_splits_sides():
    bids = Bids(
        sell_price=np.array([0.0, 1.0, 0.5]),
        buy_price=np.array([4.0, 1.0, 1.0]),
        sell_quantity_kwh=np.array([0.0, 25.0, 0.0]),
        buy_quantity_kwh=np.array([10.0, 0.0, 0.0]),
    )
    b = OrderBook.from_bids([1, 2, 3], bids, RHO1, RHO2)
    buys, sells = book_sides(b)
    assert [x[0] for x in buys] == [1]
    assert [x[0] for x in sells] == [2]


# -------------------------------------------------------------------- clearing


def test_clear_marginal_pair_prices_the_market():
    b = book(
        buys=[(1, 5.0, 100.0), (2, 3.0, 100.0), (3, 2.0, 100.0)],
        sells=[(4, 1.0, 100.0), (5, 2.0, 100.0), (6, 4.0, 100.0)],
    )
    out = clear(b, grid_price=10.0)
    trades = allocations_by_id(b, out)
    assert {b for b, _ in trades} == {1}
    assert {s for _, s in trades} == {4}
    assert out.buy_clearing_price == 3.0
    assert out.sell_clearing_price == 2.0
    # stationary quantity sqrt(1000*3/(1e-4*2)) ~ 3873 kWh, so caps bind
    assert out.total_volume() == pytest.approx(100.0)
    assert trades == {(1, 4): pytest.approx(100.0)}


def test_clear_single_pair_book_stays_empty():
    """One bid per side leaves no one strictly inside a marginal pair."""
    b = book(buys=[(1, 2.0, 10.0)], sells=[(2, 1.0, 10.0)], rho1=1.0, rho2=1.0)
    out = clear(b, grid_price=5.0)
    assert out.total_volume() == 0.0
    assert {buyer for buyer, _ in allocations_by_id(b, out)} == set()
    # the stationary quantity for that pair is still well-defined
    assert pair_quantity(2.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0))


def test_clear_one_sided_book_stays_empty():
    b = book(buys=[(1, 5.0, 10.0), (2, 4.0, 10.0)], sells=[])
    out = clear(b, grid_price=10.0)
    assert out == ClearingOutcome.empty()


def test_clear_respects_grid_price_cap():
    # the only crossing pair prices buys above the grid: trading would be
    # worse than just buying from the grid, so nothing clears
    b = book(
        buys=[(1, 9.0, 50.0), (2, 8.0, 50.0)],
        sells=[(3, 1.0, 50.0), (4, 2.0, 50.0)],
    )
    assert clear(b, grid_price=7.0).total_volume() == 0.0
    assert clear(b, grid_price=8.0).total_volume() == pytest.approx(50.0)


def test_clear_zero_ask_marginal_is_cap_bound():
    b = book(
        buys=[(1, 5.0, 50.0), (2, 3.0, 40.0)],
        sells=[(3, 0.0, 60.0), (4, 0.0, 70.0)],
    )
    out = clear(b, grid_price=10.0)
    assert out.sell_clearing_price == 0.0
    # a zero ask has no stationary quantity: the bid caps bind
    assert allocations_by_id(b, out) == {(1, 3): 50.0}
    assert budget_check(out) == pytest.approx(150.0)


def test_clear_declines_negative_welfare():
    # rho weights make even the best crossing pair lose welfare
    b = book(
        buys=[(1, 3.0, 100.0), (2, 2.0, 100.0)],
        sells=[(3, 1.0, 100.0), (4, 1.5, 100.0)],
        rho1=1e-4,
        rho2=1000.0,
    )
    out = clear(b, grid_price=10.0)
    assert out.total_volume() == 0.0


def test_candidate_scores_cover_all_feasible_pairs():
    b = book(
        buys=[(1, 5.0, 100.0), (2, 3.0, 100.0), (3, 2.5, 100.0)],
        sells=[(4, 1.0, 100.0), (5, 2.0, 100.0), (6, 2.2, 100.0)],
    )
    cand = _candidates(b, grid_price=10.0)
    pairs = set(zip(cand.mi, cand.ml))
    assert len(cand.mi) == len(pairs)
    assert pairs == {(1, 1), (1, 2), (2, 1), (2, 2)}


# ---------------------------------------------------------------- budget rule


def test_budget_check_empty_outcome():
    assert budget_check(ClearingOutcome.empty()) == 0.0


def test_budget_check_reference_surplus():
    out = ClearingOutcome(
        buy_clearing_price=2.0,
        sell_clearing_price=1.0,
        allocations=((0, 1, math.sqrt(2.0)),),
    )
    assert budget_check(out) == pytest.approx(math.sqrt(2.0))


def test_budget_check_raises_on_deficit():
    out = ClearingOutcome(
        buy_clearing_price=1.0,
        sell_clearing_price=2.0,
        allocations=((0, 1, 5.0),),
    )
    with pytest.raises(InvariantViolation):
        budget_check(out)


def test_budget_check_raises_on_non_crossing_volume():
    out = ClearingOutcome(
        buy_clearing_price=2.0,
        sell_clearing_price=2.0,
        allocations=((0, 1, 5.0),),
    )
    with pytest.raises(InvariantViolation):
        budget_check(out)


# ------------------------------------------------------------------ properties

MAX_SIDE = 12
ids = st.permutations(list(range(1, 2 * MAX_SIDE + 1)))
# few distinct prices, so ties are common on both sides
SELL_PRICES = [0.0, 0.3, 0.9, 1.7, 2.5, 4.0, 8.0]
BUY_PRICES = st.one_of(st.sampled_from([0.9, 2.5, 4.0, 6.0]), st.floats(0.1, 10.0))
QUANTITIES = st.one_of(
    st.floats(0.0, 300.0), st.sampled_from([1e-12, 5e-10, 1e-9, 2e-9])
)


@st.composite
def random_books(draw):
    mg_ids = draw(ids)
    n_buy = draw(st.integers(0, MAX_SIDE))
    n_sell = draw(st.integers(0, MAX_SIDE))
    buys = [
        (mg_ids[k], draw(BUY_PRICES), draw(QUANTITIES)) for k in range(n_buy)
    ]
    sells = [
        (mg_ids[MAX_SIDE + k], draw(st.sampled_from(SELL_PRICES)), draw(QUANTITIES))
        for k in range(n_sell)
    ]
    # at (1, 1e-4) x* is 100*sqrt(beta/alpha) kWh: it binds for some
    # candidates of a book and not for others
    rho1, rho2 = draw(
        st.sampled_from([(1.0, 1e-4), (1000.0, 1e-4), (1.0, 1.0), (1000.0, 1.0)])
    )
    grid = draw(st.floats(0.5, 12.0))
    return book_of(buys, sells, rho1, rho2), grid


def assert_clears_like_oracle(b: OrderBook, grid: float) -> None:
    """Prices and allocation items of ``clear`` equal the oracle's exactly."""
    out = clear(b, grid)
    best_score, best_alloc, buy_price, sell_price = enumerate_clearings(
        *book_sides(b), b.rho1, b.rho2, grid
    )
    if best_score is None or best_score <= 0.0:
        assert out == ClearingOutcome.empty()
        return
    assert (out.buy_clearing_price, out.sell_clearing_price) == (buy_price, sell_price)
    assert list(allocations_by_id(b, out).items()) == list(best_alloc.items())


@given(bg=random_books())
@settings(max_examples=300, deadline=None)
def test_clear_matches_exhaustive_enumeration(bg):
    assert_clears_like_oracle(*bg)


def test_cap_binds_for_some_candidates_only():
    """One book scored partly from the shared path, partly by the capped fill."""
    b = book(
        buys=[(1, 6.0, 150.0), (2, 5.0, 90.0), (3, 4.0, 300.0), (4, 2.0, 10.0)],
        sells=[(5, 0.9, 120.0), (6, 1.7, 80.0), (7, 2.5, 200.0), (8, 4.0, 50.0)],
        rho1=1.0,
    )
    cand = _candidates(b, grid_price=10.0)
    assert 0 < len(cand.capped) < len(cand.mi)
    assert_clears_like_oracle(b, 10.0)


def test_dust_bids_never_fill():
    b = book(
        buys=[(1, 6.0, 100.0), (2, 5.0, 1e-10), (3, 5.0, 100.0), (4, 4.0, 50.0)],
        sells=[(5, 1.0, 60.0), (6, 1.0, 1e-10), (7, 1.5, 80.0), (8, 3.0, 10.0)],
    )
    out = clear(b, grid_price=10.0)
    assert allocations_by_id(b, out) == {(1, 5): 60.0, (1, 7): 40.0, (3, 7): 40.0}
    assert_clears_like_oracle(b, 10.0)


def test_clear_without_binding_cap_never_refills(monkeypatch):
    """A wide book at the reference weights is scored from its path alone."""
    rng = random.Random(160)
    buys = [(k, rng.uniform(2.0, 16.0), rng.uniform(1.0, 1000.0)) for k in range(80)]
    sells = [
        (80 + k, rng.uniform(1.0, 10.0), rng.uniform(1.0, 1000.0)) for k in range(80)
    ]
    b = book(buys, sells)
    refills = []  # greedy fills with an x* cap; the path itself has none
    real = auction._greedy_fill
    monkeypatch.setattr(
        auction, "_greedy_fill", lambda *a: len(a) > 2 and refills.append(a) or real(*a)
    )
    assert len(_candidates(b, grid_price=16.0).mi) > 1000
    assert_clears_like_oracle(b, 16.0)
    assert refills == []


@given(bg=random_books())
@settings(max_examples=300, deadline=None)
def test_clear_outcome_invariants(bg):
    """Rationality, budget, caps, and price crossing for every cleared book."""
    b, grid = bg
    out = clear(b, grid)
    surplus = budget_check(out)
    assert surplus >= -1e-9
    if out.total_volume() <= 0:
        return
    assert out.buy_clearing_price > out.sell_clearing_price
    assert out.buy_clearing_price <= grid + 1e-12
    buy_bids, sell_bids = book_sides(b)
    buy_prices = {m: p for m, p, _ in buy_bids}
    sell_prices = {m: p for m, p, _ in sell_bids}
    buy_qty = {m: q for m, _, q in buy_bids}
    sell_qty = {m: q for m, _, q in sell_bids}
    trades = allocations_by_id(b, out)
    buyers = {b for b, _ in trades}
    sellers = {s for _, s in trades}
    for m in buyers:
        assert buy_prices[m] >= out.buy_clearing_price
        assert trade_of(b, out, m).bought_kwh <= buy_qty[m] + 1e-9
    for m in sellers:
        assert sell_prices[m] <= out.sell_clearing_price
        assert trade_of(b, out, m).sold_kwh <= sell_qty[m] + 1e-9
    total_bought = sum(trade_of(b, out, m).bought_kwh for m in buyers)
    total_sold = sum(trade_of(b, out, m).sold_kwh for m in sellers)
    assert total_bought == pytest.approx(total_sold, abs=1e-9)
    assert total_bought == pytest.approx(out.total_volume(), abs=1e-9)


# ------------------------------------------------- bulk scoring, exact choice


def assert_clears_like_reference(b: OrderBook, grid: float) -> ClearingOutcome:
    """``clear`` gives the outcome of the one-at-a-time prefix scan, exactly."""
    out = clear(b, grid)
    buy_price, sell_price, alloc = reference_clear(*book_sides(b), b.rho1, b.rho2, grid)
    assert (out.buy_clearing_price, out.sell_clearing_price) == (buy_price, sell_price)
    assert list(allocations_by_id(b, out).items()) == list(alloc.items())
    return out


def assert_estimates_bound_exact_scores(b: OrderBook, grid: float) -> None:
    """Each factored score lies within its error of the greedy fill's score.

    An uncapped pair's greedy fill is its prefix of the fill path, so the
    score is the greedy fill's sum, term by term, over that prefix.
    """
    if len(b.buy_bids) < 2 or len(b.sell_bids) < 2 or not b.fill_path:
        return  # clear never scores such a book
    cand = _candidates(b, grid)
    buy_price, _, sell_price, _ = b.floats
    for k, (mi, ml, p) in enumerate(zip(cand.mi, cand.ml, cand.prefix)):
        if k in cand.capped:
            continue
        bp, sp = buy_price[mi], sell_price[ml]
        exact = 0.0
        for _, _, x in b.fill_path[:p]:
            exact += b.rho1 * bp * math.log(x) - b.rho2 * sp * x * x / 2.0
        assert abs(exact - cand.estimate[k]) <= cand.error, (mi, ml, p)


# a few price levels, each also bumped by a few ulps: candidates tie exactly
# or sit within 1e-12 of each other, on both sides of the scan's margin
WIDE_SELL_LEVELS = [0.0, 0.9, 1.7, 2.5, 4.0]
WIDE_BUY_LEVELS = [2.5, 4.0, 6.0, 9.0]
ULPS = [0, 1, 2, 8, 64, 512, 4096]
# every bid stays in the book; dust bids never fill
WIDE_QUANTITIES = st.one_of(st.floats(0.5, 300.0), st.sampled_from([5e-10, 1e-9, 2e-9]))


def bumped(price: float, ulps: int) -> float:
    for _ in range(ulps if price else 0):  # a zero ask stays zero
        price = math.nextafter(price, math.inf)
    return price


@st.composite
def wide_books(draw):
    n_buy, n_sell = draw(st.integers(20, 28)), draw(st.integers(20, 28))
    levels = st.tuples(st.sampled_from(WIDE_BUY_LEVELS), st.sampled_from(ULPS))
    buys = [(k, bumped(*draw(levels)), draw(WIDE_QUANTITIES)) for k in range(n_buy)]
    levels = st.tuples(st.sampled_from(WIDE_SELL_LEVELS), st.sampled_from(ULPS))
    sells = [(100 + k, bumped(*draw(levels)), draw(WIDE_QUANTITIES)) for k in range(n_sell)]
    # at (1, 1e-4) and (1e-4, 1e-8) x* is 100*sqrt(beta/alpha) kWh and binds
    # for some pairs; at rho1 = 1 scores are small enough for 1e-12 to be
    # several ulps, and at rho1 = 1e-4 1e-12 outweighs the rounding bound
    rho1, rho2 = draw(
        st.sampled_from([(1.0, 1e-4), (1000.0, 1e-4), (1.0, 1e-6), (1e-4, 1e-8)])
    )
    grid = draw(st.sampled_from([3.0, 6.0, 9.0, 12.0]))
    return book_of(buys, sells, rho1, rho2), grid


def seeded_wide_book(rng: random.Random, rho1: float, rho2: float) -> OrderBook:
    """24 bids a side on the wide-book price levels, from a seeded generator."""
    buys = [
        (k, bumped(rng.choice(WIDE_BUY_LEVELS), rng.choice(ULPS)), rng.uniform(1.0, 300.0))
        for k in range(24)
    ]
    sells = [
        (100 + k, bumped(rng.choice(WIDE_SELL_LEVELS), rng.choice(ULPS)), rng.uniform(1.0, 300.0))
        for k in range(24)
    ]
    return book(buys, sells, rho1=rho1, rho2=rho2)


@given(bg=wide_books())
@settings(max_examples=120, deadline=None)
def test_wide_books_clear_like_the_reference_scan(bg):
    b, grid = bg
    assert len(b.buy_bids) + len(b.sell_bids) >= 40
    assert_clears_like_reference(b, grid)
    assert_estimates_bound_exact_scores(b, grid)


@given(bg=wide_books())
@settings(max_examples=10, deadline=None)
def test_wide_books_clear_like_exhaustive_enumeration(bg):
    """The from-scratch fill of every candidate agrees too (slow, so few books)."""
    assert_clears_like_oracle(*bg)


def test_wide_books_cover_caps_zero_asks_and_near_ties():
    """The wide-book strategy reaches the cases the band has to get right."""
    rng = random.Random(41)
    seen = {"capped": 0, "zero_ask": 0, "near_tie": 0, "band_over_1": 0}
    for _ in range(60):
        b = seeded_wide_book(rng, rho1=1.0, rho2=RHO2)
        assert_clears_like_reference(b, 12.0)
        cand = _candidates(b, 12.0)
        seen["capped"] += bool(cand.capped)
        seen["zero_ask"] += any(b.floats[2][ml] == 0.0 for ml in cand.ml)
        finite = sorted(e for e in cand.estimate.tolist() if e > -math.inf)
        seen["near_tie"] += any(0 < y - x < 1e-12 for x, y in zip(finite, finite[1:]))
        seen["band_over_1"] += len(auction._band(cand.estimate, cand.error)) > 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("rho1, rho2", [(1.0, 1e-4), (1e-4, 1e-8)])
def test_scan_keeps_an_earlier_pair_that_a_later_one_beats_by_under_1e_12(rho1, rho2):
    """Books where the 1e-12 margin, not the largest score, picks the winner.

    At rho1 = 1e-4 scores are about 0.1 and their rounding bound far below
    1e-12, so the band must widen by the margin itself.
    """
    decided_by_margin = 0
    for seed in range(50):
        rng = random.Random(seed)
        b = seeded_wide_book(rng, rho1, rho2)
        out = assert_clears_like_reference(b, 12.0)
        cand = _candidates(b, 12.0)
        top = max(range(len(cand.mi)), key=lambda k: cand.estimate[k])
        top_prices = (b.floats[0][cand.mi[top]], b.floats[2][cand.ml[top]])
        if (out.buy_clearing_price, out.sell_clearing_price) != top_prices:
            decided_by_margin += 1
    assert decided_by_margin >= 3


def flat_book(seed: int, n_buys: int = 30) -> OrderBook:
    """A book whose candidates all score within a few ulps of each other.

    One large cheap seller fills every buyer, so the candidate with marginal
    buyer m scores rho1*bp_m*L[m] - rho2*sp*Q[m] over the first m buyers;
    each bp_m is solved for the same target score. The factored and the
    bitwise scores then order the candidates differently, and only the
    refold decides which of them the scan keeps.
    """
    rng = random.Random(seed)
    qs = [rng.uniform(50.0, 150.0) for _ in range(n_buys)]
    sp = 1.0
    ln_sum, sq_sum = [0.0], [0.0]
    for q in qs:
        ln_sum.append(ln_sum[-1] + math.log(q))
        sq_sum.append(sq_sum[-1] + q * q / 2.0)
    target = RHO1 * 8.0 * ln_sum[1] - RHO2 * sp * sq_sum[1]
    prices = [9.0] + [
        (target + RHO2 * sp * sq_sum[m]) / (RHO1 * ln_sum[m]) for m in range(1, n_buys)
    ]
    buys = [(k, price, q) for k, (price, q) in enumerate(zip(prices, qs))]
    return book(buys, [(1000, 0.5, 1e6), (1001, sp, 1e6)])


def test_near_tied_candidates_are_decided_by_their_bitwise_scores():
    by_estimate_differs = 0
    for seed in range(30):
        b = flat_book(seed)
        out = assert_clears_like_reference(b, 12.0)
        cand = _candidates(b, 12.0)
        assert len(auction._band(cand.estimate, cand.error)) > 1
        best = None
        for k, score in enumerate(cand.estimate.tolist()):
            if best is None or score > cand.estimate[best] + 1e-12:
                best = k
        by_estimate = b.floats[0][cand.mi[best]], b.floats[2][cand.ml[best]]
        by_estimate_differs += by_estimate != (out.buy_clearing_price, out.sell_clearing_price)
    assert by_estimate_differs >= 5


def test_books_without_two_bids_a_side_skip_scoring(monkeypatch):
    monkeypatch.setattr(auction, "_candidates", lambda *a: pytest.fail("scored"))
    one_buy = book(buys=[(1, 5.0, 100.0)], sells=[(2, 1.0, 100.0), (3, 2.0, 100.0)])
    one_sell = book(buys=[(1, 5.0, 100.0), (2, 4.0, 100.0)], sells=[(3, 1.0, 100.0)])
    assert clear(one_buy, 10.0) == clear(one_sell, 10.0) == ClearingOutcome.empty()


@functools.cache
def recorded_books(n_mgs: int, seed: int) -> tuple[tuple[OrderBook, float], ...]:
    """Every (book, grid price) a 24-slot auction run of n_mgs MGs clears, by slot."""
    from mgtrade import sim
    from mgtrade.cli import config_from_dict

    rng = random.Random(f"books:{n_mgs}:{seed}")
    types = ["type1"] * (n_mgs // 2) + ["type2"] * (n_mgs - n_mgs // 2)
    rng.shuffle(types)
    doc = {
        "seed": seed, "horizon_slots": 24, "mode": "with_auction",
        "rho1": 1000.0, "rho2": 0.0001,
        "mgs": [
            {"id": k + 1, "mg_type": t, "battery_capacity_kwh": 3000.0,
             "charge_rate_max_kwh": 1500.0, "discharge_rate_max_kwh": 1500.0,
             "serve_rate_max_kwh": 1500.0, "price_floor": 1.0, "v_fraction": 1.0}
            for k, t in enumerate(types)
        ],
    }
    books = []
    real = sim.clear
    sim.clear = lambda b, g: books.append((b, g)) or real(b, g)
    try:
        sim.run(config_from_dict(doc)[0])
    finally:
        sim.clear = real
    return tuple(books)


@pytest.mark.parametrize("n_mgs", [24, 96, 200])
def test_recorded_books_clear_like_the_reference_scan(n_mgs):
    books = recorded_books(n_mgs, seed=n_mgs)
    assert len(books) == 24
    assert max(len(b.buy_bids) + len(b.sell_bids) for b, _ in books) >= 0.8 * n_mgs
    filled = 0
    for b, grid in books:
        filled += bool(assert_clears_like_reference(b, grid).allocations)
    assert filled >= 12


# ----------------------------------------------------------------- audit trail


def test_audit_rows_cover_every_bid(tmp_path):
    b = book(
        buys=[(1, 5.0, 100.0), (2, 3.0, 100.0)],
        sells=[(3, 1.0, 100.0), (4, 2.0, 100.0)],
    )
    out = clear(b, grid_price=10.0)
    line = namedtuple("line", AUDIT_HEADER)
    record = record_of(7, b, out.fills(len(b.ids)))
    rows = list(map(line._make, audit_rows(record)))
    assert len(rows) == 4
    by_mg = {r.mg_id: r for r in rows}
    assert by_mg[1].accepted == 1 and by_mg[2].accepted == 0  # winner and marginal buyer
    assert by_mg[3].accepted == 1 and by_mg[4].accepted == 0
    assert by_mg[1].slot == 7
    assert by_mg[1].cleared_quantity == by_mg[3].cleared_quantity == out.total_volume()
    assert by_mg[2].cleared_price == by_mg[2].cleared_quantity == 0.0

    path = tmp_path / "audit.csv"
    write_audit_csv(path, [record])
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert tuple(got[0]) == AUDIT_HEADER
    assert len(got) == 5
    assert got[1] == ["7", "1", "buy", "5.000000", "100.000000", "1", "3.000000", "100.000000"]


# ------------------------------------------- the tuple market stage, frozen


def assert_market_stage_equals_the_reference(slot: int, b: OrderBook, grid: float) -> None:
    """Book order, fills, unit prices and audit lines equal the tuple stage's, by repr.

    The reference rebuilds the book as sorted tuples from the same bid
    columns, clears it with the frozen scan and joins fills to bids by MG id.
    Both the cleared outcome and the empty one (a solo run's) are compared.
    """
    ids = b.ids.tolist()
    ref = TupleBook.from_bids(ids, b.bids, b.rho1, b.rho2)
    assert repr(book_sides(b)) == repr((list(ref.buy_bids), list(ref.sell_bids)))
    cleared = reference_clear(ref.buy_bids, ref.sell_bids, b.rho1, b.rho2, grid)
    for out, (bp, sp, alloc) in (
        (clear(b, grid), cleared),
        (ClearingOutcome.empty(), (0.0, 0.0, {})),
    ):
        fills = out.fills(len(ids))
        trades = reference_trades(bp, sp, alloc)
        want = [trades.get(m, TradeAllocation.none(m)) for m in ids]
        assert repr(fills.T.tolist()) == repr([
            [t.bought_kwh, t.sold_kwh, t.buy_unit_price, t.sell_unit_price] for t in want
        ])
        rows = reference_audit_rows(slot, ref, bp, sp, trades)
        assert repr(audit_rows(record_of(slot, b, fills))) == repr([tuple(r) for r in rows])


@pytest.mark.parametrize("n_mgs", [24, 96, 200])
def test_recorded_market_stages_equal_the_tuple_reference(n_mgs):
    books = recorded_books(n_mgs, seed=n_mgs)
    for slot, (b, grid) in enumerate(books):
        assert_market_stage_equals_the_reference(slot, b, grid)


# few price levels, 0.0 among them, so ties between MGs are common
TIED_SELL_PRICES = [0.0, 0.0, 0.5, 1.0, 2.5]
TIED_BUY_PRICES = [0.0, 1.0, 1.0, 2.5, 4.0]
TIED_QUANTITIES = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-10, 50.0, 100.0]), st.floats(0.0, 300.0)
)


@st.composite
def fleet_books(draw):
    """A book from fleet columns: each MG buys, sells or bids nothing at all.

    Every MG posts both prices, as `make_bids` does, and at most one positive
    quantity; sides may be empty, and a side's quantity may be zero.
    """
    n = draw(st.integers(1, 12))
    mg_ids = draw(st.permutations(list(range(1, 25))))[:n]
    sides = draw(st.sampled_from(["both", "buy", "sell"]))
    cells = []
    for _ in range(n):
        sell_price = draw(st.sampled_from(TIED_SELL_PRICES))
        buy_price = draw(st.sampled_from(TIED_BUY_PRICES))
        kwh = draw(TIED_QUANTITIES)
        sells = {"both": draw(st.booleans()), "buy": False, "sell": True}[sides]
        cells.append((sell_price, buy_price, kwh if sells else 0.0, 0.0 if sells else kwh))
    bids = Bids(*(np.array(c, dtype=float) for c in zip(*cells)))
    rho1, rho2 = draw(st.sampled_from([(1.0, 1e-4), (1000.0, 1e-4), (1.0, 1.0)]))
    grid = draw(st.sampled_from([0.5, 2.5, 3.0, 12.0]))
    return OrderBook.from_bids(mg_ids, bids, rho1, rho2), grid


@given(bg=fleet_books(), slot=st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_market_stage_equals_the_tuple_reference_on_tied_books(bg, slot):
    assert_market_stage_equals_the_reference(slot, *bg)
