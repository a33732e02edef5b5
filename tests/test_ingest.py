"""Trace parsing, scaling, and the seeded synthetic generators."""

import random
from statistics import mean

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgtrade.errors import ConfigError, ParseError
from mgtrade.ingest import (
    draw_load_grid,
    load_trace,
    scale_wind,
    synthetic_price,
    synthetic_wind,
)
from mgtrade.model import LoadModel, PriceBounds
from oracles import reference_draw_loads


def write_csv(path, rows, header="slot,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


# -------------------------------------------------------------------- parsing


def test_load_trace_reads_values(tmp_path):
    p = write_csv(tmp_path / "wind.csv", [f"{k},{100 + k}" for k in range(120)])
    values = load_trace(p)
    assert values.dtype == np.float64 and values.shape == (120,)
    assert values.tolist() == [100.0 + k for k in range(120)]


def test_load_trace_missing_file(tmp_path):
    with pytest.raises(ParseError, match="not found"):
        load_trace(tmp_path / "nope.csv")


def test_load_trace_missing_column(tmp_path):
    p = write_csv(tmp_path / "t.csv", ["0,1"], header="slot,kw")
    with pytest.raises(ParseError, match="value"):
        load_trace(p)


def test_load_trace_reports_bad_line(tmp_path):
    """Non-numeric cells are blamed on their file line, not swallowed."""
    p = write_csv(tmp_path / "t.csv", ["0,12", "1,abc"])
    with pytest.raises(ParseError, match="line 3"):
        load_trace(p)


def test_load_trace_rejects_negative(tmp_path):
    p = write_csv(tmp_path / "t.csv", ["0,5", "1,-2"])
    with pytest.raises(ParseError, match="line 3"):
        load_trace(p)


def test_load_trace_rejects_empty(tmp_path):
    p = (tmp_path / "t.csv")
    p.write_text("slot,value\n")
    with pytest.raises(ParseError, match="no data"):
        load_trace(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_load_trace_rejects_a_non_finite_value(tmp_path, cell):
    p = write_csv(tmp_path / "t.csv", ["0,5", f"1,{cell}"])
    with pytest.raises(ParseError, match="bad value .* at line 3"):
        load_trace(p)


# -------------------------------------------------------------------- scaling


def test_scale_wind_hits_target_mean():
    scaled = scale_wind(np.array([25.0, 75.0]), 200.0, "t")  # mean 50
    assert mean(scaled) == pytest.approx(200.0)
    assert scaled.tolist() == [100.0, 300.0]  # factor 4 applied pointwise


def test_scale_wind_identity():
    values = np.array([10.0, 30.0])
    assert scale_wind(values, 20.0, "t").tolist() == pytest.approx(values.tolist())


def test_scale_wind_takes_the_mean_python_sums():
    """The factor is the target over Python's in-order `sum` over the count;
    numpy's pairwise mean of these 24 values differs in its last bit."""
    values = [21.7, 42.2, 2.9, 22.2, 43.8, 49.6, 23.3, 23.1, 21.9, 46.0, 29.0, 2.1,
              83.8, 55.6, 64.2, 18.6, 99.3, 86.0, 12.1, 33.3, 72.1, 71.1, 93.6, 42.2]
    factor = 3.0 / (sum(values) / len(values))
    assert factor != 3.0 / np.array(values).mean()
    assert scale_wind(np.array(values), 3.0, "t").tolist() == [v * factor for v in values]


def test_scale_wind_rejects_zero_trace():
    with pytest.raises(ConfigError, match="gusts: cannot scale an all-zero trace"):
        scale_wind(np.array([0.0, 0.0]), 10.0, "gusts")


def test_scale_wind_rejects_negative_target():
    with pytest.raises(ConfigError):
        scale_wind(np.array([1.0]), -1.0, "t")


@given(
    values=st.lists(st.floats(0.1, 500.0), min_size=2, max_size=40),
    target=st.floats(0.5, 1000.0),
)
def test_scale_wind_preserves_shape(values, target):
    scaled = scale_wind(np.array(values), target, "t")
    ratios = [s / v for s, v in zip(scaled.tolist(), values)]
    assert max(ratios) - min(ratios) < 1e-9


# ---------------------------------------------------------------------- loads


def test_load_model_validation():
    with pytest.raises(ConfigError):
        LoadModel("type3", 1.0, 2.0, rng_seed=0)
    with pytest.raises(ConfigError):
        LoadModel("type1", 5.0, 2.0, rng_seed=0)
    with pytest.raises(ConfigError):
        LoadModel("type1", 1.0, float("inf"), rng_seed=0)
    with pytest.raises(ConfigError):
        LoadModel("type1", 1.0, 2.0, rng_seed=0, dt_share=0.0)
    with pytest.raises(ConfigError):
        LoadModel("type1", 1.0, 2.0, rng_seed=-1)


def draw_loads(model: LoadModel, slot: int) -> tuple[float, float]:
    """One slot's (di, dt): a one-cell grid."""
    (di,), (dt,) = draw_load_grid([model], [slot])
    return di[0], dt[0]


def test_draw_loads_stay_in_bounds():
    m = LoadModel("type1", 100.0, 200.0, rng_seed=3)
    (di_row,), (dt_row,) = draw_load_grid([m], range(500))
    for di, dt in zip(di_row, dt_row):
        assert 100.0 <= di <= 200.0
        assert 100.0 <= dt <= 200.0


def test_draw_loads_type2_bounds():
    m = LoadModel("type2", 200.0, 400.0, rng_seed=9)
    (di_row,), (dt_row,) = draw_load_grid([m], range(200))
    draws = list(zip(di_row, dt_row))
    assert all(200.0 <= di <= 400.0 and 200.0 <= dt <= 400.0 for di, dt in draws)


def test_draw_loads_reproducible_per_slot():
    m = LoadModel("type1", 100.0, 200.0, rng_seed=3)
    assert draw_loads(m, 17) == draw_loads(m, 17)
    assert draw_loads(m, 17) != draw_loads(m, 18)
    # a slot's draw does not depend on which other slots or models share the call
    other = LoadModel("type2", 200.0, 400.0, rng_seed=2**40)
    di, dt = draw_load_grid([other, m], [5, 17, 0])
    assert (di[1][1], dt[1][1]) == draw_loads(m, 17)


def test_draw_loads_dt_share_tilts_bounds():
    m = LoadModel("type1", 100.0, 200.0, rng_seed=3, dt_share=0.25)
    (di_row,), (dt_row,) = draw_load_grid([m], range(200))
    for di, dt in zip(di_row, dt_row):
        assert 150.0 <= di <= 300.0
        assert 50.0 <= dt <= 100.0


def test_draw_loads_means_converge():
    m = LoadModel("type1", 100.0, 200.0, rng_seed=11)
    draws = np.array(draw_load_grid([m], range(10_000)))[:, 0, :]
    assert abs(draws[0].mean() - 150.0) / 150.0 < 0.02
    assert abs(draws[1].mean() - 150.0) / 150.0 < 0.02


def test_draw_loads_bit_equal_to_generator_uniform():
    """Every cell of the grid equals two `Generator.uniform` calls, bit for bit.

    200 models by 100 slots (20,000 cases) in one call: seeds of one, two and
    three 32-bit words mixed, slot 0 among random slots, low == high, and
    dt_share near 0 and near 1.
    """
    rnd = random.Random(20261018)
    models = [
        LoadModel("type1", 100.0, 200.0, rng_seed=0),
        LoadModel("type1", 100.0, 200.0, rng_seed=2**32),
        LoadModel("type1", 0.0, 1.0, rng_seed=2**64 + 7),
        LoadModel("type1", 150.0, 150.0, rng_seed=5),  # low == high
        LoadModel("type1", 0.0, 0.0, rng_seed=5, dt_share=0.3),
        LoadModel("type1", 100.0, 200.0, rng_seed=9, dt_share=1e-12),
        LoadModel("type1", 100.0, 200.0, rng_seed=9, dt_share=1.0 - 1e-12),
        LoadModel("type1", 100.0, 200.0, rng_seed=9, dt_share=0.5 + 1e-16),
    ]
    while len(models) < 200:
        seed = rnd.choice((rnd.randrange(10_000), rnd.randrange(2**32, 2**40),
                           rnd.randrange(2**64), rnd.randrange(2**64, 2**100)))
        low = rnd.choice((0.0, rnd.uniform(0.0, 500.0)))
        high = rnd.choice((low, low + rnd.uniform(0.0, 1000.0), low + rnd.random() * 1e-9))
        near_0 = rnd.uniform(1e-12, 1e-6)
        share = rnd.choice((rnd.uniform(near_0, 1.0 - near_0), near_0, 1.0 - near_0))
        models.append(LoadModel("type1", low, high, rng_seed=seed, dt_share=share))
    slots = [0, 1, 2, 3, 11, 12] + [rnd.randrange(10**6) for _ in range(94)]
    di, dt = draw_load_grid(models, slots)
    wants = []
    for k, m in enumerate(models):
        for j, slot in enumerate(slots):
            got = di[k, j], dt[k, j]
            want = reference_draw_loads(m.rng_seed, m.low_kwh, m.high_kwh, m.dt_share, slot)
            assert got == want, (m, slot)
            wants.append(want)
    # two float64 arrays of one (models, slots) shape, every bit as drawn
    assert di.dtype == dt.dtype == np.float64
    assert di.shape == dt.shape == (len(models), len(slots))
    want_di, want_dt = np.array(wants).T.reshape(2, len(models), len(slots))
    assert di.tobytes() == want_di.tobytes() and dt.tobytes() == want_dt.tobytes()


def test_realized_inputs_mix_seed_word_lengths():
    """One config whose MGs' load seeds take one, two and three 32-bit words."""
    from mgtrade.cli import config_from_dict
    from mgtrade.sim import build_traces, realized_inputs

    seeds = [7, 2**32 - 1, 2**32, 2**48 + 3, 2**64 - 1, 2**64, 2**80 + 11]
    doc = {
        "seed": 3, "horizon_slots": 30, "mode": "no_auction",
        "mgs": [
            {"id": k + 1, "mg_type": ("type1", "type2")[k % 2], "load_seed": seed,
             "battery_capacity_kwh": 3000.0, "charge_rate_max_kwh": 1500.0,
             "discharge_rate_max_kwh": 1500.0, "serve_rate_max_kwh": 1500.0}
            for k, seed in enumerate(seeds)
        ],
    }
    cfg = config_from_dict(doc)[0]
    inputs = realized_inputs(cfg, build_traces(cfg))
    for slot, (di_row, dt_row) in enumerate(zip(inputs.di_load_kwh, inputs.dt_load_kwh)):
        for m, got in zip(cfg.mgs, zip(di_row.tolist(), dt_row.tolist())):
            lm = m.load_model
            want = reference_draw_loads(lm.rng_seed, lm.low_kwh, lm.high_kwh, lm.dt_share, slot)
            assert got == want


# ------------------------------------------------------------------ synthetics


def test_synthetic_wind_exact_mean_and_determinism():
    a, b, c = (synthetic_wind(240, 600.0, seed=s).tolist() for s in (5, 5, 6))
    assert a == b
    assert a != c
    assert mean(a) == pytest.approx(600.0, rel=1e-12)
    assert min(a) >= 0.0
    assert len(a) == 240


def test_synthetic_wind_validation():
    with pytest.raises(ConfigError):
        synthetic_wind(0, 10.0, seed=1)
    with pytest.raises(ConfigError):
        synthetic_wind(10, 0.0, seed=1)


def test_synthetic_price_validation():
    with pytest.raises(ConfigError, match="slot_count must be >= 1"):
        synthetic_price(0, PriceBounds(2.0, 16.0), seed=1)


def test_synthetic_price_stays_in_band():
    pb = PriceBounds(2.0, 16.0)
    prices = synthetic_price(480, pb, seed=7).tolist()
    assert len(prices) == 480
    assert all(2.0 <= v <= 16.0 for v in prices)
    assert prices == synthetic_price(480, pb, seed=7).tolist()
    # the daily shape should actually move around inside the band
    assert max(prices) - min(prices) > 0.25 * (16.0 - 2.0)
