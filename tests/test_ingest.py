"""Trace parsing, scaling, and the seeded synthetic generators."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgtrade.errors import ConfigError, ParseError
from mgtrade.ingest import (
    LoadModel,
    Trace,
    draw_loads,
    load_trace,
    scale_wind,
    synthetic_price,
    synthetic_wind,
)
from mgtrade.model import PriceBounds
from oracles import reference_draw_loads


def write_csv(path, rows, header="slot,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


# -------------------------------------------------------------------- parsing


def test_load_trace_reads_values(tmp_path):
    p = write_csv(tmp_path / "wind.csv", [f"{k},{100 + k}" for k in range(120)])
    tr = load_trace(p)
    assert tr.slot_count == 120
    assert tr.values[0] == 100.0
    assert tr.name == "wind"


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


def test_trace_rejects_bad_values():
    with pytest.raises(ParseError):
        Trace("t", ())
    with pytest.raises(ParseError):
        Trace("t", (1.0, -2.0))
    with pytest.raises(ParseError):
        Trace("t", (float("nan"),))


# -------------------------------------------------------------------- scaling


def test_scale_wind_hits_target_mean():
    tr = Trace("t", (25.0, 75.0))  # mean 50
    scaled = scale_wind(tr, 200.0)
    assert scaled.mean() == pytest.approx(200.0)
    assert scaled.values == (100.0, 300.0)  # factor 4 applied pointwise


def test_scale_wind_identity():
    tr = Trace("t", (10.0, 30.0))
    assert scale_wind(tr, 20.0).values == pytest.approx(tr.values)


def test_scale_wind_rejects_zero_trace():
    with pytest.raises(ConfigError):
        scale_wind(Trace("t", (0.0, 0.0)), 10.0)


def test_scale_wind_rejects_negative_target():
    with pytest.raises(ConfigError):
        scale_wind(Trace("t", (1.0,)), -1.0)


@given(
    values=st.lists(st.floats(0.1, 500.0), min_size=2, max_size=40),
    target=st.floats(0.5, 1000.0),
)
def test_scale_wind_preserves_shape(values, target):
    tr = Trace("t", tuple(values))
    scaled = scale_wind(tr, target)
    ratios = [s / v for s, v in zip(scaled.values, tr.values)]
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


def test_draw_loads_stay_in_bounds():
    m = LoadModel("type1", 100.0, 200.0, rng_seed=3)
    for slot in range(500):
        di, dt = draw_loads(m, slot)
        assert 100.0 <= di <= 200.0
        assert 100.0 <= dt <= 200.0


def test_draw_loads_type2_bounds():
    m = LoadModel("type2", 200.0, 400.0, rng_seed=9)
    draws = [draw_loads(m, s) for s in range(200)]
    assert all(200.0 <= di <= 400.0 and 200.0 <= dt <= 400.0 for di, dt in draws)


def test_draw_loads_reproducible_per_slot():
    m = LoadModel("type1", 100.0, 200.0, rng_seed=3)
    assert draw_loads(m, 17) == draw_loads(m, 17)
    assert draw_loads(m, 17) != draw_loads(m, 18)


def test_draw_loads_dt_share_tilts_bounds():
    m = LoadModel("type1", 100.0, 200.0, rng_seed=3, dt_share=0.25)
    for slot in range(200):
        di, dt = draw_loads(m, slot)
        assert 150.0 <= di <= 300.0
        assert 50.0 <= dt <= 100.0


def test_draw_loads_means_converge():
    m = LoadModel("type1", 100.0, 200.0, rng_seed=11)
    draws = np.array([draw_loads(m, s) for s in range(10_000)])
    assert abs(draws[:, 0].mean() - 150.0) / 150.0 < 0.02
    assert abs(draws[:, 1].mean() - 150.0) / 150.0 < 0.02


def test_draw_loads_bit_equal_to_generator_uniform():
    """The raw PCG64 draw equals two `Generator.uniform` calls, bit for bit."""
    rnd = random.Random(20261018)
    cases = [
        (0, 100.0, 200.0, 0.5, 0),
        (2**32, 100.0, 200.0, 0.5, 0),
        (2**64 + 7, 0.0, 1.0, 0.5, 3),
        (5, 150.0, 150.0, 0.5, 11),  # low == high
        (5, 0.0, 0.0, 0.3, 12),
        (9, 100.0, 200.0, 1e-12, 1),  # dt_share near 0 and near 1
        (9, 100.0, 200.0, 1.0 - 1e-12, 1),
        (9, 100.0, 200.0, 0.5 + 1e-16, 2),
    ]
    for _ in range(20_000):
        seed = rnd.choice((rnd.randrange(10_000), rnd.randrange(2**32, 2**40),
                           rnd.randrange(2**64)))
        low = rnd.choice((0.0, rnd.uniform(0.0, 500.0)))
        high = rnd.choice((low, low + rnd.uniform(0.0, 1000.0), low + rnd.random() * 1e-9))
        near_0 = rnd.uniform(1e-12, 1e-6)
        share = rnd.choice((rnd.uniform(near_0, 1.0 - near_0), near_0, 1.0 - near_0))
        cases.append((seed, low, high, share, rnd.choice((0, rnd.randrange(10**6)))))
    for seed, low, high, share, slot in cases:
        m = LoadModel("type1", low, high, rng_seed=seed, dt_share=share)
        got = draw_loads(m, slot)
        want = reference_draw_loads(seed, low, high, share, slot)
        assert got == want, (seed, low, high, share, slot)
        assert all(type(v) is float for v in got)


# ------------------------------------------------------------------ synthetics


def test_synthetic_wind_exact_mean_and_determinism():
    a = synthetic_wind(240, 600.0, seed=5)
    b = synthetic_wind(240, 600.0, seed=5)
    c = synthetic_wind(240, 600.0, seed=6)
    assert a.values == b.values
    assert a.values != c.values
    assert a.mean() == pytest.approx(600.0, rel=1e-12)
    assert min(a.values) >= 0.0
    assert a.slot_count == 240


def test_synthetic_wind_validation():
    with pytest.raises(ConfigError):
        synthetic_wind(0, 10.0, seed=1)
    with pytest.raises(ConfigError):
        synthetic_wind(10, 0.0, seed=1)


def test_synthetic_price_stays_in_band():
    pb = PriceBounds(2.0, 16.0)
    tr = synthetic_price(480, pb, seed=7)
    assert tr.slot_count == 480
    assert all(2.0 <= v <= 16.0 for v in tr.values)
    assert tr.values == synthetic_price(480, pb, seed=7).values
    # the daily shape should actually move around inside the band
    assert max(tr.values) - min(tr.values) > 0.25 * (16.0 - 2.0)
