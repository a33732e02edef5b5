"""Trace parsing, scaling, and the seeded synthetic generators."""

import random
from statistics import mean

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgtrade.errors import ConfigError, ParseError
from mgtrade.ingest import (
    Trace,
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
    tr = load_trace(p)
    assert len(tr.values) == 120
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
    assert mean(scaled.values) == pytest.approx(200.0)
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
    a = synthetic_wind(240, 600.0, seed=5)
    b = synthetic_wind(240, 600.0, seed=5)
    c = synthetic_wind(240, 600.0, seed=6)
    assert a.values == b.values
    assert a.values != c.values
    assert mean(a.values) == pytest.approx(600.0, rel=1e-12)
    assert min(a.values) >= 0.0
    assert len(a.values) == 240


def test_synthetic_wind_validation():
    with pytest.raises(ConfigError):
        synthetic_wind(0, 10.0, seed=1)
    with pytest.raises(ConfigError):
        synthetic_wind(10, 0.0, seed=1)


def test_synthetic_price_stays_in_band():
    pb = PriceBounds(2.0, 16.0)
    tr = synthetic_price(480, pb, seed=7)
    assert len(tr.values) == 480
    assert all(2.0 <= v <= 16.0 for v in tr.values)
    assert tr.values == synthetic_price(480, pb, seed=7).values
    # the daily shape should actually move around inside the band
    assert max(tr.values) - min(tr.values) > 0.25 * (16.0 - 2.0)
