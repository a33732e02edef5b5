"""Exogenous data: renewable traces, grid prices, and randomized loads.

Real traces come in as two-column CSV files (slot, value), and every trace,
read or synthetic, is a 1-D float array: `load_trace` rejects a bad file
line where it enters, and `mgtrade.model.SlotInputs` checks the horizon's
inputs once more. When no files are given, seeded synthetic stand-ins are
generated: a lognormal wind proxy scaled to a target mean and a daily
sinusoid price with noise, clipped to the configured price band. Loads are
uniform draws, independently for the inflexible (DI) and deferrable (DT)
components.

All randomness comes from numpy's PCG64 seeded with (seed, stream) or
(seed, stream, slot) tuples, so any single slot can be re-drawn without
replaying a sequence. Traces go through a Generator. Loads need one stream
per (MG, slot), so `draw_load_grid` seeds the streams of a whole horizon at
once: numpy's SeedSequence hash and PCG64's seeding and first two outputs
run as uint32/uint64 array arithmetic over the grid, and each raw word
becomes a double exactly as `Generator.uniform` makes it, bit for bit.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError, ParseError
from .model import LoadModel, PriceBounds

_STREAM_WIND = 1
_STREAM_PRICE = 2
_STREAM_LOAD = 3

_TO_UNIT = 2.0**-53  # a 53-bit integer times this is a double in [0, 1)
_BLOCK_CELLS = 2048  # (model, slot) cells seeded per kernel call

# numpy's SeedSequence hash (pool of four 32-bit words) and PCG64's 128-bit
# LCG multiplier, as published in numpy/random/bit_generator.pyx and pcg64.h
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def load_trace(path):
    """A `slot,value` CSV trace's values as a float array; bad cells are named by line."""
    p = Path(path)
    if not p.exists():
        raise ParseError(f"trace file not found: {p}")
    values: list[float] = []
    with open(p, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "value" not in reader.fieldnames:
            raise ParseError(f"{p}: missing column 'value' in header")
        for lineno, row in enumerate(reader, start=2):
            raw = row.get("value")
            try:
                v = float(raw)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ParseError(f"{p}: non-numeric 'value'={raw!r} at line {lineno}")
            if not math.isfinite(v) or v < 0:
                raise ParseError(f"{p}: bad value {v} at line {lineno}")
            values.append(v)
    if not values:
        raise ParseError(f"{p}: no data rows")
    return np.array(values)


def scale_wind(values, target_mean_kwh: float, name: str):
    """A trace's values scaled linearly so their mean, Python's in-order `sum` over
    their count, hits the target; ``name`` names the trace in an error."""
    if target_mean_kwh < 0:
        raise ConfigError("target mean must be >= 0")
    m = sum(values.tolist()) / len(values)
    if m <= 0:
        raise ConfigError(f"{name}: cannot scale an all-zero trace")
    return values * (target_mean_kwh / m)


def draw_load_grid(
    models: Sequence[LoadModel], slots: Iterable[int]
) -> tuple[Any, Any]:
    """(di, dt) of every model at every slot, as (models, slots) float arrays.

    Cell (k, j), model k at slots[j], is bit-equal to two `uniform(lo, hi)`
    calls on `default_rng((seed_k, 3, slots[j]))`: each raw 64-bit word
    keeps its top 53 bits as a double u in [0, 1), and the draw is
    `lo + (hi - lo) * u`, the same arithmetic as numpy's. The words come
    from `_pcg64_first_two`, one block of the grid per call. A block's cells
    share how many 32-bit words their seed and slot take, since that fixes
    the seeding's hash schedule, and it holds about _BLOCK_CELLS cells,
    which bounds the kernel's temporaries.
    """
    slots = list(slots)
    di = np.empty((len(models), len(slots)))
    dt = np.empty_like(di)
    block_rows = max(1, _BLOCK_CELLS // max(1, len(slots)))
    rows = _group_by_word_count([m.rng_seed for m in models], block_rows)
    cols = _group_by_word_count(slots, max(1, len(slots)))
    stream = np.full((1, 1), _STREAM_LOAD, dtype=np.uint32)
    for row in rows:
        seed_words = np.array([_words(models[k].rng_seed) for k in row], dtype=np.uint32)
        share = np.array([models[k].dt_share for k in row])[:, None]
        low = np.array([models[k].low_kwh for k in row])[:, None]
        high = np.array([models[k].high_kwh for k in row])[:, None]
        di_scale, dt_scale = 2.0 * (1.0 - share), 2.0 * share
        di_lo, di_hi = di_scale * low, di_scale * high
        dt_lo, dt_hi = dt_scale * low, dt_scale * high
        for col in cols:
            slot_words = np.array([_words(slots[j]) for j in col], dtype=np.uint32)
            x_di, x_dt = _pcg64_first_two(
                np.broadcast_arrays(*seed_words.T[:, :, None], stream, *slot_words.T[:, None])
            )
            cells = np.ix_(row, col)
            di[cells] = di_lo + (di_hi - di_lo) * ((x_di >> 11) * _TO_UNIT)
            dt[cells] = dt_lo + (dt_hi - dt_lo) * ((x_dt >> 11) * _TO_UNIT)
    return di, dt


def _words(n: int) -> list[int]:
    """A nonnegative int as numpy's SeedSequence reads it: 32-bit words, low first."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _group_by_word_count(values: list[int], size: int) -> list[list[int]]:
    """Indices of `values` grouped by word count, at most `size` to a group."""
    groups: dict[int, list[int]] = {}
    for k, v in enumerate(values):
        groups.setdefault(len(_words(v)), []).append(k)
    return [g[i : i + size] for g in groups.values() for i in range(0, len(g), size)]


def _pcg64_first_two(entropy):
    """First two raw words of `PCG64(SeedSequence(entropy))`, cell by cell.

    `entropy` is a list of equal-shaped uint32 arrays, one per entropy word.
    numpy's SeedSequence hashes the words into a 4-word pool and expands the
    pool into four 64-bit words (O'Neill's seed_seq_fe); the hash constants
    advance once per hash whatever the data, so they are Python scalars here.
    PCG64 then takes (seed, increment) from those words, steps twice while
    seeding and once per XSL-RR output. Its 128-bit state is a (hi, lo) pair
    of uint64 arrays; uint32 and uint64 array arithmetic wraps, which is the
    modular arithmetic both algorithms are defined in.
    """
    consts = _hashmix_constants()

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * _MIX_MULT_L - y * _MIX_MULT_R
        return out ^ (out >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight hashed 32-bit words, paired low first
    halves, const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        halves[2 * j] | (halves[2 * j + 1] << 32) for j in range(4)
    )
    inc_hi, inc_lo = (inc_hi << 1) | (inc_lo >> 63), (inc_lo << 1) | 1

    def step(hi, lo):  # state * multiplier + increment, mod 2**128
        hi = _mul_hi(lo) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
        lo = lo * _PCG_MULT_LO + inc_lo
        return hi + inc_hi + (lo < inc_lo), lo

    def output(hi, lo):  # XSL-RR: xor the halves, rotate right by the top 6 bits
        x, rot = hi ^ lo, hi >> 58
        return (x >> rot) | (x << ((64 - rot) & 63))

    hi, lo = inc_hi, inc_lo  # a zero state stepped once is the increment
    lo = lo + seed_lo
    hi, lo = step(hi + seed_hi + (lo < seed_lo), lo)
    hi, lo = step(hi, lo)
    first = output(hi, lo)
    return first, output(*step(hi, lo))


def _hashmix_constants():
    """(xor, multiplier) of each successive SeedSequence hashmix call."""
    const = _INIT_A
    while True:
        nxt = const * _MULT_A & _MASK32
        yield const, nxt
        const = nxt


def _mul_hi(a):
    """High 64 bits of each `a * _PCG_MULT_LO`, from 32-bit halves (no overflow)."""
    m_hi, m_lo = _PCG_MULT_LO >> 32, _PCG_MULT_LO & _MASK32
    a_hi, a_lo = a >> 32, a & _MASK32
    lo_lo, hi_lo, lo_hi = a_lo * m_lo, a_hi * m_lo, a_lo * m_hi
    mid = (lo_lo >> 32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    return a_hi * m_hi + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)


def synthetic_wind(slot_count: int, mean_kwh: float, seed: int):
    """Lognormal wind-energy proxy scaled to an exact mean."""
    if slot_count < 1:
        raise ConfigError("slot_count must be >= 1")
    if mean_kwh <= 0:
        raise ConfigError("mean_kwh must be > 0")
    rng = np.random.default_rng((seed, _STREAM_WIND))
    raw = rng.lognormal(mean=0.0, sigma=0.6, size=slot_count)
    raw *= mean_kwh / raw.mean()
    return raw


def synthetic_price(slot_count: int, pb: PriceBounds, seed: int):
    """Daily sinusoid with noise, clipped into [p_min, p_max]."""
    if slot_count < 1:
        raise ConfigError("slot_count must be >= 1")
    rng = np.random.default_rng((seed, _STREAM_PRICE))
    spread = pb.p_max - pb.p_min
    mid = 0.5 * (pb.p_min + pb.p_max)
    t = np.arange(slot_count)
    wave = mid + 0.45 * spread * np.sin(2.0 * np.pi * (t % 24) / 24.0)
    noise = rng.normal(0.0, 0.05 * spread, size=slot_count)
    return np.clip(wave + noise, pb.p_min, pb.p_max)
