"""Exogenous data: renewable traces, grid prices, and randomized loads.

Real traces come in as two-column CSV files (slot, value). When no files are
given, seeded synthetic stand-ins are generated: a lognormal wind proxy
scaled to a target mean and a daily sinusoid price with noise, clipped to the
configured price band. Loads are uniform draws, independently for the
inflexible (DI) and deferrable (DT) components.

All randomness comes from numpy's PCG64 seeded with (seed, stream) or
(seed, stream, slot) tuples, so any single slot can be re-drawn without
replaying a sequence. Traces go through a Generator; a slot's loads read the
PCG64 stream directly, two raw words turned into doubles exactly as
`Generator.uniform` does. numpy is imported only inside the functions that
draw, so reading configs and auditing logs never load it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ParseError
from .model import PriceBounds

_STREAM_WIND = 1
_STREAM_PRICE = 2
_STREAM_LOAD = 3

_TO_UNIT = 2.0**-53  # a 53-bit integer times this is a double in [0, 1)


@dataclass(frozen=True)
class Trace:
    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ParseError(f"trace {self.name!r}: empty")
        for k, v in enumerate(self.values):
            if not math.isfinite(v) or v < 0:
                raise ParseError(f"trace {self.name!r}: bad value {v!r} at slot {k}")

    @property
    def slot_count(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return sum(self.values) / len(self.values)


@dataclass(frozen=True)
class LoadModel:
    """Uniform load generator for one MG.

    dt_share tilts the deferrable fraction of the expected total: DT is drawn
    from 2*share*[low, high] and DI from 2*(1-share)*[low, high], so the
    default 0.5 gives two independent draws straight from [low, high].
    """

    mg_type: str
    low_kwh: float
    high_kwh: float
    rng_seed: int
    dt_share: float = 0.5

    def __post_init__(self) -> None:
        if self.mg_type not in ("type1", "type2"):
            raise ConfigError(f"unknown mg_type {self.mg_type!r}")
        if not 0 <= self.low_kwh <= self.high_kwh < math.inf:
            raise ConfigError("load bounds need 0 <= low <= high < inf")
        if not 0 < self.dt_share < 1:
            raise ConfigError("dt_share must lie strictly between 0 and 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")


def load_trace(path) -> Trace:
    """Parse a `slot,value` CSV trace; bad cells are reported by line number."""
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
    return Trace(name=p.stem, values=tuple(values))


def scale_wind(trace: Trace, target_mean_kwh: float) -> Trace:
    """Scale a trace linearly so its mean hits the target."""
    if target_mean_kwh < 0:
        raise ConfigError("target mean must be >= 0")
    m = trace.mean()
    if m <= 0:
        raise ConfigError(f"trace {trace.name!r}: cannot scale an all-zero trace")
    factor = target_mean_kwh / m
    return Trace(name=trace.name, values=tuple(v * factor for v in trace.values))


def draw_loads(model: LoadModel, slot: int) -> tuple[float, float]:
    """One slot's (di_kwh, dt_kwh), reproducible per (seed, slot).

    Bit-equal to two `uniform(lo, hi)` calls on `default_rng((seed, 3, slot))`:
    each raw 64-bit word keeps its top 53 bits as a double u in [0, 1), and
    the draw is `lo + (hi - lo) * u`, the same arithmetic as numpy's.
    """
    import numpy as np

    seq = (model.rng_seed, _STREAM_LOAD, slot)
    x_di, x_dt = np.random.PCG64(seq).random_raw(2).tolist()
    di_scale = 2.0 * (1.0 - model.dt_share)
    dt_scale = 2.0 * model.dt_share
    di_lo, di_hi = di_scale * model.low_kwh, di_scale * model.high_kwh
    dt_lo, dt_hi = dt_scale * model.low_kwh, dt_scale * model.high_kwh
    return (
        di_lo + (di_hi - di_lo) * ((x_di >> 11) * _TO_UNIT),
        dt_lo + (dt_hi - dt_lo) * ((x_dt >> 11) * _TO_UNIT),
    )


def synthetic_wind(slot_count: int, mean_kwh: float, seed: int) -> Trace:
    """Lognormal wind-energy proxy scaled to an exact mean."""
    if slot_count < 1:
        raise ConfigError("slot_count must be >= 1")
    if mean_kwh <= 0:
        raise ConfigError("mean_kwh must be > 0")
    import numpy as np

    rng = np.random.default_rng((seed, _STREAM_WIND))
    raw = rng.lognormal(mean=0.0, sigma=0.6, size=slot_count)
    raw *= mean_kwh / raw.mean()
    return Trace(name=f"wind-synth-{seed}", values=tuple(float(v) for v in raw))


def synthetic_price(slot_count: int, pb: PriceBounds, seed: int) -> Trace:
    """Daily sinusoid with noise, clipped into [p_min, p_max]."""
    if slot_count < 1:
        raise ConfigError("slot_count must be >= 1")
    import numpy as np

    rng = np.random.default_rng((seed, _STREAM_PRICE))
    spread = pb.p_max - pb.p_min
    mid = 0.5 * (pb.p_min + pb.p_max)
    t = np.arange(slot_count)
    wave = mid + 0.45 * spread * np.sin(2.0 * np.pi * (t % 24) / 24.0)
    noise = rng.normal(0.0, 0.05 * spread, size=slot_count)
    prices = np.clip(wave + noise, pb.p_min, pb.p_max)
    return Trace(name=f"price-synth-{seed}", values=tuple(float(v) for v in prices))
