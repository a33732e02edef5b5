"""Microgrid domain types and queue dynamics.

Each microgrid (MG) carries four coupled queues:

* battery level ``B``, advanced by ``B' = B - D + C`` (charge C, discharge D),
* delay-tolerant demand backlog ``Q``, advanced by ``Q' = max(Q - J, 0) + T``,
* a delay-aware virtual queue ``Z``, advanced by ``Z' = max(Z - J, 0) + eps``
  whenever backlog existed at the start of the slot,
* a shifted battery queue ``X = B - theta - D_max`` so that drift analysis
  applies to a signed quantity centred near zero. X is derived from ``B``
  by :func:`virtual_battery` whenever it is needed, never stored.

Charging and discharging are mutually exclusive and rate-limited, the battery
is capacity-limited, and the service allocation ``J`` drains both ``Q`` and
``Z``. The derived constants (``a_const``, ``theta``, the queue ceilings and
the worst-case job age) are computed once from static parameters and checked
against every simulated slot by :mod:`mgtrade.sim` and every logged one by
:mod:`mgtrade.logs`. The scenario config (`ScenarioConfig`, its `MGSpec` and
`LoadModel` per MG) is declared here too, so reading a config loads no
simulator.

The slot step advances every MG at once, so the queue functions here take
columns: numpy arrays with one entry per MG, in config order. A `Fleet`
holds the parameters the same way, built once per run, and `SlotInputs` the
horizon's inputs by slot and MG, with one grid price per slot for all MGs.
The backlog's jobs are never stored one by one. Jobs are served oldest
first, so the work served so far and the horizon's arrival prefix sums name
the oldest pending job (:func:`oldest_pending_age`). numpy is imported
inside the functions that need it, so audits never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, NamedTuple

from .errors import ConfigError, RejectedAction

# Slack for floating-point feasibility checks, in kWh. Bounds audits use the
# same value so a vertex sitting exactly on a constraint never trips them.
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class PriceBounds:
    """Exogenous grid price range [p_min, p_max] in currency per kWh."""

    p_min: float
    p_max: float

    def __post_init__(self) -> None:
        if not (0 <= self.p_min <= self.p_max):
            raise ConfigError(
                f"price bounds must satisfy 0 <= p_min <= p_max, got "
                f"[{self.p_min}, {self.p_max}]"
            )


@dataclass(frozen=True)
class MGParams:
    """Static per-microgrid parameters.

    Energies are kWh, rates are kWh per slot, prices currency per kWh.
    ``epsilon`` is the delay-pressure coefficient added to the delay queue
    while backlog exists; ``v_weight`` trades queue backlog against cost
    (larger values chase cost harder and tolerate longer queues).
    """

    id: int
    battery_capacity_kwh: float
    charge_rate_max_kwh: float
    discharge_rate_max_kwh: float
    serve_rate_max_kwh: float
    dt_load_max_kwh: float
    epsilon: float
    epsilon_max: float
    price_floor: float
    v_weight: float

    def __post_init__(self) -> None:
        for f in fields(self)[1:8]:  # the energies, from battery_capacity_kwh to epsilon_max
            value = getattr(self, f.name)
            if value < 0:
                raise ConfigError(f"mg {self.id}: {f.name} must be >= 0, got {value}")
        if self.charge_rate_max_kwh > self.battery_capacity_kwh:
            raise ConfigError(
                f"mg {self.id}: charge rate {self.charge_rate_max_kwh} exceeds "
                f"capacity {self.battery_capacity_kwh}"
            )
        if self.epsilon > self.epsilon_max:
            raise ConfigError(
                f"mg {self.id}: epsilon {self.epsilon} exceeds epsilon_max "
                f"{self.epsilon_max}"
            )
        if self.price_floor < 0:
            raise ConfigError(f"mg {self.id}: price_floor must be >= 0")
        if self.v_weight <= 0:
            raise ConfigError(f"mg {self.id}: v_weight must be > 0")


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class SlotInputs:
    """Exogenous randomness of a horizon: row t of each field is slot t, column k MG k.

    The per-MG fields become 2-D float arrays of one (slots, MGs) shape. The
    grid price is one price per slot that every MG pays, a (slots,) column.
    """

    renewable_kwh: Any
    di_load_kwh: Any
    dt_load_kwh: Any
    grid_price: Any

    def __post_init__(self) -> None:
        import numpy as np

        for f in fields(self):
            values = np.ascontiguousarray(getattr(self, f.name), dtype=float)
            if (values < 0).any():
                raise ConfigError(f"slot input {f.name} must be >= 0")
            object.__setattr__(self, f.name, values)
        shapes = {getattr(self, f.name).shape for f in fields(self)[:3]}
        if len(shapes) != 1 or len(next(iter(shapes))) != 2:
            raise ConfigError(f"slot inputs need one (slots, MGs) shape, got {shapes}")
        if self.grid_price.shape != (len(self),):
            raise ConfigError(f"grid_price needs one entry per slot, got {self.grid_price.shape}")

    def __len__(self) -> int:
        return len(self.renewable_kwh)

    def slot(self, t: int) -> tuple:
        """Slot t's inputs: every MG's renewable, DI and DT load, and the grid price."""
        return self.renewable_kwh[t], self.di_load_kwh[t], self.dt_load_kwh[t], self.grid_price[t]

    @cached_property
    def arrived_kwh(self):
        """Work arrived by the end of each slot: the running sum of dt down each column."""
        return self.dt_load_kwh.cumsum(axis=0)


class ControlAction(NamedTuple):
    """The MGs' decisions for a slot: floats for one MG, or columns for many.

    ``bought_kwh``/``sold_kwh`` come from the auction and are fixed by the
    time the remaining four quantities are chosen.
    """

    charge_kwh: Any
    discharge_kwh: Any
    serve_dt_kwh: Any
    grid_purchase_kwh: Any
    bought_kwh: Any = 0.0
    sold_kwh: Any = 0.0


@dataclass(frozen=True)
class DerivedBounds:
    """Constants derived from static parameters.

    ``a_const`` bounds the per-slot drift (kWh^2); ``q_max``/``z_max`` ceil
    the demand and delay queues; ``theta`` is the battery shift defining the
    virtual queue; ``delta_max_slots`` is the worst-case age of any
    delay-tolerant job; ``v_max`` is the largest admissible v_weight.
    """

    a_const: float
    theta: float
    q_max: float
    z_max: float
    delta_max_slots: float
    v_max: float


class Fleet(NamedTuple):
    """The MGParams and DerivedBounds fields a slot step reads, as columns.

    Entry k of each array belongs to the config's MG k, and each field has
    its scalar record's name, so a formula written for one MG's records
    (such as :func:`virtual_battery`) reads a Fleet unchanged. Built once
    per run by :meth:`of`.
    """

    id: list[int]
    battery_capacity_kwh: Any
    charge_rate_max_kwh: Any
    discharge_rate_max_kwh: Any
    serve_rate_max_kwh: Any
    epsilon: Any
    price_floor: Any
    v_weight: Any
    theta: Any
    q_max: Any
    z_max: Any
    delta_max_slots: Any

    @classmethod
    def of(cls, params: list[MGParams], bounds: list[DerivedBounds]) -> "Fleet":
        import numpy as np

        def column(name: str):
            records = params if hasattr(params[0], name) else bounds
            return np.array([getattr(r, name) for r in records], dtype=float)

        return cls([p.id for p in params], *map(column, cls._fields[1:]))


def _max(a, b):
    """Python's ``max(a, b)`` elementwise: ``a`` unless ``b > a``. ``np.maximum``
    returns its second operand on a tie, so ``max(-0.0, 0.0)`` would lose its sign."""
    import numpy as np

    return np.where(b > a, b, a)


def check_action(battery_kwh, action: ControlAction, fleet: Fleet) -> None:
    """Raise RejectedAction naming the first MG that breaks a feasibility
    constraint, and the first constraint it breaks."""
    import numpy as np

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


def battery_step(battery_kwh, action: ControlAction, fleet: Fleet):
    """Advance the battery queue: B' = B - D + C, after `check_action`."""
    import numpy as np

    check_action(battery_kwh, action, fleet)
    new_b = battery_kwh + (action.charge_kwh - action.discharge_kwh)
    # snap float residue at the physical walls
    new_b = np.where((-FEAS_TOL < new_b) & (new_b < 0), 0.0, new_b)
    cap = fleet.battery_capacity_kwh
    return np.where((cap < new_b) & (new_b < cap + FEAS_TOL), cap, new_b)


def demand_queue_step(demand_kwh, serve_kwh, arrival_kwh):
    """Advance the backlog: Q' = max(Q - J, 0) + T."""
    return _max(demand_kwh - serve_kwh, 0.0) + arrival_kwh


def delay_queue_step(delay_kwh, demand_kwh, serve_kwh, fleet: Fleet):
    """Advance the delay queue: Z' = max(Z - J, 0) + eps * 1{Q > 0}.

    ``demand_kwh`` is the backlog at the start of the slot, before this
    slot's arrival.
    """
    import numpy as np

    grow = np.where(demand_kwh > 0, fleet.epsilon, 0.0)
    return _max(delay_kwh - serve_kwh, 0.0) + grow


def oldest_pending_age(arrived_kwh, served_kwh, slot: int):
    """Age at the start of `slot` of each MG's oldest unserved job, 0 if none.

    ``arrived_kwh[a]`` is the work arrived by the end of slot a, for the
    slots before `slot`; ``served_kwh`` the work served in them. Jobs are
    served oldest first, so the oldest pending job is the first one whose
    cumulative arrival exceeds served + FEAS_TOL: a job finished to within
    FEAS_TOL counts as done, as a FIFO serving each job to within FEAS_TOL
    would have it. The rows are nondecreasing, so the count of those at or
    below the threshold is that job's slot.
    """
    return slot - (arrived_kwh[:slot] <= served_kwh + FEAS_TOL).sum(axis=0)


def compute_a_const(params: MGParams) -> float:
    """Drift constant: (eps_max^2 + J_max^2)/2 + max(C_max, D_max)^2/2 + (J_max^2 + T_max^2)/2."""
    e2 = params.epsilon_max**2
    j2 = params.serve_rate_max_kwh**2
    cd2 = max(params.charge_rate_max_kwh**2, params.discharge_rate_max_kwh**2)
    t2 = params.dt_load_max_kwh**2
    return (e2 + j2) / 2 + cd2 / 2 + (j2 + t2) / 2


def compute_v_max(params: MGParams, pb: PriceBounds) -> float:
    """Largest admissible v_weight: (B_max - T_max - eps_max) / (P_max - P_min)."""
    denom = pb.p_max - pb.p_min
    if denom <= 0:
        raise ConfigError(
            f"degenerate price spread: p_max {pb.p_max} must exceed p_min {pb.p_min}"
        )
    numer = params.battery_capacity_kwh - params.dt_load_max_kwh - params.epsilon_max
    if numer <= 0:
        raise ConfigError(
            f"mg {params.id}: battery capacity {params.battery_capacity_kwh} must "
            f"exceed dt_load_max + epsilon_max = "
            f"{params.dt_load_max_kwh + params.epsilon_max}"
        )
    return numer / denom


def compute_bounds(params: MGParams, pb: PriceBounds) -> DerivedBounds:
    """Evaluate the derived queue ceilings, battery shift and worst-case age."""
    v_max = compute_v_max(params, pb)
    if params.v_weight > v_max * (1 + 1e-12):
        raise ConfigError(
            f"mg {params.id}: v_weight {params.v_weight} exceeds v_max {v_max}"
        )
    if params.epsilon == 0:
        raise ConfigError(
            f"mg {params.id}: epsilon must be > 0 (worst-case job age undefined)"
        )
    vp = params.v_weight * pb.p_max
    q_max = vp + params.dt_load_max_kwh
    z_max = vp + params.epsilon_max
    theta = vp + params.dt_load_max_kwh + params.epsilon_max
    delta_max = (2 * vp + params.dt_load_max_kwh + params.epsilon_max) / params.epsilon
    return DerivedBounds(
        a_const=compute_a_const(params),
        theta=theta,
        q_max=q_max,
        z_max=z_max,
        delta_max_slots=delta_max,
        v_max=v_max,
    )


def initial_battery(
    params: MGParams, bounds: DerivedBounds, battery_kwh: float | None = None
) -> float:
    """Battery level of a fresh MG, whose queues start empty.

    The default targets theta + D_max (zero virtual queue) but is clamped to
    capacity: at v_weight = v_max with p_min > 0 the target exceeds the
    physical capacity, so the zero point is not always reachable.
    """
    target = bounds.theta + params.discharge_rate_max_kwh
    b0 = min(target, params.battery_capacity_kwh) if battery_kwh is None else battery_kwh
    if not (0 <= b0 <= params.battery_capacity_kwh + FEAS_TOL):
        raise ConfigError(
            f"mg {params.id}: initial battery {b0} outside [0, "
            f"{params.battery_capacity_kwh}]"
        )
    return b0


def virtual_battery(battery_kwh, params: MGParams | Fleet, bounds: DerivedBounds | Fleet):
    """The virtual battery queue X = B - theta - D_max of a battery level.

    Reads one MG's records, or a Fleet twice for every MG's column at once.
    """
    return battery_kwh - bounds.theta - params.discharge_rate_max_kwh


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


MODE_AUCTION = "with_auction"
MODE_SOLO = "no_auction"


@dataclass(frozen=True)
class MGSpec:
    """Everything scenario-level about one MG: physics, loads, renewables."""

    params: MGParams
    load_model: LoadModel
    renewable_mean_kwh: float

    def __post_init__(self) -> None:
        if self.renewable_mean_kwh < 0:
            raise ConfigError(f"mg {self.params.id}: renewable mean must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    mgs: tuple[MGSpec, ...]
    price_bounds: PriceBounds
    horizon_slots: int
    rho1: float
    rho2: float
    mode: str
    seed: int
    initial_battery_kwh: float | None = None

    def __post_init__(self) -> None:
        if self.horizon_slots < 1:
            raise ConfigError("horizon_slots must be >= 1")
        if self.mode not in (MODE_AUCTION, MODE_SOLO):
            raise ConfigError(f"mode must be {MODE_AUCTION!r} or {MODE_SOLO!r}")
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise ConfigError("rho1 and rho2 must be > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.mgs:
            raise ConfigError("need at least one MG")
        ids = [m.params.id for m in self.mgs]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate mg ids: {ids}")
        for m in self.mgs:
            # raises if v_weight > v_max for this price band
            compute_bounds(m.params, self.price_bounds)
            lm = m.load_model
            dt_draw_max = 2.0 * lm.dt_share * lm.high_kwh
            if m.params.dt_load_max_kwh + FEAS_TOL < dt_draw_max:
                raise ConfigError(
                    f"mg {m.params.id}: dt_load_max_kwh {m.params.dt_load_max_kwh} "
                    f"below the largest possible draw {dt_draw_max}"
                )

    def bounds(self) -> tuple[DerivedBounds, ...]:
        return tuple(compute_bounds(m.params, self.price_bounds) for m in self.mgs)

    @cached_property
    def ids(self) -> list[int]:
        """The MG ids in config order: one list, which every slot record of a run shares."""
        return [m.params.id for m in self.mgs]


def mg_subseed(seed: int, index: int) -> int:
    """Stable per-MG stream seed; distinct streams come from tags in ingest."""
    return seed * 1009 + index
