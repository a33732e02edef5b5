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
against every simulated slot by the audit machinery in :mod:`mgtrade.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        energies = {
            "battery_capacity_kwh": self.battery_capacity_kwh,
            "charge_rate_max_kwh": self.charge_rate_max_kwh,
            "discharge_rate_max_kwh": self.discharge_rate_max_kwh,
            "serve_rate_max_kwh": self.serve_rate_max_kwh,
            "dt_load_max_kwh": self.dt_load_max_kwh,
            "epsilon": self.epsilon,
            "epsilon_max": self.epsilon_max,
        }
        for name, value in energies.items():
            if value < 0:
                raise ConfigError(f"mg {self.id}: {name} must be >= 0, got {value}")
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


@dataclass(frozen=True)
class MGState:
    """Dynamic per-slot state of one microgrid.

    ``pending_jobs`` is a FIFO of ``(arrival_slot, remaining_kwh)`` pairs
    backing the aggregate backlog ``demand_queue_kwh``, ordered by arrival; it
    exists so the worst-case job age claim is audited literally rather than
    trusted from the aggregate queue bound.
    """

    battery_kwh: float
    demand_queue_kwh: float
    delay_queue_kwh: float
    pending_jobs: tuple[tuple[int, float], ...] = ()

    def oldest_pending_age(self, slot: int) -> int:
        """Age in slots of the oldest unserved job, 0 if none pending."""
        if not self.pending_jobs:
            return 0
        return slot - self.pending_jobs[0][0]


@dataclass(frozen=True)
class SlotInputs:
    """Exogenous randomness for one MG in one slot."""

    renewable_kwh: float
    di_load_kwh: float
    dt_load_kwh: float
    grid_price: float

    def __post_init__(self) -> None:
        for name in ("renewable_kwh", "di_load_kwh", "dt_load_kwh", "grid_price"):
            if getattr(self, name) < 0:
                raise ConfigError(f"slot input {name} must be >= 0")


@dataclass(frozen=True)
class ControlAction:
    """One MG's decisions for a slot.

    ``bought_kwh``/``sold_kwh`` come from the auction and are fixed by the
    time the remaining four quantities are chosen.
    """

    charge_kwh: float
    discharge_kwh: float
    serve_dt_kwh: float
    grid_purchase_kwh: float
    bought_kwh: float = 0.0
    sold_kwh: float = 0.0


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


def check_action(
    state: MGState, action: ControlAction, params: MGParams
) -> None:
    """Raise RejectedAction naming the first violated feasibility constraint."""
    c, d = action.charge_kwh, action.discharge_kwh
    if c < -FEAS_TOL:
        raise RejectedAction(f"charge_kwh {c} < 0")
    if d < -FEAS_TOL:
        raise RejectedAction(f"discharge_kwh {d} < 0")
    if action.serve_dt_kwh < -FEAS_TOL:
        raise RejectedAction(f"serve_dt_kwh {action.serve_dt_kwh} < 0")
    if action.grid_purchase_kwh < -FEAS_TOL:
        raise RejectedAction(f"grid_purchase_kwh {action.grid_purchase_kwh} < 0")
    if c > FEAS_TOL and d > FEAS_TOL:
        raise RejectedAction(f"charge {c} and discharge {d} both positive")
    charge_cap = min(
        params.battery_capacity_kwh - state.battery_kwh, params.charge_rate_max_kwh
    )
    if c > charge_cap + FEAS_TOL:
        raise RejectedAction(
            f"charge {c} exceeds min(capacity - B, charge rate) = {charge_cap}"
        )
    discharge_cap = min(state.battery_kwh, params.discharge_rate_max_kwh)
    if d > discharge_cap + FEAS_TOL:
        raise RejectedAction(
            f"discharge {d} exceeds min(B, discharge rate) = {discharge_cap}"
        )


def battery_step(state: MGState, action: ControlAction, params: MGParams) -> MGState:
    """Advance the battery queue: B' = B - D + C."""
    check_action(state, action, params)
    delta = action.charge_kwh - action.discharge_kwh
    new_b = state.battery_kwh + delta
    # snap float residue at the physical walls
    if -FEAS_TOL < new_b < 0:
        new_b = 0.0
    cap = params.battery_capacity_kwh
    if cap < new_b < cap + FEAS_TOL:
        new_b = cap
    return MGState(
        new_b, state.demand_queue_kwh, state.delay_queue_kwh, state.pending_jobs
    )


def fifo_serve(
    pending: tuple[tuple[int, float], ...], serve_kwh: float
) -> tuple[tuple[int, float], ...]:
    """Drain pending jobs oldest-first by serve_kwh; return the remaining FIFO."""
    remaining = serve_kwh
    kept: list[tuple[int, float]] = []
    for arrival, job in pending:
        if remaining <= FEAS_TOL:
            kept.append((arrival, job))
            continue
        if job <= remaining + FEAS_TOL:
            remaining -= job
        else:
            kept.append((arrival, job - remaining))
            remaining = 0.0
    return tuple(kept)


def demand_queue_step(
    state: MGState, action: ControlAction, inputs: SlotInputs, slot: int
) -> MGState:
    """Advance the backlog: Q' = max(Q - J, 0) + T, FIFO jobs served first."""
    if action.serve_dt_kwh < 0:
        raise RejectedAction(f"serve_dt_kwh {action.serve_dt_kwh} < 0")
    new_q = max(state.demand_queue_kwh - action.serve_dt_kwh, 0.0) + inputs.dt_load_kwh
    jobs = fifo_serve(state.pending_jobs, action.serve_dt_kwh)
    if inputs.dt_load_kwh > 0:
        jobs = jobs + ((slot, inputs.dt_load_kwh),)
    return MGState(state.battery_kwh, new_q, state.delay_queue_kwh, jobs)


def delay_queue_step(state: MGState, action: ControlAction, params: MGParams) -> MGState:
    """Advance the delay queue: Z' = max(Z - J, 0) + eps * 1{Q > 0}.

    Must be applied before demand_queue_step: the indicator reads the backlog
    as it stood at the start of the slot, before this slot's arrival.
    """
    grow = params.epsilon if state.demand_queue_kwh > 0 else 0.0
    new_z = max(state.delay_queue_kwh - action.serve_dt_kwh, 0.0) + grow
    return MGState(
        state.battery_kwh, state.demand_queue_kwh, new_z, state.pending_jobs
    )


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


def initial_state(
    params: MGParams, bounds: DerivedBounds, battery_kwh: float | None = None
) -> MGState:
    """Fresh state with empty queues.

    The default battery level targets theta + D_max (zero virtual queue) but
    is clamped to capacity: at v_weight = v_max with p_min > 0 the target
    exceeds the physical capacity, so the zero point is not always reachable.
    """
    target = bounds.theta + params.discharge_rate_max_kwh
    b0 = min(target, params.battery_capacity_kwh) if battery_kwh is None else battery_kwh
    if not (0 <= b0 <= params.battery_capacity_kwh + FEAS_TOL):
        raise ConfigError(
            f"mg {params.id}: initial battery {b0} outside [0, "
            f"{params.battery_capacity_kwh}]"
        )
    return MGState(
        battery_kwh=b0,
        demand_queue_kwh=0.0,
        delay_queue_kwh=0.0,
        pending_jobs=(),
    )


def virtual_battery(
    battery_kwh: float, params: MGParams, bounds: DerivedBounds
) -> float:
    """The virtual battery queue X = B - theta - D_max of a battery level."""
    return battery_kwh - bounds.theta - params.discharge_rate_max_kwh


def within(value: float, low: float, high: float, tol: float = FEAS_TOL) -> bool:
    return low - tol <= value <= high + tol
