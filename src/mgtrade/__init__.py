"""Energy trading among interconnected microgrids.

A per-microgrid online controller keeps batteries and demand backlogs stable
while chasing low grid cost, and a per-slot double auction lets surplus MGs
sell to deficit MGs below the grid price. See the module docstrings for the
moving parts: `model` (queues and physics), `controller` (bids and the slot
program), `auction` (clearing), `ingest` (traces and loads), `sim`
(orchestration, oracles, audits), `cli` (front end).
"""

from .auction import (
    ClearingOutcome,
    OrderBook,
    budget_check,
    clear,
    pair_quantity,
)
from .controller import (
    BidPair,
    TradeAllocation,
    make_bids,
    marginal_value,
    post_trade_settlement,
    slot_objective,
    solve_slot_program,
)
from .errors import (
    ConfigError,
    InvariantViolation,
    MarketError,
    ParseError,
    RejectedAction,
    SimError,
)
from .ingest import LoadModel, Trace, draw_loads, load_trace, scale_wind
from .model import (
    ControlAction,
    DerivedBounds,
    MGParams,
    MGState,
    PriceBounds,
    SlotInputs,
    compute_a_const,
    compute_bounds,
    compute_v_max,
    initial_state,
)
from .sim import (
    MGSpec,
    RunSummary,
    ScenarioConfig,
    ScenarioTraces,
    World,
    bound_audit,
    build_traces,
    offline_oracle,
    realized_inputs,
    run,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BidPair",
    "ClearingOutcome",
    "ConfigError",
    "ControlAction",
    "DerivedBounds",
    "InvariantViolation",
    "LoadModel",
    "MGParams",
    "MGSpec",
    "MGState",
    "MarketError",
    "OrderBook",
    "ParseError",
    "PriceBounds",
    "RejectedAction",
    "RunSummary",
    "ScenarioConfig",
    "ScenarioTraces",
    "SimError",
    "SlotInputs",
    "Trace",
    "TradeAllocation",
    "World",
    "bound_audit",
    "budget_check",
    "build_traces",
    "clear",
    "compute_a_const",
    "compute_bounds",
    "compute_v_max",
    "draw_loads",
    "initial_state",
    "load_trace",
    "make_bids",
    "marginal_value",
    "offline_oracle",
    "pair_quantity",
    "post_trade_settlement",
    "realized_inputs",
    "run",
    "scale_wind",
    "slot_objective",
    "solve_slot_program",
    "step",
]
