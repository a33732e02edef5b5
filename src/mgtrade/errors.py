"""Shared exception types for the mgtrade package."""


class ConfigError(ValueError):
    """Static configuration is inconsistent (parameters, bounds, scenario files)."""


class ParseError(ValueError):
    """A trace or log file is malformed; message names the offending line."""


class RejectedAction(ValueError):
    """A control action violates a feasibility constraint; message names it,
    and ``at`` the fleet position of the MG that took it."""

    def __init__(self, message: str, at: int = 0):
        super().__init__(message)
        self.at = at


class MarketError(ValueError):
    """An order book or clearing request is invalid."""


class InvariantViolation(RuntimeError):
    """A bound or accounting identity that must hold was violated."""


class SimError(RuntimeError):
    """A slot could not be completed; message carries slot and MG context."""
