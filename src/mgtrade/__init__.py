"""Energy trading among interconnected microgrids.

A per-microgrid online controller keeps batteries and demand backlogs stable
while chasing low grid cost, and a per-slot double auction lets surplus MGs
sell to deficit MGs below the grid price. The package root exports only
`run`; the submodules are the API: `model` (queues, physics and the
scenario config), `controller` (bids and the slot program), `auction`
(clearing), `ingest` (traces and loads), `flow` (the oracle's min-cost
flow), `sim` (orchestration and the oracle), `logs` (the CSV logs and their
audits), `cli` (front end). `mgtrade audit` loads only `cli`, `logs`,
`model` and `errors`.
"""


def __getattr__(name: str):
    if name == "run":  # imported on first use: a submodule loads only what it imports
        from .sim import run

        return run
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
