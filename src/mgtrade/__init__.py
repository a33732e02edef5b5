"""Energy trading among interconnected microgrids.

A per-microgrid online controller keeps batteries and demand backlogs stable
while chasing low grid cost, and a per-slot double auction lets surplus MGs
sell to deficit MGs below the grid price. The package root exports only
`run`; the submodules are the API: `model` (queues and physics),
`controller` (bids and the slot program), `auction` (clearing), `ingest`
(traces and loads), `sim` (orchestration, oracles, audits), `cli` (front
end).
"""

from .sim import run
