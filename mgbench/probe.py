"""Child-process side of the mgtrade benchmark.

`run.py` starts this file with `PYTHONPATH` pointing at the checkout's `src`,
so everything here sees the program under test exactly as the CLI does. It
has three jobs, each one process:

    probe.py setup SPEC            import, parse the configs, build traces
    probe.py sim SPEC              time mgtrade.run(cfg, traces) on request
    probe.py trace SPEC OUT        run the CLI session in-process, traced

SPEC is a JSON file written by `run.py`; OUT receives one JSON document.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, layer). Each wrapper replaces the attribute at the call
# site, so a function imported by name into two modules is patched in both.
# Attributes a later version of the program no longer has are skipped and
# their layers read zero calls.
PATCH_POINTS = (
    ("mgtrade.cli", "load_config", "cli.config"),
    ("mgtrade.cli", "config_from_dict", "cli.config"),
    ("mgtrade.cli", "default_scenario", "cli.config"),
    ("mgtrade.cli", "_emit_run", "cli.emit_run"),
    ("mgtrade.cli", "build_traces", "ingest.build_traces"),
    ("mgtrade.sim", "build_traces", "ingest.build_traces"),
    ("mgtrade.cli", "realized_inputs", "sim.realized_inputs"),
    ("mgtrade.sim", "realized_inputs", "sim.realized_inputs"),
    ("mgtrade.sim", "draw_loads", "ingest.draw_loads"),
    ("mgtrade.sim", "step", "sim.step"),
    ("mgtrade.sim", "make_bids", "controller.make_bids"),
    ("mgtrade.sim", "clear", "auction.clear"),
    ("mgtrade.sim", "budget_check", "auction.budget_check"),
    ("mgtrade.sim", "audit_rows", "auction.audit_rows"),
    ("mgtrade.sim", "solve_slot_program", "controller.solve_slot_program"),
    ("mgtrade.sim", "fifo_serve", "model.fifo_serve"),
    ("mgtrade.model", "fifo_serve", "model.fifo_serve"),
    ("mgtrade.sim", "battery_step", "model.queue_step"),
    ("mgtrade.sim", "delay_queue_step", "model.queue_step"),
    ("mgtrade.sim", "demand_queue_step", "model.queue_step"),
    ("mgtrade.sim", "_monitor", "sim.monitor"),
    ("mgtrade.sim", "summarize", "sim.summarize"),
    ("mgtrade.cli", "write_slots_csv", "sim.write_slots_csv"),
    ("mgtrade.cli", "write_summary_csv", "sim.write_summary_csv"),
    ("mgtrade.cli", "write_audit_csv", "auction.write_audit_csv"),
    ("mgtrade.cli", "read_slots_csv", "sim.read_slots_csv"),
    ("mgtrade.cli", "verify_log_rows", "sim.verify_log_rows"),
    ("mgtrade.cli", "offline_oracle", "sim.offline_oracle"),
    ("mgtrade.cli", "bound_audit", "sim.bound_audit"),
)


def _observe_clear(samples, args, result):
    book = args[0]
    samples["auction.book_bids"].append(len(book.buy_bids) + len(book.sell_bids))
    samples["auction.clear.filled"].append(1 if result.allocations else 0)


def _observe_fifo(samples, args, result):
    samples["model.pending_jobs"].append(len(args[0]))


def _observe_verify(samples, args, result):
    samples["sim.verify_log_rows.rows"].append(len(args[1]))


def _observe_slots_write(samples, args, result):
    samples["sim.write_slots_csv.bytes"].append(os.path.getsize(args[0]))


OBSERVERS = {
    "auction.clear": _observe_clear,
    "model.fifo_serve": _observe_fifo,
    "sim.verify_log_rows": _observe_verify,
    "sim.write_slots_csv": _observe_slots_write,
}


class Tracer:
    """In-memory spans (name, start_ns, end_ns, parent, run_id), written once.

    A call made while a span of the same layer is open (a wrapped function
    calling another wrapped function of its own layer) is not a new span; its
    time stays in the outer one, so a layer's total is never counted twice.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.samples: dict[str, list] = defaultdict(list)
        self.open: list[int] = []
        self.active: set[str] = set()
        self.run_id = 0

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, open_, active, samples = self.spans, self.open, self.active, self.samples
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                active.discard(name)
                spans[idx] = (name, start, end, parent, self.run_id)
            if observe is not None:
                observe(samples, args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every patch point that exists; return the ones missing."""
        missing = []
        for module_name, attr, layer in PATCH_POINTS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(layer, getattr(module, attr)))
            else:
                missing.append(f"{module_name}.{attr}")
        return missing

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
            "names": names,
            "spans": [[ids[n], a, b, p, r] for n, a, b, p, r in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_stats(self) -> dict[str, dict]:
        """Per layer: calls, total and self seconds, and all durations in ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "durs": []})
            st["calls"] += 1
            st["ns"] += end - start
            st["self_ns"] += end - start - child_ns[k]
            st["durs"].append(end - start)
        return stats


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    stats = tracer.layer_stats()
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "durs": []}

    def st(name):
        return stats.get(name, empty)

    m: dict[str, float] = {}
    for name in (
        "cli.config",
        "cli.emit_run",
        "auction.budget_check",
        "auction.audit_rows",
        "auction.write_audit_csv",
        "ingest.build_traces",
        "sim.realized_inputs",
        "sim.monitor",
        "sim.summarize",
        "sim.write_slots_csv",
        "sim.write_summary_csv",
        "sim.read_slots_csv",
        "sim.verify_log_rows",
        "sim.bound_audit",
    ):
        m[f"{name}.s"] = st(name)["ns"] / 1e9
    for name in (
        "auction.clear",
        "controller.solve_slot_program",
        "controller.make_bids",
        "model.queue_step",
        "model.fifo_serve",
        "ingest.draw_loads",
        "sim.step",
        "sim.offline_oracle",
    ):
        m[f"{name}.calls"] = st(name)["calls"]
        m[f"{name}.s"] = st(name)["ns"] / 1e9
    clear = st("auction.clear")["durs"]
    m["auction.clear.p50_ms"] = percentile(clear, 0.50) / 1e6
    m["auction.clear.p90_ms"] = percentile(clear, 0.90) / 1e6
    m["auction.clear.fill_ratio"] = mean(tracer.samples["auction.clear.filled"])
    m["auction.book_bids.mean"] = mean(tracer.samples["auction.book_bids"])
    m["controller.solve_slot_program.p99_us"] = (
        percentile(st("controller.solve_slot_program")["durs"], 0.99) / 1e3
    )
    m["model.pending_jobs.mean"] = mean(tracer.samples["model.pending_jobs"])
    step = st("sim.step")
    m["sim.step.self_s"] = step["self_ns"] / 1e9
    m["sim.step.p50_us"] = percentile(step["durs"], 0.50) / 1e3
    m["sim.step.p90_us"] = percentile(step["durs"], 0.90) / 1e3
    m["sim.write_slots_csv.bytes"] = sum(tracer.samples["sim.write_slots_csv.bytes"])
    m["sim.verify_log_rows.rows"] = sum(tracer.samples["sim.verify_log_rows.rows"])
    m["trace.spans"] = len(tracer.spans)
    return m


def _scenarios(spec: dict):
    """The workload's (config, traces_doc) pairs, as the CLI would build them."""
    from mgtrade.cli import default_scenario, load_config
    from mgtrade.sim import MODE_AUCTION, MODE_SOLO

    out = []
    if spec.get("reference_seed") is not None:
        for mode in (MODE_AUCTION, MODE_SOLO):
            out.append((default_scenario(seed=spec["reference_seed"], mode=mode), {}))
    for path in spec.get("configs", []):
        out.append(load_config(path))
    return out


def cmd_setup(spec: dict) -> dict:
    import mgtrade
    from mgtrade.cli import materialize_traces

    for cfg, traces_doc in _scenarios(spec):
        materialize_traces(cfg, traces_doc)
    return {"module_file": mgtrade.__file__}


def cmd_sim(spec: dict) -> None:
    """Serve repetitions of mgtrade.run over stdin/stdout, one JSON line each.

    After building the workload's configs and traces it prints a ready line;
    then every input line runs the scenarios once and replies with the wall
    seconds taken, so the caller can interleave repetitions with other work.
    """
    from mgtrade import run
    from mgtrade.cli import materialize_traces

    # Replies go to the real stdout; anything the program prints goes to stderr.
    replies, sys.stdout = sys.stdout, sys.stderr
    pairs = [(cfg, materialize_traces(cfg, doc)) for cfg, doc in _scenarios(spec)]
    mg_slots = sum(len(cfg.mgs) * cfg.horizon_slots for cfg, _ in pairs)
    print(json.dumps({"mg_slots": mg_slots}), file=replies, flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        summaries = [run(cfg, traces)[0] for cfg, traces in pairs]
        rep = {
            "elapsed_s": time.perf_counter() - t0,
            "violations": sum(s.violation_count for s in summaries),
            "costs": [s.total_cost for s in summaries],
        }
        print(json.dumps(rep), file=replies, flush=True)


def cmd_trace(spec: dict) -> dict:
    import mgtrade.cli as cli

    commands = spec["commands"]
    first = commands[0]
    # The second of two untraced runs of the first command, in this same
    # process, is the reference for the tracing overhead; the first one pays
    # the process's one-off warm-up costs.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for _ in range(2):
            t0 = time.perf_counter()
            cli.main(first["argv"])
            untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    missing = tracer.install()
    results = []
    for run_id, command in enumerate(commands):
        tracer.run_id = run_id
        stdout_path = Path(command["stdout"])
        with open(stdout_path, "w") as fh, contextlib.redirect_stdout(fh):
            t0 = time.perf_counter()
            code = cli.main(command["argv"])
            elapsed = time.perf_counter() - t0
        results.append({"name": command["name"], "exit": code, "wall_s": elapsed})
    tracer.write(Path(spec["spans_path"]))
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = results[0]["wall_s"] - untraced_s
    return {"results": results, "metrics": metrics, "missing_patch_points": missing}


def main(argv: list[str]) -> int:
    job, spec_path = argv[0], argv[1]
    spec = json.loads(Path(spec_path).read_text())
    if job == "setup":
        result = cmd_setup(spec)
        print(json.dumps(result))
        return 0
    if job == "sim":
        cmd_sim(spec)
        return 0
    if job == "trace":
        result = cmd_trace(spec)
        Path(argv[2]).write_text(json.dumps(result))
        return 0
    print(f"unknown probe job {job!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
