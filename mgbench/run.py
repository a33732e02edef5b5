#!/usr/bin/env python3
"""mgtrade benchmark: CLI wall times, simulation throughput, per-layer timings.

Run from the root of a checkout (the program is taken from its `src/`):

    python3 mgbench/run.py --workload auction-wide --seed 0 --seconds 50 --trace 0

`--trace 0` measures the end-to-end metrics with nothing patched: fresh
`mgtrade` processes for set-up and for every CLI command, plus one probe
process that times `mgtrade.run(cfg, traces)` in-process. `--trace 1` runs the
same CLI session in one process with timing wrappers on the program's
functions (see probe.py) and reports the per-layer metrics. Either way the
outputs are checked, and the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; metric names and units are
the ones declared in BENCHMARK.json.

Every workload is a closed loop: one command at a time, the next starting when
the previous one exits. Inputs come from the workload's seed alone.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".mgbench_work"
PROBE = BENCH_DIR / "probe.py"
DIGESTS = BENCH_DIR / "digests.json"

MIN_PASSES = 3
SETUP_PER_PASS = 2
# In-process simulations in a pass repeat until they have taken this long.
SIM_SECONDS_PER_PASS = 1.0
IMPORT_REPS = 3
COMMAND_TIMEOUT_S = 150.0
SWEEP_FRACTIONS = ",".join(f"{k / 10:.1f}" for k in range(1, 11))


@dataclass(frozen=True)
class Workload:
    """One workload: the `run` scenario, its CLI mode, and an optional sweep.

    `mgs == 0` means the CLI's built-in six-MG, 120-slot reference scenario,
    driven by `--seed` (`horizon` then only records its length); otherwise a
    generated config with `mgs` MGs and `horizon` slots.
    """

    mgs: int
    horizon: int
    mode: str  # the --mode flag of `mgtrade run`
    sweep: tuple[int, int] | None = None  # (mgs, horizon) of the swept config


# Why each exists is recorded in BENCHMARK.json; in short: ref-cli is
# dominated by process start and import, runs the oracle LP and clears only
# books of at most six bids; auction-wide is dominated by clearing.
WORKLOADS = {
    "ref-cli": Workload(mgs=0, horizon=120, mode="both", sweep=(3, 48)),
    "auction-wide": Workload(mgs=96, horizon=120, mode="auction"),
}

RUN_SUBDIRS = {"both": ("auction", "solo"), "solo": ("solo",), "auction": ("auction",)}
CONFIG_MODE = {"both": "with_auction", "solo": "no_auction", "auction": "with_auction"}


def log(msg: str) -> None:
    print(msg, flush=True)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def scenario_doc(rng: random.Random, mgs: int, horizon: int, mode: str) -> dict:
    """Half type1, half type2 MGs in seeded order, reference battery and rates."""
    types = ["type1"] * (mgs // 2) + ["type2"] * (mgs - mgs // 2)
    rng.shuffle(types)
    return {
        "seed": rng.randrange(1_000_000),
        "horizon_slots": horizon,
        "mode": mode,
        "rho1": 1000.0,
        "rho2": 0.0001,
        "price_bounds": {"p_min": 2.0, "p_max": 16.0},
        "mgs": [
            {
                "id": k + 1,
                "mg_type": t,
                "battery_capacity_kwh": 3000.0,
                "charge_rate_max_kwh": 1500.0,
                "discharge_rate_max_kwh": 1500.0,
                "serve_rate_max_kwh": 1500.0,
                "price_floor": 1.0,
                "v_fraction": 1.0,
            }
            for k, t in enumerate(types)
        ],
    }


# ---------------------------------------------------------------- checks


def check_digests(run_dir: Path, subdirs, pinned: dict) -> list[str]:
    """Every slots.csv exists and, where a digest is pinned, matches it."""
    problems = []
    for sub in subdirs:
        path = run_dir / sub / "slots.csv"
        if not path.is_file():
            problems.append(f"missing {sub}/slots.csv")
        elif sub in pinned and sha256(path) != pinned[sub]:
            problems.append(f"{sub}/slots.csv differs from the pinned sha256")
    return problems


def check_run(code: int, text: str, run_dir: Path, subdirs, pinned: dict) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    counts = [int(c) for c in re.findall(r"violations (\d+)", text)]
    if len(counts) != len(subdirs) or any(counts):
        problems.append(f"violation counts {counts} for {len(subdirs)} runs")
    return problems + check_digests(run_dir, subdirs, pinned)


def check_audit(code: int, text: str, dirs: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    passed = len(re.findall(r": PASS \(0 problems\)$", text, re.MULTILINE))
    if passed != dirs or "FAIL" in text:
        problems.append(f"{passed} of {dirs} run directories audited PASS")
    return problems


def check_sweep(code: int, text: str, sweep_csv: Path, rows: int) -> list[str]:
    """The oracle ran for every row and online cost stays within A/V of it."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if not sweep_csv.is_file():
        return problems + ["missing sweep.csv"]
    with open(sweep_csv, newline="") as fh:
        table = list(csv.DictReader(fh))
    if len(table) != rows:
        problems.append(f"sweep.csv has {len(table)} rows, want {rows}")
    for r in table:
        if not r["oracle_time_avg_cost"]:
            problems.append(f"fraction {r['fraction']} mg {r['mg_id']}: no oracle cost")
        elif float(r["gap"]) > float(r["a_over_v"]) + 1e-6:
            problems.append(f"fraction {r['fraction']} mg {r['mg_id']}: gap above A/V")
    return problems


def check_sweep_audit(code: int, text: str) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    if "a_over_v monotone: PASS" not in text:
        problems.append("sweep audit did not PASS")
    return problems


# ---------------------------------------------------------------- session


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], list[str]]


@dataclass(frozen=True)
class Session:
    """A workload instance: its generated files, CLI commands and probe specs."""

    workload: str
    seed: int
    work: Path
    commands: tuple[Command, ...]
    setup_spec: dict
    sim_spec: dict
    env: dict


def build_session(name: str, seed: int, work: Path, pinned_all: dict) -> Session:
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    out = work / "out"
    pinned = pinned_all.get(name, {}).get(str(seed), {})
    subdirs = RUN_SUBDIRS[wl.mode]
    run_dir = out / "run"

    if wl.mgs == 0:
        cli_seed = rng.randrange(1_000_000)
        scenario_args = ["--seed", str(cli_seed)]
        run_scenario = {"reference_seed": cli_seed, "configs": []}
    else:
        path = work / "scenario.json"
        doc = scenario_doc(rng, wl.mgs, wl.horizon, CONFIG_MODE[wl.mode])
        path.write_text(json.dumps(doc, indent=1))
        scenario_args = ["--config", str(path)]
        run_scenario = {"reference_seed": None, "configs": [str(path)]}

    commands = [
        Command(
            "run",
            ("run", *scenario_args, "--mode", wl.mode, "--out", str(run_dir)),
            lambda c, t: check_run(c, t, run_dir, subdirs, pinned),
        ),
        Command(
            "audit",
            ("audit", str(run_dir)),
            lambda c, t: check_audit(c, t, len(subdirs)),
        ),
    ]
    setup_configs = list(run_scenario["configs"])
    if wl.sweep:
        sweep_mgs, sweep_horizon = wl.sweep
        path = work / "sweep.json"
        doc = scenario_doc(rng, sweep_mgs, sweep_horizon, "no_auction")
        path.write_text(json.dumps(doc, indent=1))
        setup_configs.append(str(path))
        sweep_dir = out / "sweep"
        rows = sweep_mgs * len(SWEEP_FRACTIONS.split(","))
        commands += [
            Command(
                "sweep",
                ("sweep", "--config", str(path), "--fractions", SWEEP_FRACTIONS,
                 "--out", str(sweep_dir)),
                lambda c, t: check_sweep(c, t, sweep_dir / "sweep.csv", rows),
            ),
            Command("sweep-audit", ("audit", str(sweep_dir)), check_sweep_audit),
        ]

    env = dict(os.environ)
    env.pop("MGTRADE_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return Session(
        workload=name,
        seed=seed,
        work=work,
        commands=tuple(commands),
        setup_spec={"reference_seed": run_scenario["reference_seed"], "configs": setup_configs},
        sim_spec=run_scenario,
        env=env,
    )


class Ops:
    """Attempted and failed operations: commands, probes and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAILED {what}: {'; '.join(problems[:5])}")
        return not problems


def run_child(
    session: Session, argv: list[str], stdout_path: Path
) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.STDOUT, env=session.env, cwd=ROOT
        )
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024.0


def cli_argv(command: Command) -> list[str]:
    return [sys.executable, "-m", "mgtrade.cli", *command.argv]


def probe_argv(job: str, *args) -> list[str]:
    return [sys.executable, str(PROBE), job, *map(str, args)]


def write_spec(session: Session, name: str, spec: dict) -> Path:
    path = session.work / f"{name}.spec.json"
    path.write_text(json.dumps(spec))
    return path


def warm_up(session: Session, ops: Ops) -> None:
    """Import once untimed, so a fresh checkout's bytecode compile is not measured."""
    stdout = session.work / "warmup.txt"
    code, _, _ = run_child(session, [sys.executable, "-c", "import mgtrade.cli"], stdout)
    problems = [] if code == 0 else [f"exit code {code}: {stdout.read_text()[-500:]}"]
    if not ops.record("import mgtrade.cli", problems):
        raise SystemExit("the program does not import; nothing to measure")


class SimProbe:
    """A probe process that runs mgtrade.run(cfg, traces) once per request."""

    def __init__(self, session: Session) -> None:
        spec = write_spec(session, "sim", session.sim_spec)
        self.proc = subprocess.Popen(
            probe_argv("sim", spec), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=session.env, cwd=ROOT, text=True,
        )
        self.costs = None
        self.mg_slots = self._reply()["mg_slots"]

    def _reply(self) -> dict:
        killer = threading.Timer(COMMAND_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            killer.cancel()
        if not line:
            self.proc.kill()
            raise SystemExit(f"simulation probe exited with {self.proc.wait()}")
        return json.loads(line)

    def rep(self, ops: Ops) -> float:
        """One repetition, its output checked: its wall seconds."""
        self.proc.stdin.write("rep\n")
        self.proc.stdin.flush()
        reply = self._reply()
        problems = []
        if reply["violations"]:
            problems.append(f"{reply['violations']} violations")
        if self.costs is not None and reply["costs"] != self.costs:
            problems.append("total cost differs between identical runs")
        self.costs = reply["costs"]
        ops.record("simulation", problems)
        return reply["elapsed_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_once(session: Session, ops: Ops, spec: Path) -> float:
    """Wall seconds of a fresh process that imports, parses and builds traces."""
    stdout = session.work / "setup.txt"
    code, wall, _ = run_child(session, probe_argv("setup", spec), stdout)
    problems = [] if code == 0 else [f"exit code {code}"]
    if code == 0:
        module = Path(json.loads(stdout.read_text())["module_file"]).resolve()
        if ROOT / "src" not in module.parents:
            problems.append(f"imported mgtrade from {module}, not this checkout")
    ops.record("setup", problems)
    return wall


def run_command(session: Session, ops: Ops, command: Command) -> tuple[float, float]:
    """Run one CLI command and check its output: (wall seconds, peak RSS MB)."""
    stdout = session.work / f"{command.name}.txt"
    code, wall, rss = run_child(session, cli_argv(command), stdout)
    ops.record(command.name, command.check(code, stdout.read_text()))
    return wall, rss


def median_of(name: str, values: list[float]) -> float:
    if not values:
        raise SystemExit(f"no measurement for {name}")
    return statistics.median(values)


def measure(session: Session, seconds: float) -> tuple[dict, Ops]:
    """End-to-end metrics, nothing traced.

    Each pass runs, one after another: set-up twice, the session's CLI
    commands, and in-process simulations for about a second (at least one).
    Passes repeat until --seconds have gone by (at least MIN_PASSES), so every
    metric is sampled across the whole run rather than in one stretch of it.
    """
    ops = Ops()
    warm_up(session, ops)
    setup_spec = write_spec(session, "setup", session.setup_spec)
    sim = SimProbe(session)
    samples: dict[str, list[float]] = defaultdict(list)
    try:
        start = time.perf_counter()
        passes, last_pass_s = 0, 0.0
        # A pass starts only if it should end less than half a pass after
        # --seconds, which keeps runs close to their length.
        while passes < MIN_PASSES or (
            time.perf_counter() - start + 0.5 * last_pass_s < seconds
        ):
            t0 = time.perf_counter()
            shutil.rmtree(session.work / "out", ignore_errors=True)
            for _ in range(SETUP_PER_PASS):
                samples["setup"].append(setup_once(session, ops, setup_spec))
            for command in session.commands:
                wall, rss = run_command(session, ops, command)
                samples[command.name].append(wall)
                if command.name == "run":
                    samples["rss"].append(rss)
            samples["session"].append(
                sum(samples[c.name][-1] for c in session.commands)
            )
            sim_s = 0.0
            while sim_s < SIM_SECONDS_PER_PASS:
                samples["sim"].append(sim.rep(ops))
                sim_s += samples["sim"][-1]
            passes += 1
            last_pass_s = time.perf_counter() - t0
            log(
                f"pass {passes}: "
                + " ".join(
                    f"{n} {samples[n][-1]:.3f}s"
                    for n in ["setup", *(c.name for c in session.commands), "sim"]
                )
            )
    finally:
        sim.close()

    metrics = {
        "setup_s": median_of("setup_s", samples["setup"]),
        "run_s": median_of("run_s", samples["run"]),
        "audit_s": median_of("audit_s", samples["audit"]),
        "session_s": median_of("session_s", samples["session"]),
        "sim_mgslot_per_s": sim.mg_slots / median_of("sim_mgslot_per_s", samples["sim"]),
        "peak_rss_mb": median_of("peak_rss_mb", samples["rss"]),
    }
    return metrics, ops


def import_breakdown(session: Session, ops: Ops) -> dict[str, float]:
    """Median cumulative import time of mgtrade.cli and of scipy.optimize."""
    totals, scipy_opt = [], []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mgtrade.cli"],
            env=session.env, cwd=ROOT, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        if "mgtrade.cli" not in cumulative:
            problems.append("no mgtrade.cli line in -X importtime output")
        if ops.record("import -X importtime", problems):
            totals.append(cumulative["mgtrade.cli"])
            scipy_opt.append(cumulative.get("scipy.optimize", 0.0))
    return {
        "cli.import.s": median_of("cli.import.s", totals),
        "cli.import.scipy_optimize_s": median_of("cli.import.scipy_optimize_s", scipy_opt),
    }


def measure_traced(session: Session) -> tuple[dict, Ops]:
    """Per-layer metrics from one traced, in-process pass of the session."""
    ops = Ops()
    warm_up(session, ops)
    metrics = import_breakdown(session, ops)

    traces_dir = WORK_ROOT / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    spans_path = traces_dir / f"{session.workload}-seed{session.seed}.spans.json.gz"
    commands = [
        {"name": c.name, "argv": list(c.argv), "stdout": str(session.work / f"{c.name}.txt")}
        for c in session.commands
    ]
    spec = write_spec(
        session, "trace", {"commands": commands, "spans_path": str(spans_path)}
    )
    result_path = session.work / "trace.json"
    stdout = session.work / "trace.txt"
    code, _, _ = run_child(session, probe_argv("trace", spec, result_path), stdout)
    if code != 0:
        raise SystemExit(f"traced session exited {code}: {stdout.read_text()[-500:]}")
    result = json.loads(result_path.read_text())
    for command, res in zip(session.commands, result["results"]):
        text = (session.work / f"{command.name}.txt").read_text()
        ops.record(f"traced {command.name}", command.check(res["exit"], text))
    if result["missing_patch_points"]:
        log("not traced (absent): " + ", ".join(result["missing_patch_points"]))
    log(
        "traced: "
        + " ".join(f"{r['name']} {r['wall_s']:.3f}s" for r in result["results"])
        + f"; spans in {spans_path.relative_to(ROOT)}"
    )
    metrics.update(result["metrics"])
    return metrics, ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "mgtrade" / "cli.py").is_file():
        print(f"error: no mgtrade sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        session = build_session(args.workload, args.seed, work, pinned)
        if args.trace:
            metrics, ops = measure_traced(session)
        else:
            metrics, ops = measure(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
