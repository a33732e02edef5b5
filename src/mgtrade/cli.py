"""Command-line front end: config files, runs, sweeps, log audits.

Configs are single JSON documents mirroring the simulator's ScenarioConfig.
Per-MG blocks accept either an explicit `v_weight` or a `v_fraction` of the
MG's admissible maximum, and derive `dt_load_max_kwh` from the load model
when not given. Renewable and price traces default to the seeded synthetic
generators; CSV paths can be supplied instead (renewables are rescaled to
the configured mean, prices are clipped into the configured band). Every
config a command steps is built from its document by `config_from_dict`:
the flags, a run's modes and a sweep's fractions edit the document first.

`mgtrade audit DIR` checks each run, parent of runs and sweep that DIR is or holds.

Exit codes: 0 success, 2 usage (bad flags or flag values, missing files,
an output directory that is a run's or holds the other mode's run or a
sweep a run would hide), 3 data (unparseable config or trace, malformed
logs), 4 invariant violations or an infeasible oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from itertools import starmap
from pathlib import Path

from .errors import ConfigError, InvariantViolation, ParseError, SimError
from .logs import (
    SWEEP_HEADER,
    Log,
    RunLogs,
    RunSummary,
    SweepRow,
    bound_audit,
    read_slots_csv,
    read_summary_csv,
    read_sweep_csv,
    verify_audit_csv,
    verify_audit_txt,
    verify_layout,
    verify_log_rows,
    verify_summary_csv,
    verify_sweep_csv,
    write_summary_csv,
    write_sweep_csv,
)
from .model import (
    MODE_AUCTION,
    MODE_SOLO,
    LoadModel,
    MGParams,
    MGSpec,
    PriceBounds,
    ScenarioConfig,
    compute_a_const,
    compute_v_max,
    mg_subseed,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4

OUT_ENV = "MGTRADE_OUT"

_MODE_FLAG = {"auction": MODE_AUCTION, "solo": MODE_SOLO}

# Every key a config document may hold; anything else is a typo.
_TOP_KEYS = frozenset(
    {"seed", "horizon_slots", "mode", "rho1", "rho2", "price_bounds",
     "initial_battery_kwh", "mgs", "price_trace", "renewable_traces"}
)
_PRICE_BOUND_KEYS = frozenset({"p_min", "p_max"})
_MG_KEYS = frozenset(
    {"id", "mg_type", "battery_capacity_kwh", "charge_rate_max_kwh",
     "discharge_rate_max_kwh", "serve_rate_max_kwh", "dt_load_max_kwh",
     "epsilon", "epsilon_max", "price_floor", "v_weight", "v_fraction",
     "load_low_kwh", "load_high_kwh", "dt_share", "load_seed",
     "renewable_mean_kwh"}
)

_TYPE_DEFAULTS = {
    "type1": {"load_low_kwh": 100.0, "load_high_kwh": 200.0, "renewable_mean_kwh": 200.0},
    "type2": {"load_low_kwh": 200.0, "load_high_kwh": 400.0, "renewable_mean_kwh": 600.0},
}


def _check_keys(where: str, d, allowed: frozenset) -> None:
    """Reject a block that is not an object or names a key nobody reads."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _number(d: dict, key: str, default=None, whole: bool = False):
    """``d[key]`` as a finite float, or as an int if ``whole`` (an int exactly, a
    float only without a fractional part); ``default`` stands in for an absent
    key. Only a JSON number is one: not a boolean, not a string."""
    value = d[key] if default is None else d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if whole and isinstance(value, int):
        return value
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if whole and x != int(x):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(x) if whole else x


def _mg_from_dict(d: dict, seed: int, index: int, pb: PriceBounds) -> MGSpec:
    _check_keys(f"mgs[{index}]", d, _MG_KEYS)
    mg_id = _number(d, "id", index + 1, whole=True)
    mg_type = d.get("mg_type", "type1")
    if mg_type not in _TYPE_DEFAULTS:
        raise ConfigError(f"mg {mg_id}: unknown mg_type {mg_type!r}")
    merged = {**_TYPE_DEFAULTS[mg_type], **d}
    dt_share = _number(merged, "dt_share", 0.5)
    low = _number(merged, "load_low_kwh")
    high = _number(merged, "load_high_kwh")
    dt_load_max = _number(merged, "dt_load_max_kwh", 2.0 * dt_share * high)
    epsilon = _number(merged, "epsilon", 2.0 * dt_share * low)
    epsilon_max = _number(merged, "epsilon_max", epsilon)

    probe = MGParams(
        id=mg_id,
        battery_capacity_kwh=_number(merged, "battery_capacity_kwh"),
        charge_rate_max_kwh=_number(merged, "charge_rate_max_kwh"),
        discharge_rate_max_kwh=_number(merged, "discharge_rate_max_kwh"),
        serve_rate_max_kwh=_number(merged, "serve_rate_max_kwh"),
        dt_load_max_kwh=dt_load_max,
        epsilon=epsilon,
        epsilon_max=epsilon_max,
        price_floor=_number(merged, "price_floor", 1.0),
        v_weight=1.0,
    )
    if "v_weight" in merged:
        v_weight = _number(merged, "v_weight")
    else:
        fraction = _number(merged, "v_fraction", 1.0)
        if not 0 < fraction <= 1:
            raise ConfigError(f"mg {mg_id}: v_fraction must be in (0, 1]")
        v_weight = fraction * compute_v_max(probe, pb)
    params = dataclasses.replace(probe, v_weight=v_weight)
    load_seed = _number(merged, "load_seed", mg_subseed(seed, index), whole=True)
    return MGSpec(
        params=params,
        load_model=LoadModel(
            mg_type=mg_type,
            low_kwh=low,
            high_kwh=high,
            rng_seed=load_seed,
            dt_share=dt_share,
        ),
        renewable_mean_kwh=_number(merged, "renewable_mean_kwh"),
    )


def config_from_dict(doc: dict) -> tuple[ScenarioConfig, dict]:
    """Build a ScenarioConfig from a parsed JSON document.

    Returns the config plus the trace-path block (possibly empty) so callers
    can materialize file-backed traces. Unknown keys and non-finite numbers
    are rejected here, so a typo never falls back to a default silently.
    """
    _check_keys("config", doc, _TOP_KEYS)
    try:
        pb_doc = doc.get("price_bounds", {})
        _check_keys("price_bounds", pb_doc, _PRICE_BOUND_KEYS)
        pb = PriceBounds(
            p_min=_number(pb_doc, "p_min", 2.0), p_max=_number(pb_doc, "p_max", 16.0)
        )
        seed = _number(doc, "seed", 0, whole=True)
        if seed < 0:  # before the MGs' load seeds are derived from it
            raise ConfigError("seed must be >= 0")
        mgs = tuple(
            _mg_from_dict(d, seed, k, pb) for k, d in enumerate(doc.get("mgs", []))
        )
        init_b = doc.get("initial_battery_kwh")
        if init_b is not None:
            init_b = _number(doc, "initial_battery_kwh")
        config = ScenarioConfig(
            mgs=mgs,
            price_bounds=pb,
            horizon_slots=_number(doc, "horizon_slots", 120, whole=True),
            rho1=_number(doc, "rho1", 1000.0),
            rho2=_number(doc, "rho2", 0.0001),
            mode=str(doc.get("mode", MODE_AUCTION)),
            seed=seed,
            initial_battery_kwh=init_b,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad config document: {e}") from e
    price_path, renewable_paths = doc.get("price_trace"), doc.get("renewable_traces")
    if not (price_path is None or isinstance(price_path, str)):
        raise ConfigError(f"price_trace must be null or a path, got {price_path!r}")
    if not (renewable_paths is None or isinstance(renewable_paths, list) and all(
        p is None or isinstance(p, str) for p in renewable_paths
    )):
        raise ConfigError(
            f"renewable_traces must be null or a list of paths and nulls, got {renewable_paths!r}"
        )
    return config, {"price_trace": price_path, "renewable_traces": renewable_paths}


def config_to_dict(config: ScenarioConfig, traces_doc: dict | None = None) -> dict:
    doc = {
        "seed": config.seed,
        "horizon_slots": config.horizon_slots,
        "mode": config.mode,
        "rho1": config.rho1,
        "rho2": config.rho2,
        "price_bounds": {
            "p_min": config.price_bounds.p_min,
            "p_max": config.price_bounds.p_max,
        },
        "initial_battery_kwh": config.initial_battery_kwh,
        "mgs": [
            {
                "id": m.params.id,
                "mg_type": m.load_model.mg_type,
                # the MGParams fields in order ("id" keeps its place above)
                **dataclasses.asdict(m.params),
                "load_low_kwh": m.load_model.low_kwh,
                "load_high_kwh": m.load_model.high_kwh,
                "dt_share": m.load_model.dt_share,
                "load_seed": m.load_model.rng_seed,
                "renewable_mean_kwh": m.renewable_mean_kwh,
            }
            for m in config.mgs
        ],
    }
    if traces_doc:
        doc.update({k: v for k, v in traces_doc.items() if v})
    return doc


def _read_config(path: str | os.PathLike) -> dict:
    """A config file's JSON object, as a command or an audit reads it."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{p}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{p}: config must be a JSON object")
    return doc


def load_config(path: str | os.PathLike) -> tuple[ScenarioConfig, dict]:
    return config_from_dict(_read_config(path))


_REFERENCE = {  # the six-MG reference scenario: three light and three heavy MGs
    "seed": 7,
    "horizon_slots": 120,
    "mode": MODE_AUCTION,
    "rho1": 1000.0,
    "rho2": 0.0001,
    "price_bounds": {"p_min": 2.0, "p_max": 16.0},
    "mgs": [
        {
            "id": k + 1,
            "mg_type": "type1" if k < 3 else "type2",
            "battery_capacity_kwh": 3000.0,
            "charge_rate_max_kwh": 1500.0,
            "discharge_rate_max_kwh": 1500.0,
            "serve_rate_max_kwh": 1500.0,
            "price_floor": 1.0,
            "v_fraction": 1.0,
        }
        for k in range(6)
    ],
}


def default_scenario(seed: int = 7, mode: str = MODE_AUCTION, horizon: int = 120) -> ScenarioConfig:
    """The reference scenario, built from `_REFERENCE` as a command without --config builds it."""
    return config_from_dict({**_REFERENCE, "seed": seed, "mode": mode, "horizon_slots": horizon})[0]


def materialize_traces(config: ScenarioConfig, traces_doc: dict | None = None):
    """`sim.build_traces`, by the name the benchmark's probes call."""
    from . import sim

    return sim.build_traces(config, traces_doc)


def _absolute(traces_doc: dict) -> dict:
    """The trace block with each path absolute, as it resolves from here.

    A run or sweep directory records its trace files this way, so its
    config.json reruns from any directory.
    """
    price, renewables = traces_doc.get("price_trace"), traces_doc.get("renewable_traces")
    return {
        "price_trace": price and os.path.abspath(price),
        "renewable_traces": renewables and [p and os.path.abspath(p) for p in renewables],
    }


def _write_config(out_dir: Path, config: ScenarioConfig, traces_doc: dict) -> None:
    """The config.json of a run or sweep directory, which reruns it from anywhere."""
    (out_dir / "config.json").write_text(
        json.dumps(config_to_dict(config, _absolute(traces_doc)), indent=2) + "\n"
    )


def _emit_run(out_dir: Path, config: ScenarioConfig, traces_doc: dict, summary: RunSummary) -> None:
    """The files of a run directory that its summary gives: summary.csv, audit.txt
    and config.json. Its logs are written by `RunLogs` as the run steps."""
    write_summary_csv(out_dir / "summary.csv", summary)
    (out_dir / "audit.txt").write_text(bound_audit(summary, config))
    _write_config(out_dir, config, traces_doc)


@contextlib.contextmanager
def _staged(out_root: Path):
    """A directory in `out_root` to write a command's files in. When the block
    succeeds, each file moves to its place in `out_root`, replacing any there;
    a block that fails leaves none."""
    out_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".staging-", dir=out_root) as tmp:
        stage = Path(tmp)
        yield stage
        for path in sorted(stage.rglob("*")):  # a directory before its files
            target = out_root / path.relative_to(stage)
            if path.is_dir():
                target.mkdir(exist_ok=True)
            else:
                os.replace(path, target)


def _resolve_out(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ENV, "out"))


def _scenario(args, mode: str):
    """The document of `args` (its --config file, else `_REFERENCE`) with `mode` and
    the flags written in (--seed drops every MG's load_seed), the config and trace
    block it gives, and its inputs, drawn once. Neither the mode nor V changes a
    draw, so one set of inputs serves every mode of a run and every fraction of a
    sweep, with its oracle.
    """
    from . import sim

    doc = _REFERENCE
    if args.config:
        doc = _read_config(args.config)
        config_from_dict(doc)  # refused as written, whatever a flag would replace
    doc = {**doc, "mode": mode}
    if args.seed is not None:
        doc.update(seed=args.seed, mgs=[
            {k: v for k, v in mg.items() if k != "load_seed"} for mg in doc["mgs"]])
    if args.horizon is not None:
        doc["horizon_slots"] = args.horizon
    config, traces_doc = config_from_dict(doc)
    return doc, config, traces_doc, sim.realized_inputs(config, sim.build_traces(config, traces_doc))


def _refuse(path: Path, why: str) -> None:
    """A usage error if ``path`` exists, naming it and why a command refuses to write there."""
    if path.exists():
        raise FileExistsError(f"{path} exists: {why}; choose another --out")


def cmd_run(args) -> int:
    from . import sim

    flags = ["auction", "solo"] if args.mode == "both" else [args.mode]
    out_root = _resolve_out(args)
    _refuse(out_root / "slots.csv", "runs written into a run's directory are hidden from its audit")
    for flag in _MODE_FLAG:
        _refuse(out_root / flag / "sweep.csv", "a run would leave it stale")
    if args.mode != "both":  # a parent of runs holds both modes' runs or neither
        other = "solo" if args.mode == "auction" else "auction"
        for name in (other, "comparison.txt"):
            _refuse(out_root / name, f"a --mode {args.mode} run would leave it stale")
    doc, config, traces_doc, inputs = _scenario(args, _MODE_FLAG[flags[0]])
    configs = [config, *(config_from_dict({**doc, "mode": _MODE_FLAG[f]})[0] for f in flags[1:])]
    with _staged(out_root) as stage, contextlib.ExitStack() as files:
        logs = []
        for flag, cfg in zip(flags, configs):
            (stage / flag).mkdir()
            logs.append(files.enter_context(RunLogs(stage / flag, cfg.ids)))
        t0 = time.perf_counter()
        names = [f"{flag} run" for flag in flags]
        summaries = sim.fold_runs(configs, inputs, names, [log.write for log in logs])
        elapsed = time.perf_counter() - t0  # the runs step together, so they share it
        results: dict[str, RunSummary] = {}
        for flag, cfg, summary in zip(flags, configs, summaries):
            _emit_run(stage / flag, cfg, traces_doc, summary)
            results[cfg.mode] = summary
            print(
                f"{cfg.mode}: mean time-avg cost {summary.mean_time_avg_cost():.6f}, "
                f"grid {summary.total_grid_kwh:.1f} kWh, traded "
                f"{summary.total_traded_kwh:.1f} kWh, violations "
                f"{summary.violation_count}, {elapsed:.2f}s -> {out_root / flag}"
            )

        if len(results) == 2:
            solo, auction = results[MODE_SOLO], results[MODE_AUCTION]
            text = "\n".join(starmap(_rendered, _comparison(
                solo.total_cost, auction.total_cost, solo.total_grid_kwh, auction.total_grid_kwh
            )))
            print(text)
            (stage / "comparison.txt").write_text(text + "\n")

    if any(s.violation_count for s in results.values()):
        print("invariant violations recorded; see audit output", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# the heads of comparison.txt's lines, in order: two total costs, then two reductions
_COMPARED = (
    "no_auction total cost:   ", "with_auction total cost: ", "cost reduction: ",
    "grid purchase reduction: ",
)


def _comparison(solo_cost, auction_cost, solo_grid, auction_grid) -> list[tuple[str, float]]:
    """The lines of comparison.txt, each as its head and value: the two runs'
    total costs, and the auction run's reductions of the solo run's cost and
    grid purchase, in percent, where the solo one is positive."""
    lines = list(zip(_COMPARED, (solo_cost, auction_cost)))
    if solo_cost > 0:
        lines.append((_COMPARED[2], 100.0 * (solo_cost - auction_cost) / solo_cost))
    if solo_grid > 0:
        lines.append((_COMPARED[3], 100.0 * (solo_grid - auction_grid) / solo_grid))
    return lines


def _rendered(head: str, value: float) -> str:
    """A comparison.txt line: a total at 6 decimals, a reduction at 2 and a percent sign."""
    return f"{head}{value:.6f}" if head in _COMPARED[:2] else f"{head}{value:.2f}%"


def _audited_config(out_dir: Path) -> ScenarioConfig:
    """The config.json of a run or sweep directory; without one, the audit fails."""
    config_path = out_dir / "config.json"
    if not config_path.exists():
        raise SimError(f"{out_dir}: missing config.json")
    return load_config(config_path)[0]


# what a sweep or a parent of runs holds, by name: no command writes it in a run's directory
_FOREIGN = {"sweep.csv": "a sweep", "comparison.txt": "a comparison of runs",
            "auction/": "a run", "solo/": "a run"}


def _audit_one(run_dir: Path) -> list[str]:
    """The problems of a run directory: its logs against its config and each other.

    A slots.csv out of the run's layout is the one problem but for what a
    sweep or a parent of runs holds beside it, which no command writes:
    every other check reads its rows in that layout.
    """
    config = _audited_config(run_dir)
    problems = [
        f"{name}: {what} beside a run's logs, which no command writes"
        for name, what in _FOREIGN.items() if (run_dir / name).exists()
    ]
    log = read_slots_csv(run_dir / "slots.csv")
    misplaced = verify_layout(config, log)
    if misplaced:
        return problems + misplaced
    summary = read_summary_csv(run_dir / "summary.csv")
    return problems + (
        verify_log_rows(config, log)
        + verify_audit_csv(run_dir / "auction_audit.csv", config, log)
        + verify_summary_csv(summary, config, log)
        + verify_audit_txt(run_dir / "audit.txt", config, summary)
    )


def cmd_audit(args) -> int:
    root = Path(args.dir)
    if not root.exists():
        raise FileNotFoundError(f"audit target not found: {root}")

    if (root / "slots.csv").exists():
        targets = [root]
    else:
        targets = sorted(
            d for d in root.iterdir() if d.is_dir() and (d / "slots.csv").exists()
        )
    sweep_csv = root / "sweep.csv"
    if not targets and not sweep_csv.exists():
        raise SimError(f"{root}: no run outputs to audit")

    all_ok = not sweep_csv.exists() or _audit_sweep(sweep_csv) == EXIT_OK
    for t in targets:
        problems = _audit_one(t)
        _report(t, problems)
        all_ok = all_ok and not problems
    if targets != [root]:  # a parent of runs: a failure of its own is reported too
        problems = _audit_parent(root, targets)
        if problems:
            _report(root, problems)
            all_ok = False
    return EXIT_OK if all_ok else EXIT_INVARIANT


def _report(target: Path, problems: list[str]) -> None:
    print(f"{target}: {'FAIL' if problems else 'PASS'} ({len(problems)} problems)")
    for p in problems[:20]:
        print(f"  {p}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more")


def _audit_parent(root: Path, targets: list[Path]) -> list[str]:
    """The problems of a parent of runs, as `mgtrade run` writes one.

    Its auction/ run's config.json must hold mode with_auction and its
    solo/ run's no_auction. When it holds both, as `--mode both` writes
    them, they must share their config.json but for the mode, and it must
    hold a comparison.txt that follows from their summary.csv files; when
    it does not, it must hold no comparison.txt.
    """
    runs = {t.name: t for t in targets if t.name in _MODE_FLAG}
    docs = {flag: _read_config(run / "config.json") for flag, run in runs.items()}
    problems = [
        f"{flag}/config.json: mode {doc.get('mode')!r}, where the run writes {_MODE_FLAG[flag]!r}"
        for flag, doc in docs.items() if doc.get("mode") != _MODE_FLAG[flag]
    ]
    comparison = root / "comparison.txt"
    if len(runs) == 2:
        keys = (docs["auction"].keys() | docs["solo"].keys()) - {"mode"}
        differ = sorted(k for k in keys if docs["auction"].get(k) != docs["solo"].get(k))
        if differ:
            problems.append(f"auction/config.json and solo/config.json differ in {differ}, "
                            "not only in mode")
        if not comparison.exists():
            problems.append("comparison.txt: missing, where the run writes one")
        else:
            problems += _verify_comparison(comparison, *(
                read_summary_csv(runs[flag] / "summary.csv") for flag in _MODE_FLAG
            ))
    elif comparison.exists():
        problems.append("comparison.txt: no auction/ and solo/ runs to compare")
    return problems


def _verify_comparison(path: Path, auction: Log, solo: Log) -> list[str]:
    """Check comparison.txt against the summary.csv logs of its two runs.

    A total cost in it is a run's in-memory sum of its n per-MG totals,
    rendered. summary.csv renders each of those, so the total lies within
    tol = (n + 1) * (5e-7 + 2**-50 * S) of the sum of the logged ones, S
    their absolute sum, as `verify_summary_csv` derives it for a total over
    slots. A reduction 100 * (s - a) / s, of a solo total s and an auction
    total a each within its tol of the logged sums, is rendered at 2
    decimals: within 0.005 + 100 * (tol_a + |a| * tol_s / s) / (s - tol_s)
    of the one the logged sums give. The file must hold the lines
    `_comparison` gives for the logged sums, each head and format as
    `_rendered` writes them and each value within that; its first line that
    does not is one problem.
    """
    def total(log: Log, name: str) -> tuple[float, float]:
        values = log[name]
        return sum(values), (len(values) + 1) * (5e-7 + 2.0**-50 * sum(map(abs, values)))

    def reduction_tol(solo_total: tuple, auction_total: tuple) -> float:
        (s, tol_s), (a, tol_a) = solo_total, auction_total
        return 0.005 + 100.0 * (tol_a + abs(a) * tol_s / s) / (s - tol_s) if s > tol_s else math.inf

    cost, grid = ((total(solo, name), total(auction, name)) for name in ("total_cost", "total_grid_kwh"))
    tol = dict(zip(_COMPARED, (cost[0][1], cost[1][1], reduction_tol(*cost), reduction_tol(*grid))))
    want = _comparison(cost[0][0], cost[1][0], grid[0][0], grid[1][0])
    got = path.read_text().splitlines()
    for k in range(max(len(got), len(want))):
        line = got[k] if k < len(got) else None
        head, value = want[k] if k < len(want) else (None, None)
        try:
            shown = float(line.removeprefix(head).removesuffix("%"))
            ok = line == _rendered(head, shown) and abs(shown - value) <= tol[head]
        except (AttributeError, TypeError, ValueError):  # a line or a number missing
            ok = False
        if not ok:
            wanted = "no line" if head is None else repr(_rendered(head, value))
            return [f"comparison.txt line {k + 1}: {line!r} != {wanted} from the summary.csv files"]
    return []


def _audit_sweep(sweep_csv: Path) -> int:
    config = _audited_config(sweep_csv.parent)
    log = read_sweep_csv(sweep_csv)
    fraction, mg, v, online, oracle, gap, av = (log[n] for n in SWEEP_HEADER)
    print(f"{'fraction':>8} {'mg':>4} {'v_weight':>12} {'online':>12} "
          f"{'oracle':>12} {'gap':>12} {'a_over_v':>12}")
    monotone = True
    problems: list[str] = []
    # each MG's rows in turn, by id and then fraction
    order = sorted(range(len(log)), key=lambda k: (mg[k], fraction[k]))
    for before, k in zip([None] + order, order):
        written = dict(zip(SWEEP_HEADER, log.row(k)))  # the cells the table and problems quote
        mid = int(mg[k])
        print(
            f"{fraction[k]:>8.3f} {mid:>4} {v[k]:>12.4f} {online[k]:>12.4f} "
            f"{written['oracle_time_avg_cost']:>12} {written['gap']:>12} {av[k]:>12.4f}"
        )
        if before is not None and mg[before] == mg[k] and av[k] > av[before] + 1e-12:
            monotone = False
        tag = f"fraction {written['fraction']} mg {mid}"
        # each logged value is off by at most 5e-7 after 6-decimal rounding
        if abs(gap[k] - (online[k] - oracle[k])) > 1.5e-6:
            problems.append(f"{tag}: gap {written['gap']} != online - oracle")
        if gap[k] > av[k] + 1e-6:
            problems.append(f"{tag}: gap {written['gap']} above a_over_v {written['a_over_v']}")
    print("a_over_v monotone: " + ("PASS" if monotone else "FAIL"))
    derived = verify_sweep_csv(config, log)
    for check, found in (("gap within a_over_v", problems), ("rows follow config.json", derived)):
        print(f"{check}: {'FAIL' if found else 'PASS'}")
        for p in found:
            print(f"  {p}")
    return EXIT_OK if monotone and not problems + derived else EXIT_INVARIANT


def cmd_sweep(args) -> int:
    from . import sim

    out_root = _resolve_out(args)
    _refuse(out_root / "slots.csv", "a sweep would replace its run's config.json")
    doc, base, traces_doc, inputs = _scenario(args, _MODE_FLAG[args.mode])
    fractions = args.fractions  # each in (0, 1], as the flag's type checks
    out_root.mkdir(parents=True, exist_ok=True)
    configs = [  # each fraction's: every MG at v_fraction f, its v_weight dropped
        config_from_dict({**doc, "mgs": [
            {**{k: v for k, v in mg.items() if k != "v_weight"}, "v_fraction": f} for mg in doc["mgs"]
        ]})[0]
        for f in fractions
    ]
    summaries = sim.fold_runs(configs, inputs, [f"fraction {f}" for f in fractions])
    rows: list[SweepRow] = []
    solved: dict[tuple[int, float], float] = {}  # oracle costs by (MG id, b0)
    for f, cfg, summary in zip(fractions, configs, summaries):
        oracle = sim.offline_oracle(cfg, inputs, solved)
        for spec in cfg.mgs:
            p = spec.params
            online = summary.per_mg[p.id].time_avg_cost
            rows.append(SweepRow(
                f, p.id, p.v_weight, online, oracle[p.id], online - oracle[p.id],
                compute_a_const(p) / p.v_weight,
            ))
        print(f"fraction {f:.3f}: total cost {summary.total_cost:.4f}")

    write_sweep_csv(out_root / "sweep.csv", rows)
    _write_config(out_root, base, traces_doc)
    print(f"wrote {out_root / 'sweep.csv'}")
    broken = [v for summary in summaries for v in summary.violations]
    if broken:
        print(f"invariant violations recorded; the first: {broken[0]}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _flag(parse, ok, wanted: str):
    """An argparse type: a flag's text parsed, or a usage error that names the flag."""
    def value(text: str):
        with contextlib.suppress(ValueError):
            if ok(parsed := parse(text)):
                return parsed
        raise argparse.ArgumentTypeError(f"want {wanted}, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgtrade",
        description="Microgrid energy trading simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _flag(int, lambda n: n >= 0, "an integer >= 0")
    horizon = _flag(int, lambda n: n >= 1, "an integer >= 1")
    fractions = _flag(lambda text: [float(tok) for tok in text.split(",")],
                      lambda fs: all(0 < f <= 1 for f in fs), "comma-separated fractions in (0, 1]")

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("--config", help="scenario JSON (built-in default if omitted)")
    p_run.add_argument("--out", help=f"output dir (default ${OUT_ENV} or ./out)")
    p_run.add_argument(
        "--mode", choices=["auction", "solo", "both"], default="both"
    )
    p_run.add_argument("--seed", type=seed)
    p_run.add_argument("--horizon", type=horizon)
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="re-verify a run directory from its logs")
    p_audit.add_argument("dir", help="run output dir, parent of runs, or sweep dir")
    p_audit.set_defaults(func=cmd_audit)

    p_sweep = sub.add_parser("sweep", help="sweep v_weight fractions of v_max")
    p_sweep.add_argument("--config", help="scenario JSON (built-in default if omitted)")
    p_sweep.add_argument("--out", help=f"output dir (default ${OUT_ENV} or ./out)")
    p_sweep.add_argument("--fractions", type=fractions, default="0.2,0.4,0.6,0.8,1.0")
    p_sweep.add_argument("--mode", choices=sorted(_MODE_FLAG), default="solo")
    p_sweep.add_argument("--seed", type=seed)
    p_sweep.add_argument("--horizon", type=horizon)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (FileNotFoundError, FileExistsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (InvariantViolation, SimError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
