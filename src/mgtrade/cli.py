"""Command-line front end: config files, runs, sweeps, log audits.

Configs are single JSON documents mirroring the simulator's ScenarioConfig.
Per-MG blocks accept either an explicit `v_weight` or a `v_fraction` of the
MG's admissible maximum, and derive `dt_load_max_kwh` from the load model
when not given. Renewable and price traces default to the seeded synthetic
generators; CSV paths can be supplied instead (renewables are rescaled to
the configured mean, prices are clipped into the configured band).

Exit codes: 0 success, 2 usage (bad flags, missing files), 3 data
(unparseable config or trace, malformed logs), 4 invariant violations or an
infeasible oracle.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

from .errors import ConfigError, InvariantViolation, ParseError, SimError
from .logs import (
    SWEEP_HEADER,
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
    write_audit_csv,
    write_slots_csv,
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


def _number(d: dict, key: str, default: float | None = None) -> float:
    """``d[key]`` as a finite float; ``default`` stands in for an absent key."""
    value = d[key] if default is None else d.get(key, default)
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return x


def _integer(d: dict, key: str, default: int | None = None) -> int:
    """``d[key]`` as an int; a number with a fractional part is rejected."""
    value = d[key] if default is None else d.get(key, default)
    x = value if isinstance(value, int) else _number(d, key, default)  # ints exact
    if x != int(x):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(x)


def _mg_from_dict(d: dict, seed: int, index: int, pb: PriceBounds) -> MGSpec:
    _check_keys(f"mgs[{index}]", d, _MG_KEYS)
    mg_id = _integer(d, "id", index + 1)
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
    load_seed = _integer(merged, "load_seed", mg_subseed(seed, index))
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
        seed = _integer(doc, "seed", 0)
        mgs = tuple(
            _mg_from_dict(d, seed, k, pb) for k, d in enumerate(doc.get("mgs", []))
        )
        init_b = doc.get("initial_battery_kwh")
        if init_b is not None:
            init_b = _number(doc, "initial_battery_kwh")
        config = ScenarioConfig(
            mgs=mgs,
            price_bounds=pb,
            horizon_slots=_integer(doc, "horizon_slots", 120),
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


def load_config(path: str | os.PathLike) -> tuple[ScenarioConfig, dict]:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{p}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{p}: config must be a JSON object")
    return config_from_dict(doc)


def default_scenario(
    seed: int = 7, mode: str = MODE_AUCTION, horizon: int = 120
) -> ScenarioConfig:
    """Six-MG reference scenario: three light and three heavy microgrids."""
    doc = {
        "seed": seed,
        "horizon_slots": horizon,
        "mode": mode,
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
    config, _ = config_from_dict(doc)
    return config


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


def _emit_run(
    out_dir: Path,
    config: ScenarioConfig,
    traces_doc: dict,
    summary: RunSummary,
    records,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_slots_csv(out_dir / "slots.csv", records)
    write_summary_csv(out_dir / "summary.csv", summary)
    write_audit_csv(out_dir / "auction_audit.csv", records)
    report = bound_audit(summary, config, oracle=None)
    (out_dir / "audit.txt").write_text(report.render() + "\n")
    _write_config(out_dir, config, traces_doc)


def _resolve_out(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ENV, "out"))


def _apply_overrides(config: ScenarioConfig, args, mode: str) -> ScenarioConfig:
    updates: dict = {"mode": mode}
    if args.seed is not None:
        updates["seed"] = args.seed
        mgs = []
        for k, m in enumerate(config.mgs):
            lm = dataclasses.replace(m.load_model, rng_seed=mg_subseed(args.seed, k))
            mgs.append(dataclasses.replace(m, load_model=lm))
        updates["mgs"] = tuple(mgs)
    if args.horizon is not None:
        updates["horizon_slots"] = args.horizon
    return dataclasses.replace(config, **updates)


def _scenario(args, mode: str):
    """The config of `args` (its file, else the default) in `mode` with the flags
    applied, its trace block, and its inputs, drawn once.

    Neither the mode nor V changes a draw, so one set of inputs serves every
    mode of a run and every fraction of a sweep, with its oracle.
    """
    from . import sim

    if args.config:
        config, traces_doc = load_config(args.config)
    else:
        config, traces_doc = default_scenario(), {}
    base = _apply_overrides(config, args, mode)
    return base, traces_doc, sim.realized_inputs(base, sim.build_traces(base, traces_doc))


def cmd_run(args) -> int:
    from . import sim

    flags = ["auction", "solo"] if args.mode == "both" else [args.mode]
    base, traces_doc, inputs = _scenario(args, _MODE_FLAG[flags[0]])
    configs = [dataclasses.replace(base, mode=_MODE_FLAG[flag]) for flag in flags]
    out_root = _resolve_out(args)
    t0 = time.perf_counter()
    runs = sim.simulate_runs(configs, inputs, [f"{flag} run" for flag in flags])
    elapsed = time.perf_counter() - t0  # the runs step together, so they share it
    results: dict[str, RunSummary] = {}
    for flag, cfg, (summary, records) in zip(flags, configs, runs):
        sub = out_root / flag
        _emit_run(sub, cfg, traces_doc, summary, records)
        results[cfg.mode] = summary
        print(
            f"{cfg.mode}: mean time-avg cost {summary.mean_time_avg_cost():.6f}, "
            f"grid {summary.total_grid_kwh:.1f} kWh, traded "
            f"{summary.total_traded_kwh:.1f} kWh, violations "
            f"{summary.violation_count}, {elapsed:.2f}s -> {sub}"
        )

    if len(results) == 2:
        solo = results[MODE_SOLO].total_cost
        auct = results[MODE_AUCTION].total_cost
        lines = [
            f"no_auction total cost:   {solo:.6f}",
            f"with_auction total cost: {auct:.6f}",
        ]
        if solo > 0:
            reduction = 100.0 * (solo - auct) / solo
            lines.append(f"cost reduction: {reduction:.2f}%")
        grid_solo = results[MODE_SOLO].total_grid_kwh
        grid_auct = results[MODE_AUCTION].total_grid_kwh
        if grid_solo > 0:
            lines.append(
                f"grid purchase reduction: "
                f"{100.0 * (grid_solo - grid_auct) / grid_solo:.2f}%"
            )
        text = "\n".join(lines)
        print(text)
        out_root.mkdir(parents=True, exist_ok=True)
        (out_root / "comparison.txt").write_text(text + "\n")

    if any(s.violation_count for s in results.values()):
        print("invariant violations recorded; see audit output", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _audited_config(out_dir: Path) -> ScenarioConfig:
    """The config.json of a run or sweep directory; without one, the audit fails."""
    config_path = out_dir / "config.json"
    if not config_path.exists():
        raise SimError(f"{out_dir}: missing config.json")
    return config_from_dict(json.loads(config_path.read_text()))[0]


def _audit_one(run_dir: Path) -> list[str]:
    """The problems of a run directory: its logs against its config and each other.

    A slots.csv out of the run's layout is the one problem: every other
    check reads its rows in that layout.
    """
    config = _audited_config(run_dir)
    log = read_slots_csv(run_dir / "slots.csv")
    misplaced = verify_layout(config, log)
    if misplaced:
        return misplaced
    summary = read_summary_csv(run_dir / "summary.csv")
    return (
        verify_log_rows(config, log)
        + verify_audit_csv(run_dir / "auction_audit.csv", config, log)
        + verify_summary_csv(summary, config, log)
        + verify_audit_txt(run_dir / "audit.txt", config, summary)
    )


def cmd_audit(args) -> int:
    root = Path(args.dir)
    if not root.exists():
        raise FileNotFoundError(f"audit target not found: {root}")

    sweep_csv = root / "sweep.csv"
    if sweep_csv.exists() and not (root / "slots.csv").exists():
        return _audit_sweep(sweep_csv)

    if (root / "slots.csv").exists():
        targets = [root]
    else:
        targets = sorted(
            d for d in root.iterdir() if d.is_dir() and (d / "slots.csv").exists()
        )
    if not targets:
        raise SimError(f"{root}: no run outputs to audit")

    all_ok = True
    for t in targets:
        problems = _audit_one(t)
        print(f"{t}: {'FAIL' if problems else 'PASS'} ({len(problems)} problems)")
        for p in problems[:20]:
            print(f"  {p}")
        if len(problems) > 20:
            print(f"  ... {len(problems) - 20} more")
        all_ok = all_ok and not problems
    return EXIT_OK if all_ok else EXIT_INVARIANT


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

    base, traces_doc, inputs = _scenario(args, _MODE_FLAG[args.mode])
    fractions = []
    for tok in args.fractions.split(","):
        try:
            f = float(tok)
        except ValueError:
            raise ConfigError(f"sweep fraction {tok!r} is not a number") from None
        if not 0 < f <= 1:
            raise ConfigError(f"sweep fraction {f} outside (0, 1]")
        fractions.append(f)

    out_root = _resolve_out(args)
    out_root.mkdir(parents=True, exist_ok=True)
    configs = [
        dataclasses.replace(base, mgs=tuple(
            dataclasses.replace(m, params=dataclasses.replace(
                m.params, v_weight=f * compute_v_max(m.params, base.price_bounds)
            ))
            for m in base.mgs
        ))
        for f in fractions
    ]
    runs = sim.simulate_runs(configs, inputs, [f"fraction {f}" for f in fractions])
    rows: list[SweepRow] = []
    solved: dict[tuple[int, float], float] = {}  # oracle costs by (MG id, b0)
    for f, cfg, (summary, _) in zip(fractions, configs, runs):
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
    broken = [v for summary, _ in runs for v in summary.violations]
    if broken:
        print(f"invariant violations recorded; the first: {broken[0]}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgtrade",
        description="Microgrid energy trading simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("--config", help="scenario JSON (built-in default if omitted)")
    p_run.add_argument("--out", help=f"output dir (default ${OUT_ENV} or ./out)")
    p_run.add_argument(
        "--mode", choices=["auction", "solo", "both"], default="both"
    )
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--horizon", type=int)
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="re-verify a run directory from its logs")
    p_audit.add_argument("dir", help="run output dir, parent of runs, or sweep dir")
    p_audit.set_defaults(func=cmd_audit)

    p_sweep = sub.add_parser("sweep", help="sweep v_weight fractions of v_max")
    p_sweep.add_argument("--config", help="scenario JSON (built-in default if omitted)")
    p_sweep.add_argument("--out", help=f"output dir (default ${OUT_ENV} or ./out)")
    p_sweep.add_argument("--fractions", default="0.2,0.4,0.6,0.8,1.0")
    p_sweep.add_argument("--mode", choices=sorted(_MODE_FLAG), default="solo")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--horizon", type=int)
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
    except FileNotFoundError as e:
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
