"""End-to-end command behavior: artifacts, exit codes, audits, sweeps."""

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from mgtrade.cli import (
    EXIT_DATA,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    OUT_ENV,
    config_from_dict,
    config_to_dict,
    default_scenario,
    load_config,
    main,
)
from mgtrade.errors import ConfigError
from mgtrade.model import MODE_AUCTION, MODE_SOLO, compute_v_max, mg_subseed

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIG = str(CONFIG_DIR / "sweep_small.json")


def run_cli(*argv) -> int:
    return main(list(argv))


# ------------------------------------------------------------------- configs


def test_default_scenario_shape():
    cfg = default_scenario()
    assert len(cfg.mgs) == 6
    assert [m.params.id for m in cfg.mgs] == [1, 2, 3, 4, 5, 6]
    types = [m.load_model.mg_type for m in cfg.mgs]
    assert types == ["type1"] * 3 + ["type2"] * 3
    for m in cfg.mgs:
        assert m.params.v_weight == pytest.approx(
            compute_v_max(m.params, cfg.price_bounds)
        )


def test_config_round_trip():
    cfg, traces_doc = load_config(CONFIG_DIR / "sv_synthetic.json")
    doc = config_to_dict(cfg, traces_doc)
    cfg2, _ = config_from_dict(doc)
    assert cfg2 == cfg


def test_every_shipped_config_and_emitted_key_loads():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        load_config(path)
    traces_doc = {"price_trace": "p.csv", "renewable_traces": ["w.csv"] * 6}
    doc = config_to_dict(default_scenario(), traces_doc)
    cfg, got_traces = config_from_dict(json.loads(json.dumps(doc)))
    assert cfg == default_scenario()
    assert got_traces == traces_doc


def reference_doc() -> dict:
    return json.loads((CONFIG_DIR / "sv_synthetic.json").read_text())


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("horizon_slot",), 5, "horizon_slot"),
        (("mgs", 2, "v_fracton"), 0.2, r"mgs\[2\].*v_fracton"),
        (("price_bounds", "pmax"), 20.0, "pmax"),
        (("mgs", 0, "battery_capacity_kwh"), float("nan"), "battery_capacity_kwh"),
        (("rho1",), float("inf"), "rho1"),
        (("seed",), float("inf"), "seed must be a finite number"),
    ],
    ids=[
        "unknown-top-level-key",
        "unknown-mg-key",
        "unknown-price-bounds-key",
        "nan-battery-capacity",
        "infinite-rho1",
        "infinite-seed",
    ],
)
def test_config_rejects_bad_document(path, value, message):
    doc = reference_doc()
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with pytest.raises(ConfigError, match=message):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        (("seed",), 3.5),
        (("horizon_slots",), 2.9),
        (("mgs", 0, "id"), 1.5),
        (("mgs", 0, "load_seed"), 7.25),
    ],
    ids=["seed", "horizon_slots", "mg-id", "load_seed"],
)
def test_config_rejects_fractional_integer(path, value):
    doc = reference_doc()
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = float(int(value))
    config_from_dict(doc)  # an integral float still loads
    block[path[-1]] = value
    with pytest.raises(ConfigError, match=f"{path[-1]} must be an integer"):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "key, value",
    [("renewable_traces", [3]), ("price_trace", 5), ("renewable_traces", "w.csv")],
    ids=["renewable-number", "price-number", "renewable-string"],
)
def test_config_rejects_trace_paths_that_are_not_paths(tmp_path, capsys, key, value):
    """A trace path is a string or null, and renewable_traces a list of them: exit 3."""
    doc = reference_doc()
    doc["mgs"] = doc["mgs"][:1]
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "out")) == EXIT_DATA
    assert f"error: {key} must be null or a" in capsys.readouterr().err


def test_zero_renewable_mean_needs_a_trace_file(tmp_path, capsys):
    """No synthetic trace has mean 0, so the error names the MG (exit 3); a
    trace file scaled to mean 0 runs."""
    doc = reference_doc()
    doc["horizon_slots"] = 6
    doc["mgs"][1]["renewable_mean_kwh"] = 0.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    argv = ("run", "--config", str(path), "--mode", "solo", "--out", str(tmp_path / "out"))
    assert run_cli(*argv) == EXIT_DATA
    assert "error: mg 2: renewable_mean_kwh 0 needs a trace file" in capsys.readouterr().err
    wind = tmp_path / "wind.csv"
    wind.write_text("slot,value\n" + "".join(f"{t},{10.0 + t}\n" for t in range(6)))
    doc["renewable_traces"] = [None, str(wind), None, None, None, None]
    path.write_text(json.dumps(doc))
    assert run_cli(*argv) == EXIT_OK
    rows = csv.DictReader((tmp_path / "out" / "solo" / "slots.csv").read_text().splitlines())
    assert {float(r["renewable_kwh"]) for r in rows if r["mg_id"] == "2"} == {0.0}


def test_a_short_renewable_trace_names_its_mg_and_file(tmp_path, capsys):
    doc = reference_doc()
    doc["horizon_slots"] = 6
    wind = tmp_path / "gusts.csv"
    wind.write_text("slot,value\n0,10.0\n1,12.0\n")
    doc["renewable_traces"] = [None, None, str(wind), None, None, None]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "out")) == EXIT_DATA
    err = capsys.readouterr().err
    assert "error: mg 3: renewable trace 'gusts' covers 2 slots, horizon needs 6" in err


def test_unknown_mg_type_names_the_default_id(tmp_path, capsys):
    path = tmp_path / "one.json"
    doc = reference_doc()
    doc["mgs"] = [{k: v for k, v in doc["mgs"][0].items() if k != "id"}]
    doc["mgs"][0]["mg_type"] = "type3"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path)) == EXIT_DATA
    assert "mg 1: unknown mg_type 'type3'" in capsys.readouterr().err


def test_run_with_misspelled_key_is_data_error(tmp_path, capsys):
    path = tmp_path / "typo.json"
    doc = reference_doc()
    doc["mgs"][0]["v_fracton"] = 0.2
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path)) == EXIT_DATA
    assert "v_fracton" in capsys.readouterr().err
    assert not (tmp_path / "auction").exists()


def test_load_config_missing_file():
    with pytest.raises(FileNotFoundError):
        load_config("configs/does_not_exist.json")


# ----------------------------------------------------------------------- run


def test_run_writes_all_artifacts(tmp_path, capsys):
    code = run_cli(
        "run", "--out", str(tmp_path), "--horizon", "20", "--seed", "3"
    )
    assert code == EXIT_OK
    for sub in ("auction", "solo"):
        for name in (
            "slots.csv",
            "summary.csv",
            "auction_audit.csv",
            "audit.txt",
            "config.json",
        ):
            assert (tmp_path / sub / name).exists(), f"{sub}/{name}"
        assert "ALL CHECKS PASSED" in (tmp_path / sub / "audit.txt").read_text()
    comparison = (tmp_path / "comparison.txt").read_text()
    assert "no_auction total cost" in comparison
    out = capsys.readouterr().out
    assert "with_auction" in out and "no_auction" in out


def test_run_single_mode_writes_one_dir(tmp_path):
    code = run_cli(
        "run", "--out", str(tmp_path), "--mode", "auction",
        "--horizon", "10", "--seed", "1",
    )
    assert code == EXIT_OK
    assert (tmp_path / "auction" / "slots.csv").exists()
    assert not (tmp_path / "solo").exists()
    assert not (tmp_path / "comparison.txt").exists()


@pytest.mark.parametrize(
    "flag, removed, refused",
    [("auction", None, "solo"), ("solo", None, "auction"), ("auction", "solo", "comparison.txt")],
)
def test_a_single_mode_run_refuses_a_parent_of_both_modes(tmp_path, capsys, flag, removed, refused):
    """A --mode auction or solo run into a directory that holds the other
    mode's run or a comparison.txt would leave them stale, and the directory
    would fail its audit: the run exits 2, names the entry and writes
    nothing. A --mode both run there still replaces both runs."""
    out = str(tmp_path)
    assert run_cli("run", "--horizon", "12", "--seed", "1", "--out", out) == EXIT_OK
    if removed:
        shutil.rmtree(tmp_path / removed)
    written = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    capsys.readouterr()
    argv = ("run", "--horizon", "12", "--seed", "2", "--out", out)
    assert run_cli(*argv, "--mode", flag) == EXIT_USAGE
    assert f"error: {tmp_path / refused} exists" in capsys.readouterr().err
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == written
    assert run_cli(*argv) == EXIT_OK
    assert run_cli("audit", out) == EXIT_OK


def test_run_honors_out_env(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(OUT_ENV, str(target))
    code = run_cli("run", "--mode", "solo", "--horizon", "5", "--seed", "0")
    assert code == EXIT_OK
    assert (target / "solo" / "slots.csv").exists()


def test_run_missing_config_is_usage_error(tmp_path, capsys):
    code = run_cli("run", "--config", str(tmp_path / "nope.json"))
    assert code == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def test_run_bad_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli("run", "--config", str(bad))
    assert code == EXIT_DATA


def test_run_seed_changes_draws(tmp_path):
    for seed in ("1", "2"):
        run_cli(
            "run", "--out", str(tmp_path / seed), "--mode", "solo",
            "--horizon", "8", "--seed", seed,
        )
    a = (tmp_path / "1" / "solo" / "slots.csv").read_bytes()
    b = (tmp_path / "2" / "solo" / "slots.csv").read_bytes()
    assert a != b


def test_run_repeat_is_byte_identical(tmp_path):
    for name in ("x", "y"):
        code = run_cli(
            "run", "--out", str(tmp_path / name), "--horizon", "20", "--seed", "9"
        )
        assert code == EXIT_OK
    for sub in ("auction", "solo"):
        a = (tmp_path / "x" / sub / "slots.csv").read_bytes()
        b = (tmp_path / "y" / sub / "slots.csv").read_bytes()
        assert a == b


def test_main_without_arguments_is_usage():
    assert run_cli() == EXIT_USAGE


# --------------------------------------------------------------------- audit


def test_audit_clean_run(tmp_path, capsys):
    run_cli("run", "--out", str(tmp_path), "--horizon", "15", "--seed", "4")
    capsys.readouterr()
    code = run_cli("audit", str(tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("PASS") == 2  # auction and solo subdirs


def test_audit_catches_tampered_log(tmp_path, capsys):
    run_cli(
        "run", "--out", str(tmp_path), "--mode", "solo",
        "--horizon", "10", "--seed", "4",
    )
    slots = tmp_path / "solo" / "slots.csv"
    with open(slots, newline="") as fh:
        rows = list(csv.reader(fh))
    tampered_slot, tampered_mg = rows[6][0], rows[6][1]
    rows[6][2] = "99999999.000000"  # battery far beyond capacity
    with open(slots, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    code = run_cli("audit", str(tmp_path / "solo"))
    out = capsys.readouterr().out
    assert code == EXIT_INVARIANT
    assert "FAIL" in out
    assert f"slot {tampered_slot} mg {tampered_mg}" in out


def test_audit_catches_a_cent_on_a_large_cost(tmp_path, capsys):
    run_cli(
        "run", "--out", str(tmp_path), "--mode", "auction",
        "--horizon", "20", "--seed", "4",
    )
    slots = tmp_path / "auction" / "slots.csv"
    with open(slots, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("cost")
    k = max(range(1, len(rows)), key=lambda i: abs(float(rows[i][col])))
    cost = float(rows[k][col])
    assert abs(cost) > 1000.0  # where 1e-5 of the cost would forgive 0.01
    rows[k][col] = f"{cost + 0.01:.6f}"
    with open(slots, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    code = run_cli("audit", str(tmp_path / "auction"))
    out = capsys.readouterr().out
    assert code == EXIT_INVARIANT
    assert f"slot {rows[k][0]} mg {rows[k][1]}: cost" in out


def test_audit_rederives_job_ages(tmp_path, capsys):
    """An age raised by 3 on one row, and zeroed on the next, fails the audit."""
    run_cli(
        "run", "--out", str(tmp_path), "--mode", "solo",
        "--horizon", "48", "--seed", "4",
    )
    slots = tmp_path / "solo" / "slots.csv"
    with open(slots, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("oldest_pending_age")
    mg_rows = [k for k in range(1, len(rows)) if rows[k][1] == "1"]
    first, second = mg_rows[20], mg_rows[21]
    assert int(rows[second][col]) > 0
    rows[first][col] = str(int(rows[first][col]) + 3)
    rows[second][col] = "0"
    with open(slots, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    code = run_cli("audit", str(tmp_path / "solo"))
    out = capsys.readouterr().out
    assert code == EXIT_INVARIANT
    for k in (first, second):
        assert f"slot {rows[k][0]} mg 1: oldest pending age {rows[k][col]} is not" in out
    assert out.count("oldest pending age") == 2


def solo_log(tmp_path) -> tuple[Path, list[list[str]]]:
    """A 24-slot solo run of the reference scenario and its slots.csv rows."""
    run_cli(
        "run", "--out", str(tmp_path), "--mode", "solo",
        "--horizon", "24", "--seed", "4",
    )
    slots = tmp_path / "solo" / "slots.csv"
    with open(slots, newline="") as fh:
        return slots, list(csv.reader(fh))


def audit_rewritten(slots: Path, rows: list[list[str]], capsys) -> tuple[int, str]:
    with open(slots, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    code = run_cli("audit", str(slots.parent))
    return code, capsys.readouterr().out


# A slots.csv out of the layout the run writes (slot t's rows are rows 6t to
# 6t + 5, MG 1 to 6) is one problem: its first line out of place.
@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda rows: [r for r in rows if r[1] != "3"],
         "slots.csv line 4: slot 0 mg 4, where the run writes slot 0 mg 3"),
        (lambda rows: [r for r in rows if r[0] != "23"],
         "slots.csv line 140: no row, where the run writes slot 23 mg 1"),
        (lambda rows: rows[:40] + [rows[39]] + rows[40:],
         "slots.csv line 42: slot 6 mg 4, where the run writes slot 6 mg 5"),
    ],
    ids=["mg-deleted", "slot-deleted", "row-duplicated"],
)
def test_audit_catches_incomplete_log(tmp_path, capsys, tamper, message):
    slots, rows = solo_log(tmp_path)
    code, out = audit_rewritten(slots, rows[:1] + tamper(rows[1:]), capsys)
    assert code == EXIT_INVARIANT
    assert f"FAIL (1 problems)\n  {message}\n" in out


def move_slot(rows, t, to):
    """The rows of 6 MGs a slot with slot t's rows moved to before slot `to`."""
    moved = rows[6 * t:6 * t + 6]
    rest = rows[:6 * t] + rows[6 * t + 6:]
    return rest[:6 * (to - 1)] + moved + rest[6 * (to - 1):]


@pytest.mark.parametrize(
    "mode, tamper, message",
    [
        ("solo", lambda rows: rows[:31] + [rows[32], rows[31]] + rows[33:],
         "slots.csv line 33: slot 5 mg 3, where the run writes slot 5 mg 2"),
        ("auction", lambda rows: rows[:31] + [rows[32], rows[31]] + rows[33:],
         "slots.csv line 33: slot 5 mg 3, where the run writes slot 5 mg 2"),
        ("solo", lambda rows: move_slot(rows, 3, 10),
         "slots.csv line 20: slot 4 mg 1, where the run writes slot 3 mg 1"),
    ],
    ids=["mgs-swapped-solo", "mgs-swapped-auction", "slot-moved"],
)
def test_audit_catches_reordered_log(tmp_path, capsys, mode, tamper, message):
    """Every row is still there, but not where the run writes it."""
    slots, rows = (solo_log if mode == "solo" else auction_log)(tmp_path)
    code, out = audit_rewritten(slots, rows[:1] + tamper(rows[1:]), capsys)
    assert code == EXIT_INVARIANT
    assert f"FAIL (1 problems)\n  {message}\n" in out


def test_audit_catches_edited_virtual_queue(tmp_path, capsys):
    slots, rows = solo_log(tmp_path)
    col = rows[0].index("virtual_kwh")
    # an interior row with the battery mid-range: X + 100 stays inside the
    # range of X over [0, capacity], so only the B - theta - D_max identity
    # can catch the edit
    k = next(
        i for i in range(7, len(rows) - 6) if 200.0 < float(rows[i][2]) < 2800.0
    )
    rows[k][col] = f"{float(rows[k][col]) + 100.0:.6f}"
    code, out = audit_rewritten(slots, rows, capsys)
    assert code == EXIT_INVARIANT
    assert f"slot {rows[k][0]} mg {rows[k][1]}: X" in out


def test_audit_checks_the_first_battery_level(tmp_path, capsys):
    """One MG's battery path shifted by 1 kWh keeps every step, but not its start.

    The initial battery is 4.9e-7 kWh from its 6-decimal rendering, so the
    clean run's audit needs the rounding slack.
    """
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**reference_doc(), "initial_battery_kwh": 1234.56789149}))
    assert run_cli(
        "run", "--config", str(config), "--out", str(tmp_path), "--mode", "solo",
        "--horizon", "24",
    ) == EXIT_OK
    slots = tmp_path / "solo" / "slots.csv"
    with open(slots, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][rows[0].index("battery_kwh")] == "1234.567891"
    capsys.readouterr()
    assert run_cli("audit", str(tmp_path / "solo")) == EXIT_OK
    mg_rows = [r for r in rows[1:] if r[1] == "2"]
    levels = [float(r[rows[0].index("battery_kwh")]) for r in mg_rows]
    shift = -1.0 if min(levels) >= 1.0 else 1.0
    for r in mg_rows:
        for col in (rows[0].index("battery_kwh"), rows[0].index("virtual_kwh")):
            r[col] = f"{float(r[col]) + shift:.6f}"
    # and the battery range of summary.csv and audit.txt with it, so only the start differs
    summary, report = slots.parent / "summary.csv", slots.parent / "audit.txt"
    with open(summary, newline="") as fh:
        lines = list(csv.reader(fh))
    cols = (lines[0].index("min_b_kwh"), lines[0].index("max_b_kwh"))
    ranges = []
    for edit in (0.0, shift):
        for col in cols:
            lines[2][col] = f"{float(lines[2][col]) + edit:.6f}"
        ranges.append("B in [{}, {}]".format(*(lines[2][col] for col in cols)))
    with open(summary, "w", newline="") as fh:
        csv.writer(fh).writerows(lines)
    report.write_text("".join(
        line.replace(*ranges) if line.startswith("mg2 battery range") else line
        for line in report.read_text().splitlines(keepends=True)
    ))
    code, out = audit_rewritten(slots, rows, capsys)
    assert code == EXIT_INVARIANT
    assert f"slot 0 mg 2: battery {levels[0] + shift} != initial battery" in out
    assert "FAIL (1 problems)" in out


def auction_log(tmp_path) -> tuple[Path, list[list[str]]]:
    """A 24-slot auction run of the reference scenario and its slots.csv rows."""
    run_cli(
        "run", "--out", str(tmp_path), "--mode", "auction",
        "--horizon", "24", "--seed", "4",
    )
    slots = tmp_path / "auction" / "slots.csv"
    with open(slots, newline="") as fh:
        return slots, list(csv.reader(fh))


@pytest.mark.parametrize(
    "which, column, value, message",
    [
        ("last", "market_surplus", lambda v: v("market_surplus") + 1.0,
         "market columns differ from the slot's first row"),
        ("last", "grid_price", lambda v: v("grid_price") + 1.0,
         "grid price differs from the slot's first row"),
        ("all", "market_volume_kwh", lambda v: 99999.0, "kWh != market volume"),
        ("all", "market_buy_price", lambda v: v("grid_price") + 1.0,
         "above grid price"),
        ("all", "market_sell_price", lambda v: v("market_buy_price") + 1.0,
         "below sell price"),
        ("all", "market_surplus", lambda v: v("market_surplus") + 1.0,
         "!= (buy - sell price) * volume"),
        ("buyer", "buy_unit_price", lambda v: v("buy_unit_price") + 0.5,
         "unit price is not the market price"),
        ("buyer", "sold_kwh", lambda v: 1.0, "both bought and sold"),
    ],
    ids=[
        "columns-differ", "grid-differs", "volume", "above-grid", "below-sell", "surplus",
        "unit-price", "both-sides",
    ],
)
def test_audit_catches_edited_market(tmp_path, capsys, which, column, value, message):
    slots, rows = auction_log(tmp_path)
    col = rows[0].index
    trade = next(r for r in rows[1:] if float(r[col("market_volume_kwh")]) > 0.0)
    slot_rows = [r for r in rows[1:] if r[0] == trade[0]]
    buyer = next(r for r in slot_rows if float(r[col("bought_kwh")]) > 0.0)
    edited = {"last": slot_rows[-1:], "all": slot_rows, "buyer": [buyer]}[which]
    for r in edited:
        r[col(column)] = f"{value(lambda name: float(r[col(name)])):.6f}"
    code, out = audit_rewritten(slots, rows, capsys)
    assert code == EXIT_INVARIANT
    assert message in out


def test_audit_rederives_bids(tmp_path, capsys):
    """Bids that do not follow from the logged queues and loads fail the audit."""
    run_cli(
        "run", "--out", str(tmp_path), "--mode", "auction",
        "--horizon", "48", "--seed", "3",
    )
    slots = tmp_path / "auction" / "slots.csv"
    with open(slots, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index
    for r in rows[1:]:
        r[col("bid_buy_price")] = "15.999999"
        r[col("bid_sell_price")] = "0.000001"
    code, out = audit_rewritten(slots, rows, capsys)
    assert code == EXIT_INVARIANT
    assert "slot 0 mg 1: bids [1e-06, 15.999999, " in out
    assert "!= make_bids of the logged Q, Z, R, I" in out


def audit_lines_of(run_dir: Path) -> list[list[str]]:
    with open(run_dir / "auction_audit.csv", newline="") as fh:
        return list(csv.reader(fh))


def swap_first_tie(lines):
    """Swap two adjacent buy lines of one slot with different prices."""
    k = next(
        k for k in range(1, len(lines) - 1)
        if lines[k][:1] == lines[k + 1][:1] and lines[k][2] == lines[k + 1][2] == "buy"
        and lines[k][3] != lines[k + 1][3]
    )
    lines[k], lines[k + 1] = lines[k + 1], lines[k]


def winner(lines):
    return next(r for r in lines[1:] if r[5] == "1")


def set_cell(row, k, value):
    row[k] = value


def first_difference(written: list[list[str]], edited: list[list[str]]) -> str:
    """The problem the audit reports for an edited auction_audit.csv without tied
    lines: the first line of the file that is not the written one."""
    k = next(k for k, pair in enumerate(zip_longest(edited, written)) if pair[0] != pair[1])
    got, want = (repr(",".join(f[k])) if k < len(f) else "no line" for f in (edited, written))
    cells = (edited if k < len(edited) else written)[k]
    return (
        f"auction_audit.csv line {k + 1}: slot {cells[0]} mg {cells[1]}: {got} != {want} "
        "from slots.csv"
    )


@pytest.mark.parametrize(
    "tamper",
    [
        lambda lines: [set_cell(r, 6, "99.000000") for r in lines[1:]],
        lambda lines: set_cell(winner(lines), 5, "0"),
        lambda lines: set_cell(winner(lines), 7, "0.000000"),
        lambda lines: set_cell(lines[1], 3, "7.000000"),
        lambda lines: lines.remove(winner(lines)),
        lambda lines: lines.append(lines[-1]),
        lambda lines: set_cell(lines[1], 2, {"buy": "sell", "sell": "buy"}[lines[1][2]]),
        swap_first_tie,
    ],
    ids=[
        "cleared-price", "accepted", "cleared-quantity", "price", "line-deleted",
        "line-repeated", "side", "book-order",
    ],
)
def test_audit_checks_the_auction_audit(tmp_path, capsys, tamper):
    """auction_audit.csv must list the logged bids and fills of slots.csv: its
    first line that differs from what slots.csv renders is one problem."""
    run_cli(
        "run", "--out", str(tmp_path), "--mode", "auction",
        "--horizon", "48", "--seed", "3",
    )
    run_dir = tmp_path / "auction"
    written = audit_lines_of(run_dir)
    lines = [list(line) for line in written]
    tamper(lines)
    with open(run_dir / "auction_audit.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(lines)
    capsys.readouterr()
    code = run_cli("audit", str(run_dir))
    out = capsys.readouterr().out
    assert code == EXIT_INVARIANT
    assert f"FAIL (1 problems)\n  {first_difference(written, lines)}\n" in out


def test_audit_catches_a_tiny_second_bid(tmp_path, capsys):
    """A row given a 0.000001 kWh bid on its other side, with a line for it in
    auction_audit.csv, fails: `make_bids` posts one side only."""
    slots, rows = auction_log(tmp_path)
    col = rows[0].index
    k = next(k for k in range(1, len(rows)) if float(rows[k][col("bid_sell_qty")]) > 0.0)
    rows[k][col("bid_buy_qty")] = "0.000001"
    t, mid, price = *rows[k][:2], rows[k][col("bid_buy_price")]
    # its line goes after the slot's buys at a price at least its own
    lines = audit_lines_of(slots.parent)
    slot = [j for j, line in enumerate(lines) if line[0] == t]
    above = [j for j in slot if lines[j][2] == "buy" and float(lines[j][3]) >= float(price)]
    at = above[-1] + 1 if above else slot[0]
    lines.insert(at, [t, mid, "buy", price, "0.000001", "0", "0.000000", "0.000000"])
    write_unquoted(slots.parent / "auction_audit.csv", lines)
    code, out = audit_rewritten(slots, rows, capsys)
    assert code == EXIT_INVARIANT
    assert f"FAIL (1 problems)\n  slot {t} mg {mid}: bids on both sides\n" in out


def write_unquoted(path: Path, rows: list[list[str]], eol: str = "\r\n") -> None:
    """Write rows as a log is written: cells joined by commas, nothing quoted."""
    path.write_bytes("".join(",".join(row) + eol for row in rows).encode())


# A cell that does not parse, or a line of the wrong width, is a data error
# (exit 3) naming the line; an infinite cell parses and, differing from what
# slots.csv renders, is an invariant failure (exit 4) of the line it sits on.
@pytest.mark.parametrize(
    "cell, code, message",
    [
        ("abc", EXIT_DATA,
         "auction_audit.csv: line 4, column 'price': 'abc' is not a finite number"),
        (None, EXIT_DATA, "auction_audit.csv: line 4: 7 cells"),
        ("inf", EXIT_INVARIANT, "auction_audit.csv line 4: slot 0 mg 6: "
         "'0,6,sell,inf,45.443812,0,0.000000,0.000000' != "
         "'0,6,sell,0.000000,45.443812,0,0.000000,0.000000' from slots.csv"),
        ("-inf", EXIT_INVARIANT, "auction_audit.csv line 4: slot 0 mg 6: "
         "'0,6,sell,-inf,45.443812,0,0.000000,0.000000' != "
         "'0,6,sell,0.000000,45.443812,0,0.000000,0.000000' from slots.csv"),
        ("", EXIT_DATA, "auction_audit.csv: line 4, column 'price': '' is not a finite number"),
        ('"1.0"', EXIT_DATA,
         "auction_audit.csv: line 4, column 'price': '\"1.0\"' is not a finite number"),
        ("30 cells", EXIT_DATA, "auction_audit.csv: line 4: 30 cells, header has 8"),
    ],
    ids=["non-numeric", "short-line", "inf", "minus-inf", "blank", "quoted", "long-line"],
)
def test_audit_rejects_an_unparseable_auction_audit(tmp_path, capsys, cell, code, message):
    run_cli("run", "--out", str(tmp_path), "--mode", "auction", "--horizon", "8")
    run_dir = tmp_path / "auction"
    lines = audit_lines_of(run_dir)
    if cell is None:
        lines[3].pop()
    elif cell == "30 cells":
        lines[3] += ["0"] * 22
    else:
        lines[3][3] = cell
    write_unquoted(run_dir / "auction_audit.csv", lines)
    capsys.readouterr()
    assert run_cli("audit", str(run_dir)) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


def test_audit_needs_the_auction_audit(tmp_path, capsys):
    run_cli("run", "--out", str(tmp_path), "--mode", "solo", "--horizon", "8")
    (tmp_path / "solo" / "auction_audit.csv").unlink()
    assert run_cli("audit", str(tmp_path / "solo")) == EXIT_INVARIANT
    assert "missing log" in capsys.readouterr().err


def moved(column: str, by: float):
    """A tamper moving MG 3's `column` of summary.csv by `by`."""

    def tamper(rows):
        k = rows[0].index(column)
        rows[3][k] = f"{float(rows[3][k]) + by:.6f}"

    return tamper


@pytest.mark.parametrize(
    "tamper, message",
    [
        (moved("total_cost", 0.01), "summary.csv line 4: mg 3: total_cost"),
        (moved("time_avg_cost", 1e-5), "summary.csv line 4: mg 3: time_avg_cost"),
        (moved("max_q_kwh", -1e-6), "summary.csv line 4: mg 3: max_q_kwh"),
        (lambda rows: set_cell(rows[3], 12, "1"), "summary.csv line 4: mg 3: 1 violations"),
        (lambda rows: rows.pop(3),
         "summary.csv: mg ids [1, 2, 4, 5, 6] are not the configured [1, 2, 3, 4, 5, 6]"),
    ],
    ids=["total-cost", "time-average", "max-q", "violations", "row-deleted"],
)
def test_audit_checks_the_summary(tmp_path, capsys, tamper, message):
    """summary.csv must hold each configured MG's totals and extremes of slots.csv."""
    run_cli("run", "--out", str(tmp_path), "--mode", "auction", "--horizon", "24", "--seed", "4")
    summary = tmp_path / "auction" / "summary.csv"
    with open(summary, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[3][0] == "3" and rows[0][12] == "violations"
    tamper(rows)
    code, out = audit_rewritten(summary, rows, capsys)
    assert code == EXIT_INVARIANT
    assert message in out


def test_audit_needs_the_summary(tmp_path, capsys):
    run_cli("run", "--out", str(tmp_path), "--mode", "solo", "--horizon", "8")
    (tmp_path / "solo" / "summary.csv").unlink()
    assert run_cli("audit", str(tmp_path / "solo")) == EXIT_INVARIANT
    assert "missing log" in capsys.readouterr().err


def test_audit_checks_the_audit_report(tmp_path, capsys):
    """audit.txt must be the bound report that summary.csv and the config
    render; every PASS turned into FAIL is one problem, at its first line."""
    run_cli("run", "--out", str(tmp_path), "--mode", "auction", "--horizon", "8")
    report = tmp_path / "auction" / "audit.txt"
    written = report.read_text()
    report.write_text(written.replace("PASS", "FAIL"))
    capsys.readouterr()
    assert run_cli("audit", str(report.parent)) == EXIT_INVARIANT
    first = written.splitlines()[0]
    edited = first.replace("PASS", "FAIL")
    assert f"FAIL (1 problems)\n  audit.txt line 1: {edited!r} != {first!r} from summary.csv\n" in (
        capsys.readouterr().out
    )
    report.unlink()
    assert run_cli("audit", str(report.parent)) == EXIT_INVARIANT
    assert "missing log" in capsys.readouterr().err


def test_audit_fails_a_parent_whose_runs_have_other_configs(tmp_path, capsys):
    """An auction run of another seed copied over a parent of both modes'
    runs: each run passes its own audit, but auction/ and solo/ no longer
    share a config, so the parent fails."""
    parent, other = tmp_path / "parent", tmp_path / "other"
    assert run_cli("run", "--horizon", "12", "--seed", "1", "--out", str(parent)) == EXIT_OK
    argv = ("run", "--horizon", "12", "--seed", "2", "--mode", "auction", "--out", str(other))
    assert run_cli(*argv) == EXIT_OK
    shutil.copytree(other / "auction", parent / "auction", dirs_exist_ok=True)
    (parent / "comparison.txt").unlink()  # one problem; its lines are the next tests'
    capsys.readouterr()
    assert run_cli("audit", str(parent)) == EXIT_INVARIANT
    text = capsys.readouterr().out
    assert text.count(": PASS (0 problems)") == 2
    assert text.endswith(
        f"{parent}: FAIL (2 problems)\n  auction/config.json and solo/config.json differ "
        "in ['mgs', 'seed'], not only in mode\n"
        "  comparison.txt: missing, where the run writes one\n"
    )


MODE_OF = {"auction": MODE_AUCTION, "solo": MODE_SOLO}


@pytest.mark.parametrize("flag, mode", [("auction", MODE_SOLO), ("solo", MODE_AUCTION)])
def test_audit_fails_a_run_relabelled_with_the_other_mode(tmp_path, capsys, flag, mode):
    """A run's config.json edited to the other mode. A no_auction run posts no
    book, so an auction run relabelled so fails at each slot that traded; a solo run
    relabelled with_auction logs what an auction that never clears logs, and
    passes alone. Under their parent, each run's mode must be its directory's."""
    assert run_cli("run", "--horizon", "24", "--out", str(tmp_path)) == EXIT_OK
    config = tmp_path / flag / "config.json"
    config.write_text(config.read_text().replace(MODE_OF[flag], mode))
    capsys.readouterr()
    code = run_cli("audit", str(config.parent))
    text = capsys.readouterr().out
    if flag == "auction":
        traded = sorted({int(line[0]) for line in audit_lines_of(config.parent)[1:] if line[5] == "1"})
        assert code == EXIT_INVARIANT
        assert f"FAIL ({len(traded)} problems)\n  slot {traded[0]}: market_buy_price is not 0 " \
            "in a no_auction run\n" in text
    else:
        assert code == EXIT_OK and text == f"{config.parent}: PASS (0 problems)\n"
    assert run_cli("audit", str(tmp_path)) == EXIT_INVARIANT
    assert capsys.readouterr().out.endswith(
        f"{tmp_path}: FAIL (1 problems)\n  {flag}/config.json: mode {mode!r}, where the run "
        f"writes {MODE_OF[flag]!r}\n"
    )


def test_audit_fails_a_parent_of_both_runs_without_its_comparison(tmp_path, capsys):
    """`mgtrade run --mode both` writes comparison.txt beside its two runs; a
    parent that holds both runs and not the file fails."""
    assert run_cli("run", "--horizon", "12", "--out", str(tmp_path)) == EXIT_OK
    (tmp_path / "comparison.txt").unlink()
    capsys.readouterr()
    assert run_cli("audit", str(tmp_path)) == EXIT_INVARIANT
    assert capsys.readouterr().out.endswith(
        f"{tmp_path}: FAIL (1 problems)\n  comparison.txt: missing, where the run writes one\n"
    )


def test_audit_of_a_directory_with_a_sweep_audits_its_runs_too(tmp_path, capsys):
    """A sweep written beside a parent of runs: the directory's audit checks the
    sweep, each run and the parent, so one edited cell of a run's slots.csv fails it."""
    out = str(tmp_path)
    assert run_cli("run", "--horizon", "12", "--out", out) == EXIT_OK
    assert run_cli("sweep", "--horizon", "12", "--out", out) == EXIT_OK
    capsys.readouterr()
    assert run_cli("audit", out) == EXIT_OK
    text = capsys.readouterr().out
    assert "rows follow config.json: PASS\n" in text and text.count(": PASS (0 problems)") == 2
    slots = tmp_path / "auction" / "slots.csv"
    with open(slots, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[6][2] = "99999999.000000"  # battery far beyond capacity
    with open(slots, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run_cli("audit", out) == EXIT_INVARIANT
    text = capsys.readouterr().out
    assert "rows follow config.json: PASS\n" in text
    assert f"{tmp_path / 'auction'}: FAIL" in text and f"slot {rows[6][0]} mg {rows[6][1]}: " in text


def test_a_sweep_refuses_a_run_directory(tmp_path, capsys):
    """A sweep into a run's directory would replace the run's config.json with
    its own; it is refused (exit 2), and the run keeps every file."""
    assert run_cli("run", "--horizon", "12", "--out", str(tmp_path)) == EXIT_OK
    run_dir = tmp_path / "auction"
    files = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    assert run_cli("sweep", "--horizon", "12", "--out", str(run_dir)) == EXIT_USAGE
    assert f"error: {run_dir / 'slots.csv'} exists: a sweep would replace" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == files
    assert run_cli("audit", str(tmp_path)) == EXIT_OK


def test_a_battery_capacity_of_many_decimals_passes_its_audit(tmp_path, capsys):
    """MGs of 2000/3 kWh start full, so summary.csv writes max_b_kwh
    666.666667, above the capacity in memory. audit.txt judges that value as
    written, against the capacity as written, so the run and its audit agree."""
    doc = {"seed": 7, "horizon_slots": 12, "mgs": [
        {"id": k + 1, "mg_type": "type1" if k < 3 else "type2", "battery_capacity_kwh": 2000 / 3,
         "charge_rate_max_kwh": 300.0, "discharge_rate_max_kwh": 300.0,
         "serve_rate_max_kwh": 1500.0}
        for k in range(6)
    ]}
    path = tmp_path / "third.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "out")) == EXIT_OK
    report = (tmp_path / "out" / "auction" / "audit.txt").read_text()
    assert "mg1 battery range          PASS  B in [" in report and ", 666.666667]\n" in report
    capsys.readouterr()
    assert run_cli("audit", str(tmp_path / "out")) == EXIT_OK


def test_audit_of_a_truncated_config_is_a_data_error(tmp_path, capsys):
    """A run directory whose config.json is cut short fails its audit as a data
    error that names the file."""
    assert run_cli("run", "--mode", "solo", "--horizon", "4", "--out", str(tmp_path)) == EXIT_OK
    config = tmp_path / "solo" / "config.json"
    config.write_text('{"seed": ')
    capsys.readouterr()
    assert run_cli("audit", str(tmp_path / "solo")) == EXIT_DATA
    assert f"error: {config}: invalid JSON" in capsys.readouterr().err


def bumped(line: str, by: float) -> str:
    """A comparison.txt line with its value moved by `by`, rendered as before."""
    head, _, cell = line.rpartition(" ")
    value, percent = cell.removesuffix("%"), "%" * cell.endswith("%")
    return f"{head} {float(value) + by:.{len(value.split('.')[1])}f}{percent}"


@pytest.mark.parametrize(
    "line, edit, message",
    [
        (1, lambda s: s, None),  # as written
        (2, lambda s: bumped(s, 1e-6), None),  # within the rendering
        (2, lambda s: bumped(s, 1e-5), "with_auction total cost"),
        (3, lambda s: s.replace("%", "0%"), "cost reduction"),
        (3, lambda s: bumped(s, 0.01), "cost reduction"),
        (4, lambda s: "", "grid purchase reduction"),
    ],
    ids=["as-written", "last-digit", "auction-total", "format", "reduction", "missing"],
)
def test_audit_checks_the_comparison(tmp_path, capsys, line, edit, message):
    """comparison.txt must show the totals that the two summary.csv logs sum
    to, within their 6-decimal rendering, and the reductions those give."""
    out = str(tmp_path)
    assert run_cli("run", "--horizon", "12", "--seed", "1", "--out", out) == EXIT_OK
    comparison = tmp_path / "comparison.txt"
    lines = comparison.read_text().splitlines()
    edited = edit(lines[line - 1])
    comparison.write_text("\n".join(lines[:line - 1] + [edited] * bool(edited) + lines[line:]) + "\n")
    capsys.readouterr()
    code = run_cli("audit", out)
    text = capsys.readouterr().out
    if message is None:
        assert code == EXIT_OK and f"{tmp_path}:" not in text
        return
    assert code == EXIT_INVARIANT
    got = repr(edited) if edited else "None"
    assert f"{tmp_path}: FAIL (1 problems)\n  comparison.txt line {line}: {got} != '{message}" in text
    (tmp_path / "solo" / "slots.csv").unlink()
    assert run_cli("audit", out) == EXIT_INVARIANT
    assert "comparison.txt: no auction/ and solo/ runs to compare" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cell, message",
    [
        ("xyz", "column 'battery_kwh': 'xyz' is not a finite number"),
        ("nan", "column 'battery_kwh': 'nan' is not a finite number"),
        (None, "line 8: 28 cells, header has 29"),
        ("inf", "column 'battery_kwh': 'inf' is not a finite number"),
        ("-inf", "column 'battery_kwh': '-inf' is not a finite number"),
        ("", "column 'battery_kwh': '' is not a finite number"),
        ('"1.0"', "column 'battery_kwh': '\"1.0\"' is not a finite number"),
        ("30 cells", "line 8: 30 cells, header has 29"),
    ],
    ids=["non-numeric", "nan", "short-row", "inf", "minus-inf", "blank", "quoted", "long-row"],
)
def test_audit_rejects_unparseable_slots_log(tmp_path, capsys, cell, message):
    """A cell that is no finite number is a data error naming file, line, column."""
    slots, rows = solo_log(tmp_path)
    if cell is None:
        rows[7].pop()
    elif cell == "30 cells":
        rows[7].append("0.000000")
    else:
        rows[7][rows[0].index("battery_kwh")] = cell
    write_unquoted(slots, rows)
    capsys.readouterr()
    assert run_cli("audit", str(slots.parent)) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{slots}: line 8" in err
    assert message in err


@pytest.mark.parametrize("eol", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
def test_audit_reads_every_line_end_and_skips_blank_lines(tmp_path, capsys, eol):
    """Logs rewritten with other line ends and a blank line still pass, and a
    bad cell after the blank line is named by its line in the file."""
    run_cli("run", "--out", str(tmp_path), "--mode", "auction", "--horizon", "8")
    run_dir = tmp_path / "auction"
    logs = {}
    for name in ("slots.csv", "auction_audit.csv", "summary.csv"):
        with open(run_dir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        logs[name] = rows[:3] + [[]] + rows[3:]  # a blank line 4
        write_unquoted(run_dir / name, logs[name], eol)
    capsys.readouterr()
    assert run_cli("audit", str(run_dir)) == EXIT_OK
    assert "PASS (0 problems)" in capsys.readouterr().out
    slots = logs["slots.csv"]
    slots[9][slots[0].index("grid_kwh")] = "x"  # line 10 of the file, row 8
    write_unquoted(run_dir / "slots.csv", slots, eol)
    assert run_cli("audit", str(run_dir)) == EXIT_DATA
    assert "slots.csv: line 10, column 'grid_kwh': 'x' is not" in capsys.readouterr().err


def test_audit_rejects_a_fractional_slot(tmp_path, capsys):
    """An ``int`` column must hold a whole number, not one that truncates to it."""
    slots, rows = solo_log(tmp_path)
    assert rows[6][:2] == ["0", "6"]  # slot 0 of MG 6, which int() would keep
    rows[6][0] = "0.5"
    with open(slots, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert run_cli("audit", str(slots.parent)) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{slots}: line 7, column 'slot': '0.5' is not a whole number" in err


def test_audit_missing_dir_is_usage_error(tmp_path):
    assert run_cli("audit", str(tmp_path / "missing")) == EXIT_USAGE


# --------------------------------------------------------------------- sweep


def test_sweep_writes_table_and_audits(tmp_path, capsys):
    code = run_cli(
        "sweep", "--config", CONFIG, "--out", str(tmp_path),
        "--fractions", "0.5,1.0",
    )
    assert code == EXIT_OK
    sweep_csv = tmp_path / "sweep.csv"
    assert sweep_csv.exists()
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 fractions x 2 MGs
    for r in rows:
        assert r["oracle_time_avg_cost"] != ""
        assert float(r["a_over_v"]) > 0
    capsys.readouterr()
    code = run_cli("audit", str(tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "a_over_v monotone: PASS" in out


def test_sweep_fills_every_oracle_cell_of_the_reference_scenario(tmp_path, capsys):
    """The built-in 6-MG x 120-slot scenario is solved, not left blank."""
    assert run_cli("sweep", "--out", str(tmp_path), "--fractions", "1.0") == EXIT_OK
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mg_id"] for r in rows] == ["1", "2", "3", "4", "5", "6"]
    for r in rows:
        assert float(r["oracle_time_avg_cost"]) >= 0.0
    capsys.readouterr()
    assert run_cli("audit", str(tmp_path)) == EXIT_OK
    assert "gap within a_over_v: PASS" in capsys.readouterr().out


def test_sweep_solves_one_oracle_lp_per_initial_battery(tmp_path, monkeypatch):
    """V reaches the oracle LP only through b0, so equal b0s share one solve.

    The default sweep (6 MGs, 5 fractions) solves one min-cost flow per
    distinct (MG, b0), and writes the same sweep.csv as solving all 30.
    """
    from mgtrade import sim
    from mgtrade.model import compute_bounds, initial_battery

    base = default_scenario(mode=MODE_SOLO)
    b0s = set()
    for f in (0.2, 0.4, 0.6, 0.8, 1.0):
        for m in base.mgs:
            v = f * compute_v_max(m.params, base.price_bounds)
            params = dataclasses.replace(m.params, v_weight=v)
            db = compute_bounds(params, base.price_bounds)
            b0s.add((params.id, initial_battery(params, db, base.initial_battery_kwh)))
    assert len(b0s) < 30

    solves = []
    real_flow = sim.min_cost_flow
    monkeypatch.setattr(
        sim, "min_cost_flow", lambda *a: solves.append(1) or real_flow(*a)
    )
    assert run_cli("sweep", "--out", str(tmp_path / "shared")) == EXIT_OK
    assert len(solves) == len(b0s)

    real_oracle = sim.offline_oracle
    monkeypatch.setattr(sim, "offline_oracle", lambda cfg, inputs, _: real_oracle(cfg, inputs))
    assert run_cli("sweep", "--out", str(tmp_path / "each")) == EXIT_OK
    assert len(solves) == len(b0s) + 30
    shared, each = ((tmp_path / d / "sweep.csv").read_bytes() for d in ("shared", "each"))
    assert shared == each


def test_sweep_draws_its_inputs_once(tmp_path, monkeypatch):
    """V changes no draw: a 10-fraction sweep draws its inputs once, not twice
    per fraction, and writes the sweep.csv that drawing them 20 times did."""
    from mgtrade import sim

    draws = []

    def counted(draw):
        return lambda *a: draws.append(1) or draw(*a)

    monkeypatch.setattr(sim, "realized_inputs", counted(sim.realized_inputs))
    fractions = ",".join(f"{k / 10:.1f}" for k in range(1, 11))
    assert run_cli("sweep", "--fractions", fractions, "--out", str(tmp_path)) == EXIT_OK
    assert len(draws) <= 11
    # the sha256 the sweep had when every fraction drew its inputs twice
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == (
        "cf0176b0e31c7b0698411309c5826cf54288958d03b4175a36e2f8f63be0c4b2"
    )


def test_run_both_draws_its_inputs_once(tmp_path, monkeypatch):
    """The mode changes no draw: `run --mode both` builds its traces and draws its
    inputs once, after --seed and --horizon, and writes the slots.csv files that
    drawing them once per mode did."""
    from mgtrade import sim

    calls = []

    def counted(name):
        real = getattr(sim, name)
        return lambda *a: calls.append(name) or real(*a)

    for name in ("build_traces", "realized_inputs"):
        monkeypatch.setattr(sim, name, counted(name))
    argv = ("run", "--seed", "3", "--horizon", "48", "--out", str(tmp_path))
    assert run_cli(*argv) == EXIT_OK
    assert sorted(calls) == ["build_traces", "realized_inputs"]
    # the sha256 each had when every mode built its own traces and inputs
    assert {m: sha256(tmp_path / m / "slots.csv") for m in ("auction", "solo")} == {
        "auction": "ec82e70224b14d20c442261c59ac552f8d4e0f89fb84d5406deef3754055e342",
        "solo": "642d2e9ac96c4b30a4a3c3dcccb2ed9f6e80bcba22d244d7d787de6f7f69cf50",
    }


def test_run_both_writes_the_bytes_of_separate_runs(tmp_path):
    """Stepped together, the two modes write every byte that `--mode auction`
    and `--mode solo` write on their own."""
    common = ("--config", str(CONFIG_DIR / "sv_synthetic.json"), "--seed", "4", "--horizon", "40")
    assert run_cli("run", *common, "--out", str(tmp_path / "both")) == EXIT_OK
    for flag in ("auction", "solo"):
        alone = tmp_path / flag
        assert run_cli("run", *common, "--mode", flag, "--out", str(alone)) == EXIT_OK
        names = sorted(p.name for p in (alone / flag).iterdir())
        assert names == sorted(p.name for p in (tmp_path / "both" / flag).iterdir())
        assert len(names) == 5
        for name in names:
            assert (tmp_path / "both" / flag / name).read_bytes() == (
                alone / flag / name
            ).read_bytes(), f"{flag}/{name}"


def test_the_library_run_writes_the_bytes_of_the_command(tmp_path):
    """`mgtrade.run`'s records, written by `RunLogs`, and its summary, by
    `write_summary_csv`, are the bytes `mgtrade run --mode auction` writes for
    the same config: the library and the command are one path."""
    from mgtrade import run
    from mgtrade.logs import RunLogs, write_summary_csv
    from mgtrade.sim import build_traces

    path = CONFIG_DIR / "sv_synthetic.json"
    argv = ("run", "--config", str(path), "--mode", "auction", "--horizon", "30")
    assert run_cli(*argv, "--out", str(tmp_path / "cli")) == EXIT_OK
    cfg, traces_doc = load_config(path)
    cfg = dataclasses.replace(cfg, mode=MODE_AUCTION, horizon_slots=30)
    summary, records = run(cfg, build_traces(cfg, traces_doc))
    assert summary.total_traded_kwh > 0.0
    with RunLogs(tmp_path, cfg.ids) as logs:
        for rec in records:
            logs.write(rec)
    write_summary_csv(tmp_path / "summary.csv", summary)
    for name in ("slots.csv", "auction_audit.csv", "summary.csv"):
        want = (tmp_path / "cli" / "auction" / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, name


def test_a_run_holds_no_slot_records_over_its_horizon(tmp_path):
    """A run writes its logs as it steps, so the traced memory peak of a
    24-MG auction run at 480 slots is above the one at 60 slots by less than
    the records of the 420 slots between would take: 25 logged floats of 8
    bytes per MG and slot."""
    import tracemalloc

    doc = reference_doc()
    doc["mgs"] = [{**m, "id": k + 1} for k, m in enumerate(doc["mgs"] * 4)]
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(doc))

    def run(horizon: int) -> None:
        out = str(tmp_path / str(horizon))
        argv = ("run", "--config", str(path), "--mode", "auction", "--horizon", str(horizon))
        assert run_cli(*argv, "--out", out) == EXIT_OK

    run(2)  # the simulator's modules load before anything is traced
    peaks = []
    for horizon in (60, 480):
        tracemalloc.start()
        try:
            run(horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 24 * 25 * 8 * 420


def test_a_failed_run_keeps_the_files_it_would_replace(tmp_path, capsys, monkeypatch):
    """A run writes in a staging directory and moves its files into place only
    when it succeeds: one that fails in its last slot leaves the run directory
    as an earlier run wrote it, and no staging directory."""
    from mgtrade import sim
    from mgtrade.errors import RejectedAction

    common = ("--config", CONFIG, "--mode", "auction", "--horizon", "6", "--out", str(tmp_path))
    assert run_cli("run", *common, "--seed", "1") == EXIT_OK
    written = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    real_step = sim.battery_step

    def fail_last_slot(battery_kwh, action, fleet):
        if len(slots) == 5:
            raise RejectedAction("mg 1: charge_kwh -1.0 < 0", 0)
        slots.append(1)
        return real_step(battery_kwh, action, fleet)

    slots: list[int] = []
    monkeypatch.setattr(sim, "battery_step", fail_last_slot)
    assert run_cli("run", *common, "--seed", "2") == EXIT_INVARIANT
    assert "slot 5 mg 1: charge_kwh -1.0 < 0" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["auction"]


@pytest.mark.parametrize("flag", ["solo", "auction"])
def test_sweep_csv_equals_a_loop_of_single_runs(tmp_path, flag):
    """The sweep's fractions, stepped together, write the sweep.csv that
    simulating each fraction on its own gives."""
    from mgtrade import sim
    from mgtrade.logs import SweepRow, write_sweep_csv
    from mgtrade.model import compute_a_const

    fractions = (0.3, 0.65, 1.0)
    argv = ("--config", CONFIG, "--mode", flag, "--fractions", ",".join(map(str, fractions)))
    assert run_cli("sweep", *argv, "--out", str(tmp_path / "cli")) == EXIT_OK

    cfg, traces_doc = load_config(CONFIG)
    base = dataclasses.replace(cfg, mode={"solo": MODE_SOLO, "auction": MODE_AUCTION}[flag])
    inputs = sim.realized_inputs(base, sim.build_traces(base, traces_doc))
    rows = []
    for f in fractions:
        mgs = tuple(
            dataclasses.replace(m, params=dataclasses.replace(
                m.params, v_weight=f * compute_v_max(m.params, base.price_bounds)
            ))
            for m in base.mgs
        )
        one = dataclasses.replace(base, mgs=mgs)
        [summary] = sim.fold_runs([one], inputs)
        oracle = sim.offline_oracle(one, inputs)
        for m in one.mgs:
            p = m.params
            online = summary.per_mg[p.id].time_avg_cost
            rows.append(SweepRow(
                f, p.id, p.v_weight, online, oracle[p.id], online - oracle[p.id],
                compute_a_const(p) / p.v_weight,
            ))
    write_sweep_csv(tmp_path / "loop.csv", rows)
    assert (tmp_path / "cli" / "sweep.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_sweep_reports_invariant_violations(tmp_path, capsys, monkeypatch):
    """A bound broken in one fraction's run still writes sweep.csv, then exits 4."""
    from mgtrade import sim

    real_monitor = sim._monitor

    def one_violation(slot, *args):
        found = real_monitor(slot, *args)
        if slot == 5:
            found[1] += ("slot 5 mg 2: Q 1e9 > q_max 1.0",)
        return found

    monkeypatch.setattr(sim, "_monitor", one_violation)
    code = run_cli("sweep", "--config", CONFIG, "--fractions", "0.5,1.0", "--out", str(tmp_path))
    assert code == EXIT_INVARIANT
    assert (tmp_path / "sweep.csv").exists()
    err = capsys.readouterr().err
    assert "invariant violations recorded" in err
    assert "slot 5 mg 2: Q 1e9 > q_max 1.0" in err


def renumbered_config(tmp_path) -> str:
    """configs/sweep_small.json with its MGs renumbered 7 and 3, so that an MG's id
    is not its position."""
    doc = json.loads(Path(CONFIG).read_text())
    doc["mgs"][0]["id"], doc["mgs"][1]["id"] = 7, 3
    path = tmp_path / "renumbered.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "command, label",
    [
        (("run",), "solo run"),
        (("sweep", "--fractions", "0.5,1.0"), "fraction 1.0"),
    ],
)
def test_a_rejected_action_names_its_slot_run_and_mg(tmp_path, capsys, monkeypatch, command, label):
    """An infeasible action in the second run of a batched command names the slot,
    that run, and the real id of its MG; nothing of the command is written."""
    from mgtrade import sim

    real_program = sim.solve_slot_program
    calls = []

    def charge_below_zero(*args):
        action = real_program(*args)
        if len(calls) == 3:  # slot 3; the fleet is two runs of two MGs
            action.charge_kwh[3] = -1.0
        calls.append(1)
        return action

    monkeypatch.setattr(sim, "solve_slot_program", charge_below_zero)
    out = tmp_path / "out"
    code = run_cli(*command, "--config", renumbered_config(tmp_path), "--out", str(out))
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert f"slot 3 ({label}) mg 3: charge_kwh -1.0 < 0" in err
    assert not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize(
    "command, calls, label",
    [
        (("run",), 3, "auction run"),
        (("sweep", "--mode", "auction", "--fractions", "0.5,1.0"), 7, "fraction 1.0"),
    ],
)
def test_a_failed_clearing_names_its_slot_and_run(tmp_path, capsys, monkeypatch, command, calls, label):
    """`clear` failing in one auction run names the slot and that run."""
    from mgtrade import sim
    from mgtrade.errors import MarketError

    real_clear = sim.clear
    seen = []

    def fail_once(book, price):
        seen.append(1)
        if len(seen) == calls + 1:
            raise MarketError("no book today")
        return real_clear(book, price)

    monkeypatch.setattr(sim, "clear", fail_once)
    code = run_cli(*command, "--config", CONFIG, "--out", str(tmp_path))
    assert code == EXIT_INVARIANT
    assert f"slot 3 ({label}): market stage failed: no book today" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [("run", "--mode", "solo"), ("sweep", "--mode", "solo", "--fractions", "0.5,1.0")],
    ids=["run", "sweep"],
)
def test_solo_runs_post_no_book(tmp_path, monkeypatch, command):
    """A solo run trades nothing, so no slot of it builds an order book."""
    from mgtrade.auction import OrderBook

    books, from_bids = [], OrderBook.from_bids

    def counted(*args):
        books.append(args)
        return from_bids(*args)

    monkeypatch.setattr(OrderBook, "from_bids", counted)
    assert run_cli(*command, "--config", CONFIG, "--horizon", "12", "--out", str(tmp_path)) == 0
    assert books == []
    assert run_cli("audit", str(tmp_path)) == 0


def test_sweep_fails_on_an_infeasible_oracle(tmp_path, capsys):
    """Serving 10 kWh a slot cannot clear the backlog by the horizon: exit 4."""
    doc = {
        "horizon_slots": 4,
        "mgs": [
            {"id": 1, "battery_capacity_kwh": 300.0, "charge_rate_max_kwh": 150.0,
             "discharge_rate_max_kwh": 150.0, "serve_rate_max_kwh": 10.0,
             "load_low_kwh": 10.0, "load_high_kwh": 20.0, "renewable_mean_kwh": 5.0},
        ],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli(
        "sweep", "--config", str(config), "--out", str(tmp_path / "out"),
        "--fractions", "1.0",
    )
    assert code == EXIT_INVARIANT
    assert "oracle LP failed for mg 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_rejects_bad_fraction(tmp_path):
    for bad in ("1.5", "abc"):
        code = run_cli(
            "sweep", "--config", CONFIG, "--out", str(tmp_path), "--fractions", bad
        )
        assert code == EXIT_DATA


def test_sweep_rejects_mode_both(tmp_path):
    """A sweep runs one mode; `both` is a `run` option only."""
    code = run_cli("sweep", "--config", CONFIG, "--out", str(tmp_path), "--mode", "both")
    assert code == EXIT_USAGE


def test_sweep_config_records_the_overrides(tmp_path):
    code = run_cli(
        "sweep", "--config", CONFIG, "--out", str(tmp_path), "--fractions", "1.0",
        "--horizon", "10", "--seed", "5", "--mode", "auction",
    )
    assert code == EXIT_OK
    cfg, _ = config_from_dict(json.loads((tmp_path / "config.json").read_text()))
    assert (cfg.horizon_slots, cfg.seed, cfg.mode) == (10, 5, MODE_AUCTION)
    assert [m.load_model.rng_seed for m in cfg.mgs] == [mg_subseed(5, 0), mg_subseed(5, 1)]


@pytest.mark.parametrize(
    "cells, code, message",
    [
        ({"online_time_avg_cost": "999999.000000", "gap": "999999.000000"},
         EXIT_INVARIANT, "above a_over_v"),
        ({"gap": "0.000000"}, EXIT_INVARIANT, "!= online - oracle"),
    ],
    ids=["above-bound", "gap-differs"],
)
def test_sweep_audit_checks_the_gap(tmp_path, capsys, cells, code, message):
    assert run_cli(
        "sweep", "--config", CONFIG, "--out", str(tmp_path), "--fractions", "0.5,1.0"
    ) == EXIT_OK
    sweep_csv = tmp_path / "sweep.csv"
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    for column, value in cells.items():
        rows[1][rows[0].index(column)] = value
    got, out = audit_rewritten(sweep_csv, rows, capsys)
    assert got == code
    assert message in out
    assert "a_over_v monotone: PASS" in out


def rescale(rows, column: str, by: float) -> None:
    k = rows[0].index(column)
    rows[1][k] = f"{float(rows[1][k]) * by:.6f}"


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda rows: set_cell(rows[1], rows[0].index("v_weight"), "1.000000"),
         "sweep.csv line 2: fraction 0.500000 mg 1: v_weight 1.0 is not the fraction of v_max"),
        (lambda rows: rescale(rows, "a_over_v", 10.0),
         "sweep.csv line 2: fraction 0.500000 mg 1: a_over_v"),
        (lambda rows: rows.insert(1, rows.pop(2)),
         "sweep.csv line 2: fraction 0.500000 mg 2, where the sweep writes fraction 0.500000 mg 1"),
        (lambda rows: rows.pop(2),
         "sweep.csv line 3: fraction 1.000000 mg 1, where the sweep writes fraction 0.500000 mg 2"),
    ],
    ids=["v-weight", "a-over-v", "mgs-swapped", "row-deleted"],
)
def test_sweep_audit_checks_the_config(tmp_path, capsys, tamper, message):
    """Each fraction of sweep.csv holds one row per MG of config.json, in its
    order, whose v_weight is the fraction of v_max and a_over_v is A / V."""
    assert run_cli(
        "sweep", "--config", CONFIG, "--out", str(tmp_path), "--fractions", "0.5,1.0"
    ) == EXIT_OK
    sweep_csv = tmp_path / "sweep.csv"
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    tamper(rows)
    code, out = audit_rewritten(sweep_csv, rows, capsys)
    assert code == EXIT_INVARIANT
    assert f"rows follow config.json: FAIL\n  {message}" in out
    assert out.count("\n  sweep.csv") == 1


def test_sweep_audit_needs_the_config(tmp_path, capsys):
    assert run_cli(
        "sweep", "--config", CONFIG, "--out", str(tmp_path), "--fractions", "1.0"
    ) == EXIT_OK
    (tmp_path / "config.json").unlink()
    capsys.readouterr()
    assert run_cli("audit", str(tmp_path)) == EXIT_INVARIANT
    assert "missing config.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("online_time_avg_cost", "abc", "column 'online_time_avg_cost': 'abc'"),
        ("gap", "", "column 'gap': ''"),
        ("oracle_time_avg_cost", "", "column 'oracle_time_avg_cost': ''"),
        ("a_over_v", "inf", "column 'a_over_v': 'inf'"),
        ("mg_id", "2.5", "column 'mg_id': '2.5' is not a whole number"),
    ],
    ids=["non-numeric", "blank-gap", "blank-oracle", "inf", "fractional-mg-id"],
)
def test_sweep_audit_rejects_unparseable_cells(tmp_path, capsys, column, cell, message):
    assert run_cli(
        "sweep", "--config", CONFIG, "--out", str(tmp_path), "--fractions", "0.5,1.0"
    ) == EXIT_OK
    sweep_csv = tmp_path / "sweep.csv"
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][rows[0].index(column)] = cell
    with open(sweep_csv, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert run_cli("audit", str(tmp_path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{sweep_csv}: line 3, {message}" in err


def test_sweep_audit_lists_mgs_in_numeric_order(tmp_path, capsys):
    """A 12-MG sweep's table runs MG 1, 2, ..., 12, not 1, 10, 11, 12, 2, ..."""
    doc = json.loads(Path(CONFIG).read_text())
    doc["horizon_slots"] = 12
    doc["mgs"] = [{**doc["mgs"][k % 2], "id": k + 1} for k in range(12)]
    config = tmp_path / "twelve.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    assert run_cli(
        "sweep", "--config", str(config), "--fractions", "1.0,0.5", "--out", str(out)
    ) == EXIT_OK
    capsys.readouterr()
    assert run_cli("audit", str(out)) == EXIT_OK
    table = capsys.readouterr().out.splitlines()[1:25]
    assert [line.split()[:2] for line in table] == [
        [fraction, str(mid)] for mid in range(1, 13) for fraction in ("0.500", "1.000")
    ]


@pytest.mark.parametrize(
    "log", ["slots.csv", "summary.csv", "auction_audit.csv", "sweep.csv"]
)
def test_audit_rejects_a_changed_header(tmp_path, capsys, log):
    """Every log is read under one header rule: a header that is not the one
    written is a data error naming the file."""
    if log == "sweep.csv":
        run_dir = tmp_path
        assert run_cli(
            "sweep", "--config", CONFIG, "--out", str(run_dir), "--fractions", "1.0"
        ) == EXIT_OK
    else:
        run_dir = tmp_path / "auction"
        assert run_cli(
            "run", "--out", str(tmp_path), "--mode", "auction", "--horizon", "8"
        ) == EXIT_OK
    path = run_dir / log
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[0][rows[0].index("mg_id")] = "mg"
    write_unquoted(path, rows)
    capsys.readouterr()
    assert run_cli("audit", str(run_dir)) == EXIT_DATA
    assert f"error: {path}: unexpected header" in capsys.readouterr().err


def test_audit_loads_neither_numpy_nor_scipy(tmp_path):
    """Auditing a run and a sweep needs no random draws and no LP."""
    run_dir, sweep_dir = str(tmp_path / "run"), str(tmp_path / "sweep")
    assert run_cli("run", "--horizon", "4", "--out", run_dir) == EXIT_OK
    assert run_cli(
        "sweep", "--config", CONFIG, "--fractions", "1.0", "--out", sweep_dir
    ) == EXIT_OK
    script = f"""
import sys
import mgtrade.cli as cli
assert cli.main(["audit", {run_dir!r}]) == 0
assert cli.main(["audit", {sweep_dir!r}]) == 0
loaded = {{"numpy", "scipy"}} & set(sys.modules)
assert not loaded, f"audit loaded {{sorted(loaded)}}"
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def src_env() -> dict[str, str]:
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


def test_no_command_loads_scipy(tmp_path):
    """Runs, audits and sweeps never import scipy; the sweep's oracle still runs."""
    script = f"""
import csv, sys
from mgtrade import run
import mgtrade.cli as cli
import mgtrade.sim as sim
assert cli.main(["run", "--horizon", "4", "--out", {str(tmp_path / "run")!r}]) == 0
assert cli.main(["audit", {str(tmp_path / "run")!r}]) == 0
assert run is sim.run
sweep = {str(tmp_path / "sweep")!r}
assert cli.main(["sweep", "--config", {CONFIG!r}, "--fractions", "0.5,1.0", "--out", sweep]) == 0
assert cli.main(["audit", sweep]) == 0
assert "scipy" not in sys.modules, "a command loaded scipy"
with open(sweep + "/sweep.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
assert len(rows) == 4 and all(float(r["oracle_time_avg_cost"]) >= 0.0 for r in rows)
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_audit_loads_only_the_log_layer(tmp_path):
    """`import mgtrade` loads no submodule, and auditing a run and a sweep loads
    none of the simulator's modules; `from mgtrade import run` is still `sim.run`."""
    run_dir, sweep_dir = str(tmp_path / "run"), str(tmp_path / "sweep")
    assert run_cli("run", "--horizon", "4", "--out", run_dir) == EXIT_OK
    assert run_cli(
        "sweep", "--config", CONFIG, "--fractions", "1.0", "--out", sweep_dir
    ) == EXIT_OK
    script = f"""
import sys
import mgtrade
submodules = sorted(m for m in sys.modules if m.startswith("mgtrade."))
assert not submodules, f"import mgtrade loaded {{submodules}}"
import mgtrade.cli as cli
assert cli.main(["audit", {run_dir!r}]) == 0
assert cli.main(["audit", {sweep_dir!r}]) == 0
unused = {{"mgtrade.sim", "mgtrade.auction", "mgtrade.controller", "mgtrade.flow",
          "mgtrade.ingest", "numpy", "scipy"}}
loaded = sorted(unused & set(sys.modules))
assert not loaded, f"audit loaded {{loaded}}"
from mgtrade import run
import mgtrade.sim
assert run is mgtrade.sim.run
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_probes_run_on_this_checkout(tmp_path):
    """The benchmark's set-up and simulation probes start from this checkout's
    `src` and find every name they import, the lazy ones included."""
    root = Path(__file__).resolve().parent.parent
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"reference_seed": 7, "configs": [CONFIG]}))
    probe = [sys.executable, str(root / "mgbench" / "probe.py")]
    setup = subprocess.run(
        [*probe, "setup", str(spec)], cwd=root, env=src_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert setup.returncode == 0, setup.stderr
    module_file = Path(json.loads(setup.stdout.splitlines()[-1])["module_file"])
    assert module_file.resolve().is_relative_to(root / "src")
    served = subprocess.run(
        [*probe, "sim", str(spec)], cwd=root, env=src_env(), input="go\n",
        capture_output=True, text=True, timeout=120,
    )
    assert served.returncode == 0, served.stderr
    ready, reply = map(json.loads, served.stdout.splitlines())

    from mgtrade import run
    from mgtrade.cli import default_scenario, load_config, materialize_traces
    from mgtrade.sim import MODE_AUCTION, MODE_SOLO

    cfg, traces_doc = load_config(CONFIG)
    assert ready["mg_slots"] == 2 * 6 * 120 + len(cfg.mgs) * cfg.horizon_slots
    assert reply["violations"] == 0
    assert run(cfg, materialize_traces(cfg, traces_doc))[0].violation_count == 0
    assert default_scenario(mode=MODE_SOLO).mode == MODE_SOLO != MODE_AUCTION


def test_benchmark_tracer_finds_every_traced_layer(tmp_path):
    """The traced benchmark session patches this checkout's layers where the slot
    step calls them: only the names the program no longer has are absent, and a
    short run goes through every patched layer of the step."""
    root = Path(__file__).resolve().parent.parent
    script = f"""
import json, sys
sys.path.insert(0, {str(root / "mgbench")!r})
from probe import Tracer
tracer = Tracer()
missing = tracer.install()
from mgtrade import run
from mgtrade.cli import default_scenario
run(default_scenario(seed=2, horizon=6))
print(json.dumps({{"missing": missing, "layers": sorted(tracer.layer_stats())}}))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=src_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout.splitlines()[-1])
    assert traced["missing"] == [
        "mgtrade.cli.build_traces", "mgtrade.cli.realized_inputs", "mgtrade.sim.draw_loads",
        "mgtrade.sim.audit_rows", "mgtrade.sim.fifo_serve", "mgtrade.model.fifo_serve",
        "mgtrade.sim.summarize", "mgtrade.cli.write_slots_csv", "mgtrade.cli.write_audit_csv",
        "mgtrade.cli.offline_oracle",
    ]
    assert traced["layers"] == [
        "auction.budget_check", "auction.clear", "cli.config", "controller.make_bids",
        "controller.solve_slot_program", "ingest.build_traces", "model.queue_step",
        "sim.monitor", "sim.realized_inputs", "sim.step",
    ]


def test_readme_library_example_runs():
    """The README's Library code block runs, as written, from the repository root."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    example = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    done = subprocess.run(
        [sys.executable, "-c", example], cwd=root, env=src_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------- round trips


def test_emitted_config_reproduces_the_run(tmp_path):
    run_cli(
        "run", "--out", str(tmp_path), "--mode", "auction",
        "--horizon", "12", "--seed", "8",
    )
    emitted = tmp_path / "auction" / "config.json"
    cfg, _ = config_from_dict(json.loads(emitted.read_text()))
    assert cfg.mode == MODE_AUCTION
    assert cfg.horizon_slots == 12
    assert cfg.seed == 8
    rerun = tmp_path / "rerun"
    code = run_cli("run", "--config", str(emitted), "--out", str(rerun), "--mode", "auction")
    assert code == EXIT_OK
    assert (
        (rerun / "auction" / "slots.csv").read_bytes()
        == (tmp_path / "auction" / "slots.csv").read_bytes()
    )


def test_emitted_config_reruns_relative_trace_paths_from_anywhere(tmp_path, monkeypatch):
    """Trace paths relative to the working directory are recorded absolute, so
    a run directory (and a sweep directory) reruns from another directory."""
    inputs, elsewhere = tmp_path / "inputs", tmp_path / "elsewhere"
    inputs.mkdir()
    elsewhere.mkdir()
    for name, value in (("p.csv", lambda t: 3.0 + t), ("w.csv", lambda t: 50.0 + 9 * t)):
        rows = "".join(f"{t},{value(t)}\n" for t in range(12))
        (inputs / name).write_text("slot,value\n" + rows)
    doc = {**reference_doc(), "horizon_slots": 12, "price_trace": "p.csv",
           "renewable_traces": [None, "w.csv", None, None, None, None]}
    (inputs / "files.json").write_text(json.dumps(doc))
    monkeypatch.chdir(inputs)
    first = tmp_path / "first"
    argv = ("--config", "files.json", "--mode", "auction")
    assert run_cli("run", *argv, "--out", str(first)) == EXIT_OK
    sweep = ("sweep", *argv, "--out", str(tmp_path / "sweep"), "--fractions", "1.0")
    assert run_cli(*sweep) == EXIT_OK
    for emitted in (first / "auction" / "config.json", tmp_path / "sweep" / "config.json"):
        recorded = json.loads(emitted.read_text())
        assert recorded["price_trace"] == str(inputs / "p.csv")
        wind = str(inputs / "w.csv")
        assert recorded["renewable_traces"] == [None, wind, None, None, None, None]
    monkeypatch.chdir(elsewhere)
    rerun = tmp_path / "rerun"
    assert run_cli(
        "run", "--config", str(first / "auction" / "config.json"), "--out", str(rerun),
        "--mode", "auction",
    ) == EXIT_OK
    assert (rerun / "auction" / "slots.csv").read_bytes() == (
        first / "auction" / "slots.csv"
    ).read_bytes()


# ---------------------------------------------------------------- golden bytes

# sha256 of every file the built-in reference run writes (seed 7, 120 slots,
# both modes). Any change to a simulated number or to an output format changes
# them; re-pin them only in a change that means to alter the output.
GOLDEN_SHA256 = {
    "auction/slots.csv": "c351b45ad6e1d71e8977c972d857f6423219e7d4f6dced7b2601b54b6cdd1df8",
    "auction/summary.csv": "a61699fc069e90d23f992b3d96eaf93b4241175937e00fee430aadb72c27e2d1",
    "auction/auction_audit.csv": "49a89cc732ebe9f5719ab9e7e2d2024067b9425415d3cb8205649866ebfffdb3",
    "solo/slots.csv": "bec38e04b2bff11740213bfcfc69a5fe14b92dbbc5a1eb152abbaf19a89232ee",
    "solo/summary.csv": "3dd0866e2983317576da3c25e150ca692912253a94d9fb099adc51bb7eac53c2",
    "solo/auction_audit.csv": "32040dabdac14923500d990254bd0311743c50ac019d7c74cbe81232a3cd2cb7",
    "auction/audit.txt": "5f28aa63d2f63719938f36b94ef141affbf69d4b460c43d0f8530c806d60025b",
    "auction/config.json": "a0b3599cc0dd2443b7d88ef9dbcd72c1a8234f320080e3dbef859f2fc2d3aa5c",
    "solo/audit.txt": "c1b64353c7a804be6f96f7cb483acd2e7becada3ffaea183c72e993cab13b644",
    "solo/config.json": "1520e0dcc5acfef52ababaa62fd58a1bc7c78c9e7cc732ceed94a24830b1eb95",
    "comparison.txt": "9ba558b6c7b9e3d5f375a49052e2dc77cbe6495d28658811c8bfbd807ec20b5a",
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def trace_files_config(tmp_path) -> Path:
    """A 24-slot reference config naming a price file and renewable files for MGs 1
    and 4, null for the rest. The prices run from 1.0 to 18.25, past both ends of
    the [2, 16] band they are clipped into."""
    prices, wind_1, wind_4 = (tmp_path / n for n in ("prices.csv", "wind1.csv", "wind4.csv"))
    for path, value in (
        (prices, lambda t: 1.0 + 0.75 * t),
        (wind_1, lambda t: 50.0 + 30.0 * (t % 5)),
        (wind_4, lambda t: 400.0 - 12.5 * t),
    ):
        path.write_text("slot,value\n" + "".join(f"{t},{value(t)}\n" for t in range(24)))
    doc = reference_doc()
    doc["horizon_slots"] = 24
    doc["price_trace"] = str(prices)
    doc["renewable_traces"] = [str(wind_1), None, None, str(wind_4), None, None]
    path = tmp_path / "files.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_reads_trace_files(tmp_path):
    """File traces, clipped or scaled, beside synthetic ones for the MGs with none."""
    config = trace_files_config(tmp_path)
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == EXIT_OK
    # the sha256 each had when every synthetic trace was drawn, then replaced by a file's
    assert {m: sha256(tmp_path / "out" / m / "slots.csv") for m in ("auction", "solo")} == {
        "auction": "d0d560cd20697d44500bb7bd155085f207c2c5578b3131e816e3f770315a167f",
        "solo": "9d3166e84f5564257732cd47d87aa3de1a078c689873425e4456e55269d45371",
    }


def test_reference_run_matches_golden_bytes(tmp_path):
    assert run_cli("run", "--out", str(tmp_path)) == EXIT_OK
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert got == GOLDEN_SHA256
