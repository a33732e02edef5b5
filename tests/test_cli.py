"""End-to-end command behavior: artifacts, exit codes, audits, sweeps."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
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
from mgtrade.model import compute_v_max
from mgtrade.sim import MODE_AUCTION, MODE_SOLO, mg_subseed

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


@pytest.mark.parametrize(
    "tamper, message",
    [
        (
            lambda rows: [r for r in rows if r[1] != "3"],
            "mg 3: logged slots are not 0..23: 24 missing, 0 repeated",
        ),
        (
            lambda rows: [r for r in rows if r[0] != "23"],
            "mg 5: logged slots are not 0..23: 1 missing, 0 repeated",
        ),
        (
            lambda rows: rows[:40] + [rows[39]] + rows[40:],
            "logged slots are not 0..23: 0 missing, 1 repeated",
        ),
    ],
    ids=["mg-deleted", "slot-deleted", "row-duplicated"],
)
def test_audit_catches_incomplete_log(tmp_path, capsys, tamper, message):
    slots, rows = solo_log(tmp_path)
    code, out = audit_rewritten(slots, rows[:1] + tamper(rows[1:]), capsys)
    assert code == EXIT_INVARIANT
    assert message in out


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


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda lines: [set_cell(r, 6, "99.000000") for r in lines[1:]],
         "from slots.csv"),
        (lambda lines: set_cell(winner(lines), 5, "0"), "from slots.csv"),
        (lambda lines: set_cell(winner(lines), 7, "0.000000"), "from slots.csv"),
        (lambda lines: set_cell(lines[1], 3, "7.000000"), "from slots.csv"),
        (lambda lines: lines.remove(winner(lines)), "no audit line for its"),
        (lambda lines: lines.append(lines[-1]), "or listed twice"),
        (lambda lines: set_cell(lines[1], 2, {"buy": "sell", "sell": "buy"}[lines[1][2]]),
         "no audit line for its"),
        (swap_first_tie, "out of book order"),
    ],
    ids=[
        "cleared-price", "accepted", "cleared-quantity", "price", "line-deleted",
        "line-repeated", "side", "book-order",
    ],
)
def test_audit_checks_the_auction_audit(tmp_path, capsys, tamper, message):
    """auction_audit.csv must list the logged bids and fills of slots.csv."""
    run_cli(
        "run", "--out", str(tmp_path), "--mode", "auction",
        "--horizon", "48", "--seed", "3",
    )
    run_dir = tmp_path / "auction"
    lines = audit_lines_of(run_dir)
    tamper(lines)
    with open(run_dir / "auction_audit.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(lines)
    capsys.readouterr()
    code = run_cli("audit", str(run_dir))
    out = capsys.readouterr().out
    assert code == EXIT_INVARIANT
    assert message in out


@pytest.mark.parametrize(
    "cell, message",
    [("abc", "line 4, column 'price': 'abc' is not a finite number"), (None, "line 4: 7 cells")],
    ids=["non-numeric", "short-line"],
)
def test_audit_rejects_an_unparseable_auction_audit(tmp_path, capsys, cell, message):
    run_cli("run", "--out", str(tmp_path), "--mode", "auction", "--horizon", "8")
    run_dir = tmp_path / "auction"
    lines = audit_lines_of(run_dir)
    if cell is None:
        lines[3].pop()
    else:
        lines[3][3] = cell
    with open(run_dir / "auction_audit.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(lines)
    capsys.readouterr()
    assert run_cli("audit", str(run_dir)) == EXIT_DATA
    assert f"auction_audit.csv: {message}" in capsys.readouterr().err


def test_audit_needs_the_auction_audit(tmp_path, capsys):
    run_cli("run", "--out", str(tmp_path), "--mode", "solo", "--horizon", "8")
    (tmp_path / "solo" / "auction_audit.csv").unlink()
    assert run_cli("audit", str(tmp_path / "solo")) == EXIT_INVARIANT
    assert "missing log" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cell, message",
    [
        ("xyz", "column 'battery_kwh': 'xyz' is not a finite number"),
        ("nan", "column 'battery_kwh': 'nan' is not a finite number"),
        (None, "line 8: 28 cells, header has 29"),
    ],
    ids=["non-numeric", "nan", "short-row"],
)
def test_audit_rejects_unparseable_slots_log(tmp_path, capsys, cell, message):
    """A cell that is no finite number is a data error naming file, line, column."""
    slots, rows = solo_log(tmp_path)
    if cell is None:
        rows[7].pop()
    else:
        rows[7][rows[0].index("battery_kwh")] = cell
    with open(slots, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert run_cli("audit", str(slots.parent)) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{slots}: line 8" in err
    assert message in err


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
    from mgtrade import cli, sim
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

    real_oracle = cli.offline_oracle
    monkeypatch.setattr(cli, "offline_oracle", lambda cfg, inputs, _: real_oracle(cfg, inputs))
    assert run_cli("sweep", "--out", str(tmp_path / "each")) == EXIT_OK
    assert len(solves) == len(b0s) + 30
    shared, each = ((tmp_path / d / "sweep.csv").read_bytes() for d in ("shared", "each"))
    assert shared == each


def test_sweep_draws_its_inputs_once(tmp_path, monkeypatch):
    """V changes no draw: a 10-fraction sweep draws its inputs once, not twice
    per fraction, and writes the sweep.csv that drawing them 20 times did."""
    from mgtrade import cli, sim

    draws = []

    def counted(draw):
        return lambda *a: draws.append(1) or draw(*a)

    monkeypatch.setattr(cli, "realized_inputs", counted(cli.realized_inputs))
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
    from mgtrade import cli, sim

    calls = []

    def counted(name):
        real = getattr(sim, name)
        return lambda *a: calls.append(name) or real(*a)

    for name in ("build_traces", "realized_inputs"):
        monkeypatch.setattr(cli, name, counted(name))
        monkeypatch.setattr(sim, name, counted(name))
    argv = ("run", "--seed", "3", "--horizon", "48", "--out", str(tmp_path))
    assert run_cli(*argv) == EXIT_OK
    assert sorted(calls) == ["build_traces", "realized_inputs"]
    # the sha256 each had when every mode built its own traces and inputs
    assert {m: sha256(tmp_path / m / "slots.csv") for m in ("auction", "solo")} == {
        "auction": "ec82e70224b14d20c442261c59ac552f8d4e0f89fb84d5406deef3754055e342",
        "solo": "642d2e9ac96c4b30a4a3c3dcccb2ed9f6e80bcba22d244d7d787de6f7f69cf50",
    }


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


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("online_time_avg_cost", "abc", "column 'online_time_avg_cost': 'abc'"),
        ("gap", "", "column 'gap': ''"),
        ("oracle_time_avg_cost", "", "column 'oracle_time_avg_cost': ''"),
        ("a_over_v", "inf", "column 'a_over_v': 'inf'"),
    ],
    ids=["non-numeric", "blank-gap", "blank-oracle", "inf"],
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


# ---------------------------------------------------------------- golden bytes

# sha256 of the built-in reference run (seed 7, 120 slots, both modes). Any
# change to a simulated number or to the log format changes them; re-pin them
# only in a change that means to alter the output.
GOLDEN_SHA256 = {
    "auction/slots.csv": "c351b45ad6e1d71e8977c972d857f6423219e7d4f6dced7b2601b54b6cdd1df8",
    "auction/summary.csv": "a61699fc069e90d23f992b3d96eaf93b4241175937e00fee430aadb72c27e2d1",
    "auction/auction_audit.csv": "49a89cc732ebe9f5719ab9e7e2d2024067b9425415d3cb8205649866ebfffdb3",
    "solo/slots.csv": "bec38e04b2bff11740213bfcfc69a5fe14b92dbbc5a1eb152abbaf19a89232ee",
    "solo/summary.csv": "3dd0866e2983317576da3c25e150ca692912253a94d9fb099adc51bb7eac53c2",
    "solo/auction_audit.csv": "32040dabdac14923500d990254bd0311743c50ac019d7c74cbe81232a3cd2cb7",
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
