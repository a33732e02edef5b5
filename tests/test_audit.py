"""The columnar log audit against the row-dict audit it replaced.

`tests/oracles.py` keeps the row-dict `read_slots_csv`, `verify_log_rows`
and `verify_audit_csv`, which sort the rows of slots.csv by MG and slot and
walk auction_audit.csv line by line. On clean logs both report nothing. The
audit accepts only the layout `mgtrade run` writes, and compares
auction_audit.csv with its rendering from slots.csv, so on edited logs it
catches every edit the reference catches, and some that the reference
sorts back into place.
"""

import dataclasses
import functools
import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtrade.cli import EXIT_INVARIANT, _emit_run, config_from_dict, default_scenario, main
from mgtrade.errors import ParseError, SimError
from mgtrade import logs
from mgtrade.logs import (
    _ROW_FLOATS,
    _SIDE_FIELDS,
    SLOTS_HEADER,
    MGSummary,
    RunLogs,
    RunSummary,
    bound_audit,
    read_slots_csv,
    read_summary_csv,
    verify_audit_csv,
    verify_audit_txt,
    verify_layout,
    verify_log_rows,
    verify_summary_csv,
    write_summary_csv,
)
from mgtrade.model import FEAS_TOL, MODE_AUCTION, MODE_SOLO, SlotInputs
from mgtrade.sim import build_traces, fold_runs, realized_inputs, run

from oracles import (
    reference_read_slots_csv,
    reference_verify_audit_csv,
    reference_verify_log_rows,
)


def fleet_doc(n_mgs: int, mode: str, horizon: int, seed: int) -> dict:
    """n_mgs reference-battery MGs, half type1 and half type2 in seeded order."""
    rng = random.Random(f"audit:{n_mgs}:{seed}")
    types = ["type1"] * (n_mgs // 2) + ["type2"] * (n_mgs - n_mgs // 2)
    rng.shuffle(types)
    return {
        "seed": seed, "horizon_slots": horizon, "mode": mode,
        "mgs": [
            {"id": k + 1, "mg_type": t, "battery_capacity_kwh": 3000.0,
             "charge_rate_max_kwh": 1500.0, "discharge_rate_max_kwh": 1500.0,
             "serve_rate_max_kwh": 1500.0, "price_floor": 1.0, "v_fraction": 1.0}
            for k, t in enumerate(types)
        ],
    }


def fleet_config(n_mgs: int, mode: str, horizon: int, seed: int):
    return config_from_dict(fleet_doc(n_mgs, mode, horizon, seed))[0]


SCENARIOS = {
    "reference-auction": lambda: default_scenario(mode=MODE_AUCTION),
    "reference-solo": lambda: default_scenario(mode=MODE_SOLO),
    "24-mg-solo": lambda: fleet_config(24, MODE_SOLO, 120, seed=24),
    "96-mg-auction": lambda: fleet_config(96, MODE_AUCTION, 120, seed=96),
    "small-auction": lambda: default_scenario(seed=4, mode=MODE_AUCTION, horizon=24),
    "small-solo": lambda: default_scenario(seed=4, mode=MODE_SOLO, horizon=24),
}


@functools.cache
def written(name: str):
    """The config of a scenario and the text of the logs its run writes."""
    config = SCENARIOS[name]()
    inputs = realized_inputs(config, build_traces(config))
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        with RunLogs(run_dir, config.ids) as run_logs:
            [summary] = fold_runs([config], inputs, sinks=[run_logs.write])
        write_summary_csv(run_dir / "summary.csv", summary)
        return config, {p.name: p.read_bytes().decode() for p in run_dir.iterdir()}


def write_logs(run_dir, texts) -> None:
    for file, text in texts.items():
        (run_dir / file).write_bytes(text.encode())


def outcome(audit):
    """The problems `audit()` reports, or the type and text of what it raises."""
    try:
        return audit()
    except (ParseError, SimError) as e:
        return (type(e).__name__, str(e))


def both_audits(config, run_dir):
    """The columnar and the reference outcome of auditing slots.csv and auction_audit.csv."""

    def columnar():  # as `mgtrade audit` checks them
        log = read_slots_csv(run_dir / "slots.csv")
        return verify_layout(config, log) or (
            verify_log_rows(config, log)
            + verify_audit_csv(run_dir / "auction_audit.csv", config, log)
        )

    def reference():
        rows = reference_read_slots_csv(run_dir / "slots.csv")
        return (
            reference_verify_log_rows(config, rows)
            + reference_verify_audit_csv(run_dir / "auction_audit.csv", rows)
        )

    return outcome(columnar), outcome(reference)


@pytest.mark.parametrize(
    "name", ["reference-auction", "reference-solo", "24-mg-solo", "96-mg-auction"]
)
def test_clean_logs_pass_both_audits(tmp_path, name):
    config, texts = written(name)
    write_logs(tmp_path, texts)
    assert both_audits(config, tmp_path) == ([], [])
    log = read_slots_csv(tmp_path / "slots.csv")
    assert len(log) == len(config.mgs) * config.horizon_slots
    assert verify_summary_csv(read_summary_csv(tmp_path / "summary.csv"), config, log) == []


def test_an_auction_log_fails_a_no_auction_config_in_both_audits(tmp_path):
    """A no_auction run posts no book, so its market cells, fills and unit
    prices are all 0: an auction run's logs, read as a solo run's, fail each
    slot that traded, in the audit and in the reference alike."""
    config, texts = written("small-auction")
    write_logs(tmp_path, texts)
    solo = dataclasses.replace(config, mode=MODE_SOLO)
    found = verify_log_rows(solo, read_slots_csv(tmp_path / "slots.csv"))
    traded = sorted({int(line.split(",")[0]) for line in texts["auction_audit.csv"].split("\r\n")[1:]
                     if line.split(",")[5:6] == ["1"]})
    assert traded and found == [f"slot {t}: market_buy_price is not 0 in a no_auction run" for t in traded]
    assert found == reference_verify_log_rows(solo, reference_read_slots_csv(tmp_path / "slots.csv"))
    assert verify_log_rows(config, read_slots_csv(tmp_path / "slots.csv")) == []


@st.composite
def summaries_at_their_bounds(draw):
    """A config of 1-4 MGs whose battery capacities and V have more than 6
    decimals, and a summary of theirs whose extremes lie at, or within 1e-6
    of, their bounds: q_max, z_max, 0 and the capacity."""
    doc = fleet_doc(draw(st.integers(1, 4)), MODE_AUCTION, 12, seed=draw(st.integers(0, 9)))
    for mg in doc["mgs"]:
        capacity = draw(st.integers(7000, 40000)) / draw(st.sampled_from([3, 7, 11]))
        mg.update(battery_capacity_kwh=capacity, charge_rate_max_kwh=0.45 * capacity,
                  discharge_rate_max_kwh=0.45 * capacity, v_fraction=draw(st.floats(0.05, 1.0)))
    config = config_from_dict(doc)[0]
    near = st.sampled_from([0.0, 1e-6, -1e-6, 5e-7, -5e-7]) | st.floats(-1e-6, 1e-6)
    per_mg = {
        m.params.id: MGSummary(
            m.params.id, 1.0, 12.0, 0.0, 0.0, 0.0, 0.0, db.q_max + draw(near),
            db.z_max + draw(near), draw(near), m.params.battery_capacity_kwh + draw(near),
            draw(st.integers(0, 20)),
        )
        for m, db in zip(config.mgs, config.bounds())
    }
    return config, RunSummary(12, per_mg, 0.0, ("drawn",) * draw(st.integers(0, 1)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(summaries_at_their_bounds())
def test_audit_txt_reads_the_same_from_summary_csv(tmp_path_factory, drawn):
    """`bound_audit` of a summary in memory is the report `verify_audit_txt`
    renders from the summary.csv written of it; and a value within its bound
    in memory passes."""
    config, summary = drawn
    run_dir = tmp_path_factory.mktemp("report")
    write_summary_csv(run_dir / "summary.csv", summary)
    report = bound_audit(summary, config)
    (run_dir / "audit.txt").write_text(report)
    assert verify_audit_txt(run_dir / "audit.txt", config, read_summary_csv(run_dir / "summary.csv")) == []
    lines = report.splitlines()
    for m in config.mgs:
        s = summary.per_mg[m.params.id]
        line = next(line for line in lines if line.startswith(f"mg{m.params.id} battery range "))
        if -FEAS_TOL <= s.min_b_kwh and s.max_b_kwh <= m.params.battery_capacity_kwh + FEAS_TOL:
            assert "  PASS  B in [" in line
    shutil.rmtree(run_dir)


def logs_read(monkeypatch) -> list[str]:
    """The names of the logs `read_log` reads from now on."""
    names, read_log = [], logs.read_log

    def spy(path, *args, **kwargs):
        names.append(Path(path).name)
        return read_log(path, *args, **kwargs)

    monkeypatch.setattr(logs, "read_log", spy)
    return names


@pytest.mark.parametrize(
    "name", ["reference-auction", "reference-solo", "24-mg-solo", "96-mg-auction"]
)
def test_clean_logs_take_the_fast_paths(tmp_path, monkeypatch, name):
    """slots.csv is in the layout the config gives, slot by slot with the
    config's MGs in order; auction_audit.csv is the rendering of slots.csv,
    so it is never read as a log."""
    config, texts = written(name)
    write_logs(tmp_path, texts)
    log = read_slots_csv(tmp_path / "slots.csv")
    n = len(config.mgs)
    assert log["mg_id"][:n] == [m.params.id for m in config.mgs]
    assert verify_layout(config, log) == []
    read = logs_read(monkeypatch)
    assert verify_audit_csv(tmp_path / "auction_audit.csv", config, log) == []
    assert read == []


def test_sells_that_render_alike_are_listed_by_mg_id(tmp_path, capsys):
    """In slot 1 of this run, MGs 21 and 92 sell at prices 4.3e-7 apart that
    slots.csv renders alike. The book clears MG 92's, the lower, first; the
    run lists MG 21's first, by id, so auction_audit.csv is the text the
    audit renders from slots.csv, byte for byte. With the two swapped it is
    one problem."""
    doc = fleet_doc(96, MODE_AUCTION, 2, seed=3)
    record = run(config_from_dict(doc)[0])[1][1]
    price = record.columns[_ROW_FLOATS.index("bid_sell_price")].tolist()
    by_id, first = (price[mid - 1] for mid in (21, 92))  # MG ids run from 1 in config order
    assert first < by_id and f"{first:.6f}" == f"{by_id:.6f}" == "1.031192"
    (tmp_path / "fleet.json").write_text(json.dumps(doc))
    assert main(["run", "--config", str(tmp_path / "fleet.json"), "--out", str(tmp_path)]) == 0

    run_dir = tmp_path / "auction"
    path = run_dir / "auction_audit.csv"
    lines = path.read_bytes().decode().split("\r\n")
    k, j = (k for k, line in enumerate(lines) if line.startswith("1,") and ",sell,1.031192," in line)
    assert [lines[k].split(",")[1], lines[j].split(",")[1]] == ["21", "92"]
    text = logs._audit_text(read_slots_csv(run_dir / "slots.csv"), len(doc["mgs"]))
    assert path.read_bytes() == text.replace("\n", "\r\n").encode()

    lines[k], lines[j] = lines[j], lines[k]
    path.write_bytes("\r\n".join(lines).encode())
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == EXIT_INVARIANT
    out = capsys.readouterr().out
    assert f"FAIL (1 problems)\n  auction_audit.csv line {k + 1}: slot 1 mg 92: " in out


def test_a_bid_that_logs_zero_kwh_has_no_line(tmp_path):
    """MG 1's slot-0 renewable is its DI load + 1e-7, so it bids to sell
    about 1e-7 kWh, which slots.csv logs as 0.000000. The run writes no
    auction_audit.csv line for that bid, as the audit renders none from
    slots.csv, so the run passes its audit."""
    config = default_scenario(horizon=3)
    drawn = realized_inputs(config, build_traces(config))
    renewable = drawn.renewable_kwh.copy()
    renewable[0, 0] = drawn.di_load_kwh[0, 0] + 1e-7
    inputs = SlotInputs(renewable, drawn.di_load_kwh, drawn.dt_load_kwh, drawn.grid_price)
    records = []
    [summary] = fold_runs([config], inputs, sinks=[records.append])
    assert config.ids[0] == 1
    sell = records[0].columns[_ROW_FLOATS.index("bid_sell_qty"), 0]
    assert 0.0 < sell and f"{sell:.6f}" == "0.000000"
    with RunLogs(tmp_path, config.ids) as run_logs:
        for rec in records:
            run_logs.write(rec)
    _emit_run(tmp_path, config, {}, summary)
    log = read_slots_csv(tmp_path / "slots.csv")
    assert verify_audit_csv(tmp_path / "auction_audit.csv", config, log) == []
    assert main(["audit", str(tmp_path)]) == 0
    lines = (tmp_path / "auction_audit.csv").read_text().split("\n")
    assert not any(line.startswith("0,1,") for line in lines)


def test_an_mg_id_logged_as_a_float_fails_the_audit_csv(tmp_path, capsys):
    """slots.csv logs MG 3's id as 3.0 on a row whose bid has an
    auction_audit.csv line. It still reads as MG 3, so the layout and the
    log rows pass; but the audit renders the line from the cell as written,
    as it does every other cell, so auction_audit.csv is one problem."""
    assert main(["run", "--horizon", "12", "--mode", "auction", "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "auction"
    slots = run_dir / "slots.csv"
    rows = slots.read_bytes().decode().split("\r\n")
    lines = (run_dir / "auction_audit.csv").read_text().split("\n")
    k = next(k for k, line in enumerate(lines) if line.split(",")[1:2] == ["3"])
    j = matching_row(rows, lines[k])
    cells = rows[j].split(",")
    cells[1] = "3.0"
    rows[j] = ",".join(cells)
    slots.write_bytes("\r\n".join(rows).encode())
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == EXIT_INVARIANT
    out = capsys.readouterr().out
    slot = lines[k].split(",")[0]
    assert f"FAIL (1 problems)\n  auction_audit.csv line {k + 1}: slot {slot} mg 3: " in out


@st.composite
def drawn_fleets(draw):
    """A config of 1-12 MGs whose ids are drawn in any order, its mode and a
    short horizon, and which of its records' bids to shrink or tie: a bid
    kWh scaled by 1e-11 renders as 0.000000, and a sell price set within
    4e-7 of another MG's may render alike."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(1, 120), min_size=n, max_size=n, unique=True))
    doc = fleet_doc(n, draw(st.sampled_from([MODE_AUCTION, MODE_SOLO])), draw(st.integers(1, 6)),
                    seed=draw(st.integers(0, 2**16)))
    for m, mid in zip(doc["mgs"], ids):
        m["id"] = mid
    h = doc["horizon_slots"]
    cell = st.tuples(st.integers(0, h - 1), st.integers(0, n - 1))
    shrunk = draw(st.lists(cell, max_size=2 * n))
    tied = draw(st.lists(st.tuples(cell, st.integers(0, n - 1), st.floats(-4e-7, 4e-7)),
                         max_size=2 * n))
    return config_from_dict(doc)[0], shrunk, tied


@settings(max_examples=40, deadline=None)
@given(drawn_fleets())
def test_the_run_writes_the_audit_csv_the_audit_renders(fleet):
    """Over drawn fleets with MG ids out of order, bids that log zero kWh and
    sell prices that tie as logged, the auction_audit.csv `RunLogs` writes
    is the `_audit_text` of the slots.csv it writes, byte for byte."""
    config, shrunk, tied = fleet
    rows = {name: _ROW_FLOATS.index(name) for name in ("bid_sell_price", "bid_sell_qty", "bid_buy_qty")}

    def edited(rec):
        columns = rec.columns.copy()
        for t, k in shrunk:
            if t == rec.slot:
                columns[[rows["bid_sell_qty"], rows["bid_buy_qty"]], k] *= 1e-11
        for (t, k), j, delta in tied:
            if t == rec.slot:
                columns[rows["bid_sell_price"], k] = columns[rows["bid_sell_price"], j] + delta
        return dataclasses.replace(rec, columns=columns)

    inputs = realized_inputs(config, build_traces(config))
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        with RunLogs(run_dir, config.ids) as run_logs:
            fold_runs([config], inputs, sinks=[lambda rec: run_logs.write(edited(rec))])
        written = (run_dir / "auction_audit.csv").read_bytes().decode()
        log = read_slots_csv(run_dir / "slots.csv")
    assert config.ids == log["mg_id"][:len(config.ids)]
    assert written.replace("\r\n", "\n") == logs._audit_text(log, len(config.ids))


def test_slots_that_repeat_an_mg_are_out_of_layout(tmp_path):
    """Every slot logs its first MG twice, in place of its second: the audit
    names the first such line, and the reference also fails the log."""
    config, texts = written("small-auction")
    rows = [row.split(",") for row in texts["slots.csv"].split("\r\n")]
    first, second = (cells[1] for cells in rows[1:3])
    for cells in rows[1:-1]:
        cells[1] = first if cells[1] == second else cells[1]
    write_logs(tmp_path, {**texts, "slots.csv": "\r\n".join(map(",".join, rows))})
    columnar, reference = both_audits(config, tmp_path)
    assert columnar == [f"slots.csv line 3: slot 0 mg {first}, where the run writes slot 0 mg {second}"]
    assert any(f"mg {second}: logged slots" in problem for problem in reference)


def matching_row(rows: list[str], line: str) -> int:
    """The slots.csv row of an auction_audit.csv line: the one of its slot and MG."""
    return next(j for j, row in enumerate(rows) if row.split(",")[:2] == line.split(",")[:2])


def line_book(line: str) -> tuple[int, str]:
    """An auction_audit.csv line's slot and side, in the order of the file."""
    cells = line.split(",")
    return int(cells[0]), cells[2]


def book_key(line: str) -> list[str]:
    """An auction_audit.csv line's slot, side and price cells."""
    cells = line.split(",")
    return [cells[0], *cells[2:4]]


@st.composite
def log_edits(draw):
    """A scenario, the kind of one edit, and its logs with that edit.

    One log is edited: a cell moved, or a row deleted, duplicated or swapped
    with another. Or both are edited alike: a bid cell given a 7th decimal
    in slots.csv, and in its auction_audit.csv line either the same cell or
    its 6-decimal rendering; a row made to bid on both sides, with a line
    for its second bid first in its book; or a row duplicated with its
    line. Or two audit lines are swapped that tie on their slot, side and
    price cells, or that do not.
    """
    name = draw(st.sampled_from(["small-auction", "small-solo"]))
    texts = written(name)[1]
    kind = draw(st.sampled_from([
        "cell", "cell", "cell", "delete", "duplicate", "swap",
        "decimal", "both sides", "duplicate both", "swap tied", "swap untied",
    ]))
    rows = texts["slots.csv"].split("\r\n")[:-1]
    audit = texts["auction_audit.csv"].split("\r\n")[:-1]
    edited = {"slots.csv": rows, "auction_audit.csv": audit}
    if kind == "decimal":
        k = draw(st.integers(1, len(audit) - 1))
        line, j = audit[k].split(","), matching_row(rows, audit[k])
        i = draw(st.sampled_from([3, 4, 7]))  # price, quantity, cleared quantity
        row = rows[j].split(",")
        at = SLOTS_HEADER.index(_SIDE_FIELDS[line[2]][[3, 4, 7].index(i)])
        assert row[at] == line[i]
        row[at] += str(draw(st.integers(1, 9)))
        line[i] = draw(st.sampled_from([row[at], f"{float(row[at]):.6f}"]))
        rows[j], audit[k] = ",".join(row), ",".join(line)
    elif kind == "both sides":
        k = draw(st.integers(1, len(audit) - 1))
        j = matching_row(rows, audit[k])
        row = rows[j].split(",")
        side = {"buy": "sell", "sell": "buy"}[audit[k].split(",")[2]]
        price, kwh, fill, _ = (SLOTS_HEADER.index(c) for c in _SIDE_FIELDS[side])
        row[price] = {"buy": "999.000000", "sell": "-1.000000"}[side]  # first in its book
        row[kwh] = "1.000000"
        rows[j] = ",".join(row)
        at = (int(row[0]), side)
        k = next((k for k, line in enumerate(audit[1:], 1) if line_book(line) >= at), len(audit))
        audit.insert(k, f"{row[0]},{row[1]},{side},{row[price]},{row[kwh]},0,0.000000,{row[fill]}")
    elif kind == "duplicate both":
        k = draw(st.integers(1, len(audit) - 1))
        j = matching_row(rows, audit[k])
        rows.insert(j, rows[j])
        audit.insert(k, audit[k])
    elif kind in ("swap tied", "swap untied"):
        pairs = [
            (k, j) for k in range(1, len(audit)) for j in range(k + 1, len(audit))
            if (book_key(audit[k]) == book_key(audit[j])) == (kind == "swap tied")
        ]
        k, j = draw(st.sampled_from(pairs))
        audit[k], audit[j] = audit[j], audit[k]
    else:
        file = draw(st.sampled_from(["slots.csv", "auction_audit.csv"]))
        lines = edited[file]
        k = draw(st.integers(1, len(lines) - 1))
        if kind == "cell":
            cells = lines[k].split(",")
            i = draw(st.integers(0, len(cells) - 1))
            if file == "auction_audit.csv" and i == 2:
                cells[i] = {"buy": "sell", "sell": "buy"}[cells[i]]
            else:
                delta = draw(st.floats(1e-6, 1e3)) * draw(st.sampled_from([1, -1]))
                cells[i] = f"{float(cells[i]) + delta:.6f}"
            lines[k] = ",".join(cells)
        elif kind == "delete":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        else:
            j = draw(st.integers(1, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
    texts = {file: "".join(line + "\r\n" for line in lines) for file, lines in edited.items()}
    return name, kind, texts


# The edit kinds that only the audit catches: two rows of slots.csv swapped
# keep every row, so the reference, which sorts them back, may pass them;
# but they are out of the run's layout.
ONLY_THE_AUDIT_CATCHES = {"swap"}


@settings(max_examples=360, deadline=None, derandomize=True)
@given(log_edits())
def test_edited_logs_get_the_reference_problems(tmp_path_factory, edit):
    """Where the reference reports a problem, the audit reports one too (or
    raises the same error); and where slots.csv keeps the run's layout,
    `verify_log_rows` reports what the reference's row checks report, and a
    row bidding on both sides besides."""
    name, kind, edited = edit
    config, texts = written(name)
    run_dir = tmp_path_factory.mktemp("edited")
    write_logs(run_dir, {**texts, **edited})
    columnar, reference = both_audits(config, run_dir)
    if isinstance(reference, tuple):  # an error, which the audit raises alike
        assert columnar == reference
    elif reference:
        assert columnar
    if kind in ONLY_THE_AUDIT_CATCHES and edited["slots.csv"] != texts["slots.csv"]:
        assert columnar
    rows = outcome(lambda: reference_read_slots_csv(run_dir / "slots.csv"))
    if isinstance(rows, list):
        log = read_slots_csv(run_dir / "slots.csv")
        if not verify_layout(config, log):
            found = verify_log_rows(config, log)
            assert [p for p in found if not p.endswith(": bids on both sides")] == (
                reference_verify_log_rows(config, rows)
            )
            if kind == "both sides":
                assert any(p.endswith(": bids on both sides") for p in found)
    shutil.rmtree(run_dir)
