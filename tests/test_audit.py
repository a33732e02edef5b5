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
import math
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtrade.cli import config_from_dict, default_scenario
from mgtrade.errors import ParseError, SimError
from mgtrade import logs
from mgtrade.logs import (
    _ROW_FLOATS,
    _SIDE_FIELDS,
    SLOTS_HEADER,
    read_slots_csv,
    read_summary_csv,
    verify_audit_csv,
    verify_layout,
    verify_log_rows,
    verify_summary_csv,
    write_audit_csv,
    write_slots_csv,
    write_summary_csv,
)
from mgtrade.model import MODE_AUCTION, MODE_SOLO
from mgtrade.sim import run

from oracles import (
    reference_read_slots_csv,
    reference_verify_audit_csv,
    reference_verify_log_rows,
)


def fleet_config(n_mgs: int, mode: str, horizon: int, seed: int):
    """n_mgs reference-battery MGs, half type1 and half type2 in seeded order."""
    rng = random.Random(f"audit:{n_mgs}:{seed}")
    types = ["type1"] * (n_mgs // 2) + ["type2"] * (n_mgs - n_mgs // 2)
    rng.shuffle(types)
    doc = {
        "seed": seed, "horizon_slots": horizon, "mode": mode,
        "mgs": [
            {"id": k + 1, "mg_type": t, "battery_capacity_kwh": 3000.0,
             "charge_rate_max_kwh": 1500.0, "discharge_rate_max_kwh": 1500.0,
             "serve_rate_max_kwh": 1500.0, "price_floor": 1.0, "v_fraction": 1.0}
            for k, t in enumerate(types)
        ],
    }
    return config_from_dict(doc)[0]


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
    summary, records = run(config)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        write_slots_csv(run_dir / "slots.csv", records)
        write_audit_csv(run_dir / "auction_audit.csv", records)
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


def test_sells_that_render_alike_pass_in_either_order(tmp_path, monkeypatch):
    """Two sells of one slot priced 1e-9 apart render alike, so the run may
    write them out of MG id order; the rendering lists them in id order, and
    the audit passes them without the walk, as the walk does."""
    config = default_scenario(mode=MODE_AUCTION)
    _, records = run(config)
    t, record = next((t, r) for t, r in enumerate(records) if len(r.sell_bids) >= 2)
    low, high = sorted(record.sell_bids[:2], key=record.ids.__getitem__)
    price = _ROW_FLOATS.index("bid_sell_price")
    # below every other sell of the slot, and 1e-9 short of the next rendering
    x = math.floor(record.columns[price, record.sell_bids[0]] * 1e6) / 1e6 - 1e-6
    record.columns[price, high], record.columns[price, low] = x, x + 1e-9
    sells = record.sell_bids.copy()
    sells[:2] = high, low
    records[t] = dataclasses.replace(record, sell_bids=sells)
    write_slots_csv(tmp_path / "slots.csv", records)
    write_audit_csv(tmp_path / "auction_audit.csv", records)

    text = (tmp_path / "auction_audit.csv").read_text()
    ids = (record.ids[high], record.ids[low])
    tied = [line for line in text.split("\n") if line.startswith(f"{t},") and f",{x:.6f}," in line]
    assert [int(line.split(",")[1]) for line in tied] == list(ids)
    log = read_slots_csv(tmp_path / "slots.csv")
    assert logs._audit_text(log, len(config.mgs)) != text
    read = logs_read(monkeypatch)
    assert verify_audit_csv(tmp_path / "auction_audit.csv", config, log) == []
    assert read == []
    rows = reference_read_slots_csv(tmp_path / "slots.csv")
    assert reference_verify_audit_csv(tmp_path / "auction_audit.csv", rows) == []


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
