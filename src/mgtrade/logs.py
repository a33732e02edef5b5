"""Run and sweep logs: their records, one writer, one reader, and the audits.

A log's columns are the fields of a record class (`MGSlotRow` and
`MarketRow`, `MGSummary`, `SweepRow`). The `verify_*` checks re-derive a
run's invariants from its logs alone, and `bound_audit` renders audit.txt,
its verdicts on a run's summary as summary.csv writes it: the run from its
summary in memory, the audit from summary.csv. A log passes only in the layout
its command writes, which the config gives (`verify_layout`,
`verify_sweep_csv`): the checks take MG k's rows of slots.csv as
``column[k::n]`` and slot t's as ``column[t*n:(t+1)*n]``, and compare
auction_audit.csv and audit.txt, as text, with what slots.csv and
summary.csv render. One renderer, `_audit_slot`, makes auction_audit.csv
from slots.csv's lines as written: the run from the lines it has just
written, the audit from the lines it reads. Only `model`, `errors` and the
stdlib are imported, so `mgtrade audit` loads no simulator and no numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, get_type_hints

from .errors import ConfigError, ParseError, SimError
from .model import (
    FEAS_TOL,
    MODE_SOLO,
    DerivedBounds,
    MGParams,
    ScenarioConfig,
    compute_a_const,
    compute_bounds,
    compute_v_max,
    initial_battery,
    virtual_battery,
)

if TYPE_CHECKING:
    from .sim import SlotRecord


class MGSlotRow(NamedTuple):
    """One MG's full accounting for one slot (state is start-of-slot)."""

    slot: int
    mg_id: int
    battery_kwh: float
    demand_queue_kwh: float
    delay_queue_kwh: float
    virtual_kwh: float
    renewable_kwh: float
    di_load_kwh: float
    dt_load_kwh: float
    grid_price: float
    bid_sell_price: float
    bid_buy_price: float
    bid_sell_qty: float
    bid_buy_qty: float
    bought_kwh: float
    sold_kwh: float
    buy_unit_price: float
    sell_unit_price: float
    charge_kwh: float
    discharge_kwh: float
    serve_kwh: float
    grid_kwh: float
    spill_kwh: float
    cost: float
    oldest_pending_age: int


class MarketRow(NamedTuple):
    """The slot's clearing prices, volume and auctioneer surplus."""

    buy_price: float
    sell_price: float
    volume_kwh: float
    surplus: float


# the float fields of a log row: all but the slot, the MG id and the age
_ROW_FLOATS = MGSlotRow._fields[2:-1]


class MGSummary(NamedTuple):
    mg_id: int
    time_avg_cost: float
    total_cost: float
    total_grid_kwh: float
    total_bought_kwh: float
    total_sold_kwh: float
    total_served_kwh: float
    max_q_kwh: float
    max_z_kwh: float
    min_b_kwh: float
    max_b_kwh: float
    max_job_age_slots: int


# each MGSummary field after the MG id and time average: the reduction of the
# MG's logged column that it is made from, by `sim.RunFold` and again in the audit
_SUMMARY_OF = (
    ("total_cost", sum, "cost"),
    ("total_grid_kwh", sum, "grid_kwh"),
    ("total_bought_kwh", sum, "bought_kwh"),
    ("total_sold_kwh", sum, "sold_kwh"),
    ("total_served_kwh", sum, "serve_kwh"),
    ("max_q_kwh", max, "demand_queue_kwh"),
    ("max_z_kwh", max, "delay_queue_kwh"),
    ("min_b_kwh", min, "battery_kwh"),
    ("max_b_kwh", max, "battery_kwh"),
    ("max_job_age_slots", max, "oldest_pending_age"),
)


class SweepRow(NamedTuple):
    """One MG at one V fraction of a sweep: its online and oracle costs."""

    fraction: float
    mg_id: int
    v_weight: float
    online_time_avg_cost: float
    oracle_time_avg_cost: float
    gap: float
    a_over_v: float


@dataclass(frozen=True)
class RunSummary:
    horizon_slots: int
    per_mg: dict[int, MGSummary]
    total_traded_kwh: float
    violations: tuple[str, ...] = ()

    @property
    def total_cost(self) -> float:
        return sum(s.total_cost for s in self.per_mg.values())

    @property
    def total_grid_kwh(self) -> float:
        return sum(s.total_grid_kwh for s in self.per_mg.values())

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def mean_time_avg_cost(self) -> float:
        return self.total_cost / (len(self.per_mg) * self.horizon_slots)


def bound_audit(summary: RunSummary, config: ScenarioConfig) -> str:
    """The text of audit.txt: the stability guarantees, checked on a run's summary.

    Per MG: the queue ceilings, the battery range, job ages under the
    worst-case ceiling, and the v_weight <= v_max precondition; then zero
    recorded violations. The cost gap to the oracle is a SKIP line: a run
    solves no oracle (`mgtrade sweep` reports the gap).

    Each 6-decimal value v is judged and shown as summary.csv writes it,
    w(v) = float("%.6f" % v), against its bound b written alike, w(b +
    FEAS_TOL) (w(-FEAS_TOL) for the battery's floor). Below 1e9 that text
    has at most 15 significant digits, so it reads back as a double that
    renders to it again: w(w(v)) = w(v). So the run, from its summary in
    memory, and the audit, from summary.csv, get the same numbers and text.
    w keeps the order of values: a value within its bound in memory passes.
    One over it by less than 5e-7 may pass too, but the run's monitor
    records it, and the recorded violations line fails.
    """
    lines: list[tuple[str, str, str]] = []

    def written(x: float) -> float:  # w(x), as summary.csv writes it and reads it back
        return float("%.6f" % x)

    def check(name: str, ok: bool | None, detail: str) -> None:
        lines.append((name, "SKIP" if ok is None else "PASS" if ok else "FAIL", detail))

    for m in config.mgs:
        mid = m.params.id
        s = summary.per_mg[mid]
        try:
            db = compute_bounds(m.params, config.price_bounds)
        except ConfigError as e:
            # e.g. a v_weight pushed past v_max after construction: flag the
            # precondition breach instead of crashing the audit
            check(f"mg{mid} v_weight precondition", False, str(e))
            continue
        check(
            f"mg{mid} v_weight precondition", True,
            f"v={m.params.v_weight:.6f} v_max={db.v_max:.6f}",
        )
        q, z, low, high = map(written, (s.max_q_kwh, s.max_z_kwh, s.min_b_kwh, s.max_b_kwh))
        check(
            f"mg{mid} demand queue ceiling", q <= written(db.q_max + FEAS_TOL),
            f"max Q={q:.6f} q_max={db.q_max:.6f}",
        )
        check(
            f"mg{mid} delay queue ceiling", z <= written(db.z_max + FEAS_TOL),
            f"max Z={z:.6f} z_max={db.z_max:.6f}",
        )
        b_ok = low >= written(-FEAS_TOL) and high <= written(m.params.battery_capacity_kwh + FEAS_TOL)
        check(f"mg{mid} battery range", b_ok, f"B in [{low:.6f}, {high:.6f}]")
        check(
            f"mg{mid} worst job age", s.max_job_age_slots <= db.delta_max_slots + FEAS_TOL,
            f"age={s.max_job_age_slots} bound={db.delta_max_slots:.3f}",
        )
        check(
            f"mg{mid} cost gap vs oracle", None,
            "`mgtrade run` does not solve the oracle; `mgtrade sweep` does",
        )
    check(
        "recorded violations", summary.violation_count == 0,
        f"count={summary.violation_count}",
    )
    width = max(len(name) for name, _, _ in lines)
    failed = any(status == "FAIL" for _, status, _ in lines)
    return "".join(
        [f"{name:<{width}}  {status:<4}  {detail}\n" for name, status, detail in lines]
        + ["FAILURES PRESENT\n" if failed else "ALL CHECKS PASSED\n"]
    )


def _log_columns(cls, prefix: str = "") -> tuple[tuple[str, ...], str, tuple[str, ...]]:
    """The columns of a log record class, the %-format of one record's cells
    and the columns that must hold whole numbers.

    The record's annotated fields are the columns, in order. Fields declared
    ``float`` are written at 6 decimals (``%.6f`` renders as ``format(x,
    ".6f")`` does), every other field as it is, and those declared ``int``
    are the whole ones. No cell needs CSV quoting.
    """
    hints = {prefix + n: t for n, t in get_type_hints(cls).items()}
    cells = ",".join("%.6f" if t is float else "%s" for t in hints.values())
    return tuple(hints), cells, tuple(n for n, t in hints.items() if t is int)


class _LogFile:
    """A log being written: its header on opening, then each block of lines as it
    comes, each line ended as csv.writer ends it."""

    def __init__(self, path, header: tuple[str, ...]) -> None:
        self.fh = open(path, "w", newline="")
        self.fh.write(",".join(header) + "\r\n")

    def write(self, lines: Iterable[str]) -> None:
        text = "\r\n".join(lines)
        if text:
            self.fh.write(text + "\r\n")


def _write_log(path, header: tuple[str, ...], blocks: Iterable[Iterable[str]]) -> None:
    """Write a log: its header, then the lines of each block."""
    log = _LogFile(path, header)
    with log.fh:
        for lines in blocks:
            log.write(lines)


_MG_COLUMNS, _MG_CELLS, _WHOLE_COLUMNS = _log_columns(MGSlotRow)
_MARKET_COLUMNS, _MARKET_CELLS, _ = _log_columns(MarketRow, prefix="market_")
SLOTS_HEADER = _MG_COLUMNS + _MARKET_COLUMNS


def _slot_lines(rec: SlotRecord, ids: list[int]) -> list[str]:
    """A record's lines of slots.csv, its MGs' ids ``ids``: each MG's row, rendered
    from its column of the record, with the slot's market cells."""
    cells = _MG_CELLS + "," + _MARKET_CELLS % rec.market
    rows = zip(repeat(rec.slot), ids, *rec.columns.tolist(), rec.oldest_age.tolist())
    return list(map(cells.__mod__, rows))


_SUMMARY_COLUMNS, _SUMMARY_CELLS, _SUMMARY_WHOLE = _log_columns(MGSummary)
SUMMARY_HEADER = _SUMMARY_COLUMNS + ("violations",)


def write_summary_csv(path, summary: RunSummary) -> None:
    rows = [summary.per_mg[mid] for mid in sorted(summary.per_mg)]
    cells = _SUMMARY_CELLS + f",{summary.violation_count}"
    _write_log(path, SUMMARY_HEADER, [map(cells.__mod__, rows)])


SWEEP_HEADER, _SWEEP_CELLS, _SWEEP_WHOLE = _log_columns(SweepRow)


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    _write_log(path, SWEEP_HEADER, [map(_SWEEP_CELLS.__mod__, rows)])


# auction_audit.csv: the fields of a line, one per bid logged with a nonzero quantity
AUDIT_HEADER = (
    "slot", "mg_id", "side", "price", "quantity", "accepted", "cleared_price",
    "cleared_quantity",
)
# each side's bid price and kWh, fill and unit price, as the log rows name them
_SIDE_FIELDS = {
    side: (f"bid_{side}_price", f"bid_{side}_qty", fill, f"{side}_unit_price")
    for side, fill in (("buy", "bought_kwh"), ("sell", "sold_kwh"))
}
# where a slots.csv row holds each side's four cells and its market price
_SIDE_CELLS = {
    side: [SLOTS_HEADER.index(name) for name in (*names, f"market_{side}_price")]
    for side, names in _SIDE_FIELDS.items()
}


def _audit_slot(slot: int, at: Sequence[int], rows: Sequence[str]) -> list[str]:
    """Slot `slot`'s lines of auction_audit.csv, from its lines of slots.csv as written.

    ``at`` holds the positions of ``rows``, each a full row of slots.csv, in
    MG id order. The rows are split once, and every cell a line shows, or
    is chosen, ordered or accepted by, is read from them. A bid has a line
    when its kWh is nonzero. The buys go by falling and the sells by rising
    price, ties by MG id. A line is accepted when its fill or unit price is
    nonzero, and its cleared price is then the market price of the slot's
    first row, else zero.
    """
    width = len(SLOTS_HEADER)
    cells = ",".join(rows).split(",")
    ids = cells[1::width]
    lines: list[str] = []
    for side, columns in _SIDE_CELLS.items():
        price, kwh, fill, unit = (cells[i::width] for i in columns[:4])
        live = [k for k in at if float(kwh[k])]
        head, tag, won, lost = f"{slot},", f",{side},", f",1,{cells[columns[4]]},", ",0,0.000000,"
        lines += [
            f"{head}{ids[k]}{tag}{price[k]},{kwh[k]}"
            f"{won if float(fill[k]) or float(unit[k]) else lost}{fill[k]}"
            for k in sorted(live, key=lambda k: float(price[k]), reverse=side == "buy")
        ]
    return lines


class RunLogs:
    """A run's slots.csv and auction_audit.csv in ``out_dir``, written a record at a
    time in slot order as the run steps (`write`); ``ids`` are the run's MG ids. A
    context manager: the files close when it exits.
    """

    def __init__(self, out_dir: Path, ids: list[int]) -> None:
        self.slots = _LogFile(out_dir / "slots.csv", SLOTS_HEADER)
        try:
            self.audit = _LogFile(out_dir / "auction_audit.csv", AUDIT_HEADER)
        except BaseException:
            self.slots.fh.close()
            raise
        self.ids, self.at = ids, sorted(range(len(ids)), key=ids.__getitem__)

    def write(self, rec: SlotRecord) -> None:
        """Write a record's slots.csv lines, then the `_audit_slot` lines of those lines."""
        lines = _slot_lines(rec, self.ids)
        self.slots.write(lines)
        self.audit.write(_audit_slot(rec.slot, self.at, lines))

    def __enter__(self) -> "RunLogs":
        return self

    def __exit__(self, *exc) -> None:
        self.slots.fh.close()
        self.audit.fh.close()


class Log:
    """A log read back as columns (see `read_log`), its rows in file order.

    ``log[name]`` is a column: a list of floats, or of the cells as written
    for a text column. ``len(log)`` is the row count, ``log.rows[k]`` row
    k as written, ``log.row(k)`` its cells and ``log.lines[k]`` its line in
    the file.
    """

    __slots__ = ("header", "rows", "columns", "lines")

    def __init__(
        self, header: tuple[str, ...], rows: list[str], columns: dict[str, list],
        lines: Sequence[int],
    ) -> None:
        self.header, self.rows, self.columns, self.lines = header, rows, columns, lines

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, name: str) -> list:
        return self.columns[name]

    def row(self, k: int) -> list[str]:
        return self.rows[k].split(",")


def _text(path) -> str:
    """A log's text, each line end (LF, CRLF or CR) read as "\\n"; a missing log is a SimError."""
    if not Path(path).exists():
        raise SimError(f"missing log: {path}")
    with open(path) as fh:  # universal newlines
        return fh.read()


# How many rows `read_log` splits and converts at once: a block's cell strings
# are freed while still in cache, and their memory serves the next block.
_BLOCK_ROWS = 512


def read_log(path, header: tuple[str, ...], text=(), whole=(), finite=True) -> Log:
    """Read a log as columns: blocks of rows split into flat cell lists, each one `map(float)`.

    Logs quote no cell (see `_log_columns`), so the rows after the header
    are the nonblank lines (ended by any of LF, CRLF, CR) split at the
    commas. Every column but the ``text`` ones holds numbers, finite ones if
    ``finite``, and the ``whole`` ones whole numbers; the rows stay as
    written, in ``log.rows``. A missing log is a SimError. A different
    header, a row of the wrong width or a bad cell is a ParseError naming
    the file, and the line (and column) of the first bad row in it.
    """
    rows = _text(path).split("\n")
    head = rows.pop(0).split(",")
    if tuple(head) != header:
        raise ParseError(f"{path}: unexpected header {head}")
    if rows and not rows[-1]:
        rows.pop()  # what follows the last line end
    lines: Sequence[int] = range(2, len(rows) + 2)
    if "" in rows:  # a blank line holds no row
        lines = [line for line, row in zip(lines, rows) if row]
        rows = list(filter(None, rows))
    width = len(header)
    commas = list(map(str.count, rows, repeat(",")))
    whole_rows = len(rows)
    if commas.count(width - 1) != whole_rows:
        whole_rows = next(k for k, n in enumerate(commas) if n != width - 1)
    texts = {header.index(name): [] for name in text}
    values: list[float] = []
    for start in range(0, whole_rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, whole_rows)
        cells = ",".join(rows[start:stop]).split(",")
        for i, column in texts.items():
            column += cells[i::width]
            cells[i::width] = ["0"] * (stop - start)
        try:
            block = list(map(float, cells))
            ok = (not finite or math.isfinite(sum(block))) and all(
                all(map(float.is_integer, block[header.index(name)::width])) for name in whole
            )
        except ValueError:
            ok = False
        if not ok:  # find the row at fault, if any (a finite sum may also overflow)
            _raise_bad_cell(path, header, cells, lines[start:stop], whole, finite)
        values += block
    if whole_rows < len(rows):
        raise ParseError(
            f"{path}: line {lines[whole_rows]}: {commas[whole_rows] + 1} cells, "
            f"header has {width}"
        )
    columns = {name: texts.get(i) or values[i::width] for i, name in enumerate(header)}
    return Log(header, rows, columns, lines)


def _parsed(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _raise_bad_cell(path, header, cells, lines, whole, finite: bool) -> None:
    """Raise the ParseError of the first row of the flat `cells` with a bad cell.

    A row with a cell that is no number (or, if ``finite``, no finite one)
    names its first cell that is no finite number; else its first ``whole``
    column holding a fraction.
    """
    width = len(header)
    for k, line in enumerate(lines[:len(cells) // width]):
        row = cells[k * width:(k + 1) * width]
        values = list(map(_parsed, row))
        if None in values or finite and not all(map(math.isfinite, values)):
            i = next(i for i, x in enumerate(values) if x is None or not math.isfinite(x))
            raise ParseError(
                f"{path}: line {line}, column {header[i]!r}: {row[i]!r} is not a finite number"
            )
        for name in whole:
            i = header.index(name)
            if not values[i].is_integer():
                raise ParseError(
                    f"{path}: line {line}, column {name!r}: {row[i]!r} is not a whole number"
                )


def read_slots_csv(path) -> Log:
    """Read a slots log back as columns of floats (ids and slots as floats).

    A column of an ``int`` field must hold whole numbers.
    """
    log = read_log(path, SLOTS_HEADER, whole=_WHOLE_COLUMNS)
    if not len(log):
        raise SimError(f"{path}: no rows")
    return log


def read_summary_csv(path) -> Log:
    """Read a summary log back as columns of floats; its ``int`` columns must be whole."""
    return read_log(path, SUMMARY_HEADER, whole=(*_SUMMARY_WHOLE, "violations"))


def read_sweep_csv(path) -> Log:
    """Read a sweep log back as columns of floats; its MG ids must be whole numbers."""
    log = read_log(path, SWEEP_HEADER, whole=_SWEEP_WHOLE)
    if not len(log):
        raise SimError(f"{path}: empty")
    return log


def _first_difference(got: list, want: list) -> int:
    """The first index where `got` and `want` differ, or the shorter one's length."""
    return next(
        (k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want))
    )


def _misplaced(log: Log, name: str, writer: str, cells: str, got: list, want: list) -> str:
    """The problem of log `name`, whose rows' keys `got` are not the keys `want` that
    `writer` writes: its first line out of place, the keys there and those written there.

    ``cells`` formats one row's keys.
    """
    k = _first_difference(got, want)
    line = log.lines[k] if k < len(log) else log.lines[-1] + 1

    def at(rows: list) -> str:
        return cells.format(*rows[k]) if k < len(rows) else "no row"

    return f"{name} line {line}: {at(got)}, where {writer} writes {at(want)}"


def verify_layout(config: ScenarioConfig, log: Log) -> list[str]:
    """Check that the slots log `log` is in the layout `mgtrade run` writes.

    The config alone gives that layout: of n configured MGs, row k is slot
    k // n of the config's MG k % n, for every slot of the horizon. A
    missing MG, a missing slot and a repeated row all break it. A log out of
    it is one problem, naming its first line out of place. The other checks
    read MG k's rows as ``column[k::n]`` and slot t's as ``column[t*n:(t+1)*n]``,
    so they are for a log this check passes.
    """
    ids = [m.params.id for m in config.mgs]
    h = config.horizon_slots
    slots = list(chain.from_iterable(map(repeat, range(h), repeat(len(ids)))))
    if log["slot"] == slots and log["mg_id"] == ids * h:
        return []
    got = list(zip(log["slot"], log["mg_id"]))
    want = list(zip(slots, ids * h))
    return [_misplaced(log, "slots.csv", "the run", "slot {:.0f} mg {:.0f}", got, want)]


def _audit_text(log: Log, n: int) -> str:
    """The text auction_audit.csv holds for a slots log in the run's layout, n rows a slot:
    the `_audit_slot` lines of each slot's rows as written (a cell of 7 decimals stays one).
    """
    at = sorted(range(n), key=log["mg_id"].__getitem__)  # a slot's rows in MG id order
    lines = [",".join(AUDIT_HEADER)]
    for a in range(0, len(log), n):
        lines += _audit_slot(a // n, at, log.rows[a:a + n])
    return "\n".join(lines) + "\n"


def verify_audit_csv(path, config: ScenarioConfig, log: Log) -> list[str]:
    """Check auction_audit.csv against the slots log `log`, in the run's layout.

    The file must be the `_audit_text` of `log`: each slot's `_audit_slot`
    lines, one per bid logged with a nonzero quantity, with the MG's logged
    bid, fill and, when accepted, the market price. `RunLogs` renders the
    run's file with `_audit_slot` too, from the slots.csv lines it has just
    written. The file may end its lines as `read_log` allows, and skip
    blank lines; it is otherwise that text exactly. A file that differs is
    read with `read_log`, so a header or cell that does not parse is a
    ParseError; else its first line that differs is one problem.
    """
    text, want = _text(path), _audit_text(log, len(config.mgs))
    if text == want:
        return []
    numbered = [(k, line) for k, line in enumerate(text.split("\n"), 1) if line]
    got, want = [line for _, line in numbered], want.split("\n")[:-1]  # want ends in a line end
    k = _first_difference(got, want)
    if k == len(got) == len(want):
        return []
    read_log(path, AUDIT_HEADER, text=("side",), finite=False)
    line = numbered[k][0] if k < len(got) else numbered[-1][0] + 1
    cells = (got[k] if k < len(got) else want[k]).split(",")
    got, want = (repr(lines[k]) if k < len(lines) else "no line" for lines in (got, want))
    return [f"auction_audit.csv line {line}: slot {cells[0]} mg {cells[1]}: {got} != {want} "
            "from slots.csv"]


def verify_summary_csv(summary: Log, config: ScenarioConfig, log: Log) -> list[str]:
    """Check the summary log `summary` against the config and the slots log `log`.

    It holds one row per configured MG, in id order, else that is its one
    problem. It records no violations. Each MG's maxima, minima and worst
    job age equal those of its logged column exactly: rounding to 6
    decimals keeps the order of values, so the rendered extreme is the
    extreme of the rendered values.

    A total is the in-memory sum of the MG's values over the h slots of the
    horizon, rendered. Each logged value is off its in-memory one by at most
    5e-7, plus 2**-53 of it for reading it back; each of the two sums (in
    memory, and here of the logged values) errs by at most
    (h - 1) * 2**-53 * S, S the values' absolute sum; and the rendered total
    is off by 5e-7 and its reading. So a total lies within
    5e-7 * (h + 1) + (2h + 2) * 2**-53 * S of the logged values' sum, and
    the check allows tol = 5e-7 * (h + 1) + 2**-50 * h * S.
    ``time_avg_cost`` is the in-memory total cost over h, rendered: it lies
    within 5e-7 + tol / h of the logged costs' sum over h.
    """
    ids = sorted(m.params.id for m in config.mgs)
    if summary["mg_id"] != ids:
        logged_ids = list(map(int, summary["mg_id"]))
        return [f"summary.csv: mg ids {logged_ids} are not the configured {ids}"]
    n, h = len(ids), config.horizon_slots
    first = {m.params.id: k for k, m in enumerate(config.mgs)}  # each MG's first slots.csv row
    problems: list[str] = []
    for k, (mid, line) in enumerate(zip(ids, summary.lines)):
        tag = f"summary.csv line {line}: mg {mid}"
        if summary["violations"][k]:
            problems.append(f"{tag}: {summary['violations'][k]:.0f} violations recorded")

        def check(name: str, want: float, tol: float) -> None:
            got = summary[name][k]
            if abs(got - want) > tol:
                problems.append(f"{tag}: {name} {got} != {want} from slots.csv")

        for name, reduce_, column in _SUMMARY_OF:
            values = log[column][first[mid]::n]
            want, tol = reduce_(values), 0.0
            if reduce_ is sum:  # the rounding a total carries, as derived above
                tol = 5e-7 * (h + 1) + 2.0**-50 * h * sum(map(abs, values))
            if name == "total_cost":
                check("time_avg_cost", want / h, 5e-7 + tol / h)
            check(name, want, tol)
    return problems


def verify_audit_txt(path, config: ScenarioConfig, summary: Log) -> list[str]:
    """Check audit.txt: it is the `bound_audit` report of the summary log `summary`.

    The report is rendered from a `RunSummary` of one `MGSummary` per row of
    summary.csv, as many violations as its ``violations`` column counts, and
    the config. `bound_audit` judges and shows each value as summary.csv
    writes it, so the run, from its summary in memory, wrote this report. A
    report that differs is one problem, naming its first line that differs.
    """
    if summary["mg_id"] != sorted(m.params.id for m in config.mgs):
        return []  # a problem of summary.csv, which `verify_summary_csv` reports
    columns = [
        list(map(int, summary[name])) if name in _SUMMARY_WHOLE else summary[name]
        for name in _SUMMARY_COLUMNS
    ]
    per_mg = {s.mg_id: s for s in map(MGSummary._make, zip(*columns))}
    report = bound_audit(RunSummary(
        config.horizon_slots, per_mg, sum(summary["total_bought_kwh"]),
        ("counted in summary.csv",) * int(summary["violations"][0]),
    ), config)
    got, want = _text(path).split("\n"), report.split("\n")
    k = _first_difference(got, want)
    if k == len(got) == len(want):
        return []

    def at(lines: list[str]) -> str:
        return repr(lines[k]) if k < len(lines) else "no line"

    return [f"audit.txt line {k + 1}: {at(got)} != {at(want)} from summary.csv"]


def verify_sweep_csv(config: ScenarioConfig, log: Log) -> list[str]:
    """Check the sweep log `log` against the config of its sweep.

    Each fraction holds one row per configured MG, in config order, as
    `mgtrade sweep` writes them; a log out of that layout is one problem,
    naming its first line out of place. Each row's ``v_weight`` is its
    fraction f of the MG's ``compute_v_max``, and its ``a_over_v`` is
    ``compute_a_const`` over that ``v_weight``.

    The fraction cell c is f rendered, so f lies in [c - 5e-7, c + 5e-7] and
    the in-memory v_weight v = f * v_max in [lo, hi] = [max(c - 5e-7, 0) *
    v_max, (c + 5e-7) * v_max]. The ``v_weight`` cell is v rendered, within
    5e-7 of it, and the ``a_over_v`` cell is within 5e-7 of a / v, which
    lies in [a / hi, a / lo] (unbounded above if lo is 0). Each bound also
    allows 2**-50 of itself for the few float roundings (2**-53 each) of
    the products, the quotients and the readings.
    """
    ids = [m.params.id for m in config.mgs]
    n = len(ids)
    fraction = log["fraction"]
    want = [(fraction[k - k % n], ids[k % n]) for k in range(-(-len(log) // n) * n)]
    got = list(zip(fraction, log["mg_id"]))
    if got != want:
        return [_misplaced(log, "sweep.csv", "the sweep", "fraction {:.6f} mg {:.0f}", got, want)]
    problems: list[str] = []
    up, down = 1.0 + 2.0**-50, 1.0 - 2.0**-50
    for k, (c, v, a_over_v, line) in enumerate(
        zip(fraction, log["v_weight"], log["a_over_v"], log.lines)
    ):
        p = config.mgs[k % n].params
        v_max, a = compute_v_max(p, config.price_bounds), compute_a_const(p)
        lo, hi = max(c - 5e-7, 0.0) * v_max, (c + 5e-7) * v_max
        tag = f"sweep.csv line {line}: fraction {c:.6f} mg {p.id}"
        if not lo * down - 5e-7 <= v <= hi * up + 5e-7:
            problems.append(f"{tag}: v_weight {v} is not the fraction of v_max {v_max}")
        if not a / hi * down - 5e-7 <= a_over_v <= (a / lo * up if lo else math.inf) + 5e-7:
            problems.append(f"{tag}: a_over_v {a_over_v} is not a_const {a} / v_weight")
    return problems


# Tolerance of the log checks. Logs hold 6-decimal renderings, so this is loose
# relative to the in-memory checks but still far below any physical quantity.
LOG_TOL = 1e-4

# the columns after the slot and MG id, in the order `_mg_problems` unpacks them
_ROW_COLUMNS = MGSlotRow._fields[2:]
# the cells a no_auction run logs as 0: its market's, and each MG's fills and unit prices
_TRADE_COLUMNS = _MARKET_COLUMNS + ("bought_kwh", "sold_kwh", "buy_unit_price", "sell_unit_price")


def verify_log_rows(config: ScenarioConfig, log: Log) -> list[str]:
    """Re-derive every per-slot invariant from a written log alone.

    The log must be in the run's layout (`verify_layout`), so MG k's rows
    are every n-th row from row k, and slot t's rows the n rows from row
    t * n. Quantities are compared within `LOG_TOL`; the recomputed cost
    also allows for the rounding of its six operands. Each row's
    ``oldest_pending_age`` is re-derived, as the run derives it, from the
    prefix sums of the logged ``dt_load_kwh`` and ``serve_kwh``, and each
    MG's slot-0 battery must be the ``initial_battery`` of the config.

    One pass over each MG's zipped column slices checks its rows; a message
    is built only for a failing row. Then each slot's market is checked
    over its own slice.
    """
    n = len(config.mgs)
    problems: list[str] = []
    for k, (m, db) in enumerate(zip(config.mgs, config.bounds())):
        b0 = initial_battery(m.params, db, config.initial_battery_kwh)
        problems += _mg_problems(m.params, db, b0, {c: log[c][k::n] for c in _ROW_COLUMNS})
    solo = config.mode == MODE_SOLO
    for t in range(config.horizon_slots):
        problems += _market_problems(t, {c: log[c][t * n:(t + 1) * n] for c in log.header}, solo)
    return problems


def _mg_problems(p: MGParams, db: DerivedBounds, b0: float, c) -> list[str]:
    """The problems of one MG's rows; ``c`` maps each column to them, in slot order.

    One pass checks every row, and every step from the row before; the
    problems of the steps follow those of the rows.
    """
    problems: list[str] = []
    steps: list[str] = []

    def note(found: list[str], why: str) -> None:  # about the row of slot t
        found.append(f"slot {t} mg {p.id}: {why}")

    # the run starts from `initial_battery`, which the log renders to 6 decimals
    first = c["battery_kwh"][0]
    if abs(first - b0) > 5e-7 + 2.0**-50 * b0:
        problems.append(f"slot 0 mg {p.id}: battery {first} != initial battery {b0}")
    arrived = list(accumulate(c["dt_load_kwh"], initial=0.0))[1:]  # by the end of each slot
    served = 0.0
    low, high = 0.0 - LOG_TOL, p.battery_capacity_kwh + LOG_TOL
    q_max, z_max, age_max = db.q_max + LOG_TOL, db.z_max + LOG_TOL, db.delta_max_slots + LOG_TOL
    v, floor, j_max = p.v_weight, p.price_floor, p.serve_rate_max_kwh
    rounding = 1.5e-6 + 1e-6 / v
    for t, (
        b, q, z, x, r, di, dt, pg, sell_price, buy_price, sell_kwh, buy_kwh, bought, sold,
        pb, ps, charge, discharge, j, grid, spill, cost, age,
    ) in enumerate(zip(*(c[name] for name in _ROW_COLUMNS))):
        n = t + 1  # the rows so far
        served += j
        # the age as `oldest_pending_age` derives it; every logged kWh is off
        # by up to 5e-7 and each sum by its rounding, so a job boundary that
        # close to the threshold admits either side
        e = n * (1e-6 + 2.0**-52 * (arrived[t] + abs(served)))
        young = n - bisect_right(arrived, served + FEAS_TOL + e, 0, n)
        old = n - bisect_right(arrived, served + FEAS_TOL - e, 0, n)
        if not young <= age <= old:
            note(problems, f"oldest pending age {age:.0f} is not {young:.0f}..{old:.0f}, "
                 "from the logged serves and arrivals")
        if not low <= b <= high:
            note(problems, f"battery {b} out of range")
        if q > q_max:
            note(problems, f"Q {q} > {db.q_max}")
        if z > z_max:
            note(problems, f"Z {z} > {db.z_max}")
        if abs(x - virtual_battery(b, p, db)) > LOG_TOL:
            note(problems, f"X {x} != B - theta - D_max")
        if charge > LOG_TOL and discharge > LOG_TOL:
            note(problems, "simultaneous charge and discharge")
        # each operand is off by at most 5e-7 after 6-decimal rounding, so a
        # product a*b is off by at most 5e-7 * (|a| + |b|)
        recomputed = pg * grid + pb * bought - ps * sold
        off = abs(recomputed - cost)
        if off > LOG_TOL and off > LOG_TOL + 5e-7 * (
            abs(pg) + abs(grid) + abs(pb) + abs(bought) + abs(ps) + abs(sold)
        ):
            note(problems, f"cost {cost} != recomputed {recomputed}")
        balance = r + grid + discharge + bought - di - j - sold - charge
        if balance < -LOG_TOL:
            note(problems, f"balance short by {-balance}")
        if abs(balance - spill) > LOG_TOL:
            note(problems, f"spill {spill} != balance slack {balance}")
        if age > age_max:
            note(problems, f"pending job age {age}")
        # the bids `make_bids` posts from the logged Q, Z, R and I. Those and
        # the logged bids are off by up to 5e-7 each, so a price (Q + Z) / V
        # by 5e-7 + 1e-6 / V and a quantity by 1.5e-6, plus float rounding;
        # within that of R - I = 0 the MG may have sold or bought
        value, surplus = (q + z) / v, r - di
        e = rounding + 2.0**-50 * (value + q + r + di)
        if not (
            abs(sell_price - value) <= e
            and abs(buy_price - (floor if floor > value else value)) <= e  # max(value, floor)
            and (
                surplus > -e and abs(sell_kwh - surplus) <= e and abs(buy_kwh) <= e
                or surplus < e and abs(sell_kwh) <= e
                and abs(buy_kwh - min(max(j_max - r, 0.0), q)) <= e
            )
        ):
            note(problems, f"bids {[sell_price, buy_price, sell_kwh, buy_kwh]} != "
                 "make_bids of the logged Q, Z, R, I")
        if sell_kwh > 0.0 and buy_kwh > 0.0:  # `make_bids` posts one side, the other 0
            note(problems, "bids on both sides")
        if t:  # the step from the row before
            want_b = last_b - last_discharge + last_charge
            if abs(b - want_b) > LOG_TOL:
                note(steps, f"battery {b} != step {want_b}")
            # `0.0 if 0.0 > d else d` is max(d, 0.0)
            backlog = last_q - last_j
            want_q = (0.0 if 0.0 > backlog else backlog) + last_dt
            if abs(q - want_q) > LOG_TOL:
                note(steps, f"Q {q} != step {want_q}")
            base_z = last_z - last_j
            base_z = 0.0 if 0.0 > base_z else base_z
            # a backlog indistinguishable from zero at log precision: the
            # indicator could have read either way in memory
            want_z = (base_z + p.epsilon,) if last_q > LOG_TOL else (base_z, base_z + p.epsilon)
            if abs(z - want_z[0]) > LOG_TOL and abs(z - want_z[-1]) > LOG_TOL:
                note(steps, f"Z {z} != step {want_z}")
        last_b, last_q, last_z, last_charge, last_discharge, last_j, last_dt = (
            b, q, z, charge, discharge, j, dt
        )
    return problems + steps


def _market_problems(t: int, c, solo: bool) -> list[str]:
    """Check one slot's market columns against each other and its MG rows.

    ``c`` maps each column to the slot's rows, in file order. Rounding to 6
    decimals keeps the order of two values, and renders two copies of one
    in-memory number identically, so the price checks are exact; sums and
    products allow for the rounding of their operands. A ``solo`` run posts
    no book, so each of its `_TRADE_COLUMNS` holds only zeros.
    """
    problems: list[str] = []
    market = tuple(c[k][0] for k in _MARKET_COLUMNS)
    pb, ps, volume, surplus = market
    grid = c["grid_price"][0]
    bought = sold = 0.0
    for mid, row_market, grid_price, buy_unit, sell_unit, got, gave in zip(
        c["mg_id"], zip(*(c[k] for k in _MARKET_COLUMNS)), c["grid_price"],
        c["buy_unit_price"], c["sell_unit_price"], c["bought_kwh"], c["sold_kwh"],
    ):
        tag = f"slot {t} mg {int(mid)}"
        if row_market != market:
            problems.append(f"{tag}: market columns differ from the slot's first row")
        if grid_price != grid:
            problems.append(f"{tag}: grid price differs from the slot's first row")
        if buy_unit not in (0.0, pb) or sell_unit not in (0.0, ps):
            problems.append(f"{tag}: unit price is not the market price")
        if got > 0.0 and gave > 0.0:
            problems.append(f"{tag}: both bought and sold")
        bought += got
        sold += gave
    tag = f"slot {t}"
    traded = solo and next((k for k in _TRADE_COLUMNS if any(c[k])), None)
    if traded:
        problems.append(f"{tag}: {traded} is not 0 in a no_auction run")
    # every logged kWh is off by at most 5e-7
    slack = LOG_TOL + 5e-7 * (len(c["mg_id"]) + 1)
    if abs(bought - volume) > slack or abs(sold - volume) > slack:
        problems.append(
            f"{tag}: bought {bought:.6f} / sold {sold:.6f} kWh != market volume {volume}"
        )
    if volume > 0.0 and pb > grid:
        problems.append(f"{tag}: market buy price {pb} above grid price {grid}")
    if volume > 0.0 and pb < ps:
        problems.append(f"{tag}: market buy price {pb} below sell price {ps}")
    # pb - ps is off by at most 1e-6 and the volume by 5e-7
    if abs((pb - ps) * volume - surplus) > LOG_TOL + 5e-7 * (2 * abs(volume) + abs(pb - ps)):
        problems.append(f"{tag}: surplus {surplus} != (buy - sell price) * volume")
    return problems
