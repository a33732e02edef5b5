"""The columnar log audit against the row-dict audit it replaced.

`tests/oracles.py` keeps the row-dict `read_slots_csv`, `verify_log_rows`
and `verify_audit_csv`. On clean logs both report nothing; on edited logs
they raise the same error or report the same problems, in the same order.
"""

import functools
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtrade.cli import config_from_dict, default_scenario
from mgtrade.errors import ParseError, SimError
from mgtrade.logs import (
    read_slots_csv,
    verify_audit_csv,
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

    def columnar():
        log = read_slots_csv(run_dir / "slots.csv")
        return verify_log_rows(config, log) + verify_audit_csv(run_dir / "auction_audit.csv", log)

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
    assert verify_summary_csv(tmp_path / "summary.csv", config, log) == []


@st.composite
def log_edits(draw):
    """A scenario and one edit of one of its logs: a cell moved, or a row
    deleted, duplicated or swapped with another."""
    name = draw(st.sampled_from(["small-auction", "small-solo"]))
    file = draw(st.sampled_from(["slots.csv", "auction_audit.csv"]))
    lines = written(name)[1][file].split("\r\n")[:-1]
    k = draw(st.integers(1, len(lines) - 1))
    kind = draw(st.sampled_from(["cell", "cell", "cell", "delete", "duplicate", "swap"]))
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
    return name, file, "".join(line + "\r\n" for line in lines)


@settings(max_examples=240, deadline=None)
@given(log_edits())
def test_edited_logs_get_the_reference_problems(tmp_path_factory, edit):
    name, file, text = edit
    config, texts = written(name)
    run_dir = tmp_path_factory.mktemp("edited")
    write_logs(run_dir, {**texts, file: text})
    columnar, reference = both_audits(config, run_dir)
    assert columnar == reference
    shutil.rmtree(run_dir)
