#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny size; gates on no timing.

Run from the root of a checkout:

    python3 mgbench/selfcheck.py

It swaps in tiny workloads (two or four MGs, a few slots), then:

1. runs run.py's main with --trace 0 and --trace 1 and checks the printed
   result against BENCHMARK.json: the exact keys, whole-number counts, no
   failures, and every declared metric present as a finite number with its
   declared unit;
2. pins the digests of a clean run, tampers with one value of a copied
   `slots.csv`, and checks that both the audit and the digest check of the
   copy are counted as failed operations rather than passing.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402

TINY = {
    "tiny-both": bench.Workload(mgs=2, horizon=12, mode="both", sweep=(2, 6)),
    "tiny-auction": bench.Workload(mgs=4, horizon=8, mode="auction"),
}


def check_result(lines: list[str], declared: list[dict]) -> list[str]:
    problems = []
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"last line is not JSON: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted={result['attempted']!r}")
    want = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(want):
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(want))}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(name):
            problems.append(f"{name}: {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r}")
    return problems


def check_schema(name: str, trace: int, declared: list[dict]) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bench.main(
            ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        )
    if code != 0:
        return [f"exit code {code}"]
    return check_result(buf.getvalue().splitlines(), declared)


def tamper(slots_csv) -> None:
    """Add 1 kWh to the battery of the second row; the audit's step check breaks."""
    with open(slots_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("battery_kwh")
    rows[2][col] = f"{float(rows[2][col]) + 1.0:.6f}"
    with open(slots_csv, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def check_tamper_counted(name: str) -> list[str]:
    subdirs = bench.RUN_SUBDIRS[TINY[name].mode]
    work = bench.WORK_ROOT / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        session = bench.build_session(name, 0, work, {})
        run_dir = work / "out" / "run"
        ops = bench.Ops()
        for command in session.commands:
            bench.run_command(session, ops, command)
        pinned = {sub: bench.sha256(run_dir / sub / "slots.csv") for sub in subdirs}
        clean_digest = bench.check_digests(run_dir, subdirs, pinned)
        if ops.failed or clean_digest:
            return [f"clean pass failed: {ops.failed} ops, {clean_digest}"]

        copy = work / "tampered"
        shutil.copytree(run_dir, copy)
        tamper(copy / subdirs[0] / "slots.csv")
        audit = bench.Command(
            "audit", ("audit", str(copy)), lambda c, t: bench.check_audit(c, t, len(subdirs))
        )
        bench.run_command(session, ops, audit)
        ops.record("tampered digest", bench.check_digests(copy, subdirs, pinned))
        if ops.failed != 2:
            return [f"tampered copy counted {ops.failed} failures, want 2"]
        return []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    bench.WORKLOADS = TINY
    bench.MIN_PASSES = bench.SETUP_PER_PASS = bench.IMPORT_REPS = 1
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    checks = [
        (f"{name} --trace {t} result schema",
         lambda n=name, t=t: check_schema(n, t, declared["per_layer" if t else "end_to_end"]))
        for name in TINY
        for t in (0, 1)
    ]
    checks.append(("tampered slots.csv counted as failed",
                   lambda: check_tamper_counted("tiny-both")))
    ok = True
    for label, check in checks:
        problems = check()
        print(f"{'PASS' if not problems else 'FAIL'}  {label}")
        for p in problems:
            print(f"      {p}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
