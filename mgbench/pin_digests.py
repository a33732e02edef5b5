#!/usr/bin/env python3
"""Pin the sha256 of every `slots.csv` the benchmark's `run` commands write.

Run from the root of a checkout whose simulator output is the reference:

    python3 mgbench/pin_digests.py

It runs each workload's `mgtrade run` command once per seed 0..31 and writes
mgbench/digests.json. run.py then counts a run whose `slots.csv` differs from
the pinned bytes as failed: a change that only speeds the simulator up must
leave every simulated number identical.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402

PINNED_SEEDS = 32


def main() -> int:
    digests: dict = {}
    for name, wl in bench.WORKLOADS.items():
        for seed in range(PINNED_SEEDS):
            work = bench.WORK_ROOT / f"pin-{name}-seed{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                session = bench.build_session(name, seed, work, {})
                run_cmd = session.commands[0]
                stdout = work / "run.txt"
                code, _, _ = bench.run_child(session, bench.cli_argv(run_cmd), stdout)
                problems = run_cmd.check(code, stdout.read_text())
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                run_dir = work / "out" / "run"
                digests.setdefault(name, {})[str(seed)] = {
                    sub: bench.sha256(run_dir / sub / "slots.csv")
                    for sub in bench.RUN_SUBDIRS[wl.mode]
                }
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed}: {digests[name][str(seed)]}", flush=True)
    bench.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
