#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread and record a baseline.

Run from the root of a checkout:

    python3 mgbench/baseline.py

For each of two sets and each workload it runs `run.py` once per seed (ten
seeds a set, distinct across sets) for BENCHMARK.json's run_seconds, as separate
processes exactly as the benchmark command line is used, plus one traced run
per workload. It writes mgbench/baseline.json (rewritten after every run):
each end-to-end metric's median and quartiles per workload and set, the
spread (q3 - q1) / median, how far the second set's median moved from the
first's, the traced per-layer values, and the machine it ran on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEEDS_PER_SET = 10
SETS = 2


def machine() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cores": os.cpu_count(),
        "cpu": model or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
    }


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def summarize(runs: list[dict], declared: dict) -> dict:
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    out: dict = {}
    for wl in sorted({r["workload"] for r in runs}):
        per_metric: dict = {}
        for name in better:
            sets = sorted({r["set"] for r in runs if r["workload"] == wl and not r["trace"]})
            by_set = [
                [r["metrics"][name]["value"] for r in runs
                 if r["workload"] == wl and r["set"] == s and not r["trace"]]
                for s in sets
            ]
            by_set = [v for v in by_set if len(v) >= 2]
            if not by_set:
                continue
            entry = {"sets": [stats(v) for v in by_set]}
            if len(by_set) >= 2:
                m1, m2 = entry["sets"][0]["median"], entry["sets"][1]["median"]
                worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
                entry["second_median_worse_by"] = worse
            per_metric[name] = entry
        traced = [r for r in runs if r["workload"] == wl and r["trace"]]
        out[wl] = {"end_to_end": per_metric}
        if traced:
            out[wl]["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
    return out


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    doc = {
        "machine": machine(),
        "settings": {"seconds": seconds, "seeds_per_set": SEEDS_PER_SET, "sets": SETS},
        "runs": [],
    }
    out = BENCH_DIR / "baseline.json"
    for s in range(SETS):
        for wl in workloads:
            plan = [(seed, 0) for seed in range(s * SEEDS_PER_SET, (s + 1) * SEEDS_PER_SET)]
            if s == 0:
                plan.append((0, 1))
            for seed, trace in plan:
                t0 = time.perf_counter()
                result = bench_once(wl, seed, seconds, trace)
                doc["runs"].append({
                    "set": s, "workload": wl, "seed": seed, "trace": trace,
                    "elapsed_s": time.perf_counter() - t0, **result,
                })
                doc["summary"] = summarize(doc["runs"], declared)
                out.write_text(json.dumps(doc, indent=1) + "\n")
                print(
                    f"set {s} {wl} seed {seed} trace {trace}: "
                    f"{time.perf_counter() - t0:.1f}s failed {result['failed']}",
                    flush=True,
                )
    for wl, entry in doc["summary"].items():
        for name, e in entry["end_to_end"].items():
            spreads = " ".join(f"{st['spread']:.3f}" for st in e["sets"])
            drift = e.get("second_median_worse_by")
            print(f"{wl:13s} {name:17s} median {e['sets'][0]['median']:.4g} "
                  f"spread {spreads}"
                  + ("" if drift is None else f" second worse by {drift:+.3f}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
