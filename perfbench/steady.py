#!/usr/bin/env python3
"""Steadiness check and baseline record for the linvar benchmark.

Runs the command of BENCHMARK.json once per seed on each workload, then
reports for every end-to-end metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the interquartile
distance as a share of the median. A spread at or above a third of the
metric's bound is flagged, for every bounded metric, `setup_s` included.
Every run must report `"correct": true`.

With `--baseline`, one traced run per workload follows and the results
are written to `perfbench/BASELINE.json`: git revision, `nproc`, each
metric's median and spread, the traced per-layer table, and
`host_probe_s`, a fixed pure-Python loop timed before and after each
workload's runs, so records taken on a slowed host show it. Workloads
not run keep their earlier entries. A workload entry whose `steady` is
false had a flagged spread: its medians moved with the host, so later
runs are not to be compared against it.

Run from the repository root:

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --seeds 5 --workloads rc_chains
    python3 perfbench/steady.py --seeds 10 --baseline
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def host_probe():
    """Median seconds of a fixed pure-Python loop: a marker of how fast the
    host ran when a workload was measured, independent of the program."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(2_000_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_revision():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    steady = True
    for name in names:
        values = {m: [] for m in bounds}
        counts = []
        probe = host_probe()
        for seed in record["seeds"]:
            result, elapsed = run(bench, name, seed, 0)
            counts.append((result["attempted"], result["failed"]))
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: {elapsed:.1f} s, "
                  + ", ".join(f"{m}={values[m][-1]:.4g}" for m in bounds), flush=True)
        entry = {
            "end_to_end": {},
            "attempted_failed": counts,
            "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "steady": True,
            "host_probe_s": [probe, host_probe()],
        }
        for m, vs in values.items():
            s = spread(vs)
            s["bound"] = bounds[m]
            entry["end_to_end"][m] = s
            flag = "ok"
            if s["spread"] >= bounds[m] / 3:
                flag = "WIDE"
                entry["steady"] = False
            print(f"  {m:<16} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[m]}, target < {bounds[m] / 3:.4f}) {flag}", flush=True)
        if args.baseline:
            result, _ = run(bench, name, record["seeds"][0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        record["workloads"][name] = entry
        steady = steady and entry["steady"]

    if args.baseline:
        # A run over some workloads replaces only their entries.
        path = os.path.join(ROOT, "perfbench", "BASELINE.json")
        if os.path.exists(path):
            with open(path) as f:
                kept = json.load(f)["workloads"]
            record["workloads"] = {**kept, **record["workloads"]}
        with open(path, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
