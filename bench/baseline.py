"""Record a commit's benchmark results as a BENCH file.

    python3 bench/baseline.py --out bench/BENCH_1.json [--seeds 1-10]

For every seed, one untraced run of the benchmark's ``run_seconds`` on each
workload in BENCHMARK.json in turn; then, per workload, each end-to-end
metric's median and quartile spread (the distance between the first and
third quartiles of ``statistics.quantiles(values, n=4)``, as a share of the
median). Also one traced run per workload on the first seed and the
exact-count repeat check. Run it from the repository root, with nothing else
busy on the machine; ten seeds of the three workloads take about 25 minutes
on 2 CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    machine = next(json.loads(ln[len("# machine "):]) for ln in lines
                   if ln.startswith("# machine "))
    return json.loads(lines[-1]), machine


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    names = [w["name"] for w in spec["workloads"]]
    # Workloads take turns within each seed, so a slow spell of the machine
    # is shared by all of them instead of landing on one workload's set.
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            result, machine = bench(name, seed, seconds, 0)
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
    for name in names:
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[name]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[m["name"]] = {"unit": m["unit"], "median": median,
                                  "spread": (q3 - q1) / median,
                                  "bound": m["bound"], "values": values}
        traced, _ = bench(name, args.seeds[0], seconds, 1)
        report["machine"] = machine
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs[name]) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    counts = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "check_counts.py"),
         "--seed", str(args.seeds[0])], capture_output=True, text=True)
    report["counts_repeat"] = counts.returncode == 0
    report["counts_check"] = counts.stdout.splitlines()
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, wl in report["workloads"].items():
        for metric, s in wl["end_to_end"].items():
            print(f"{name:<16} {metric:<12} median {s['median']:>12.6g} {s['unit']:<8} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})")
    print(f"exact counts repeat: {report['counts_repeat']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
