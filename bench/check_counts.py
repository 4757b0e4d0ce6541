"""Check that the traced run's exact counts repeat across same-seed runs.

    python3 bench/check_counts.py [--seed N]

Runs ``bench/run.py --trace 1`` twice for every workload of BENCHMARK.json
with the same seed and compares the count metrics bit for bit. Exits 1 if
any differs. A later change may cite one of these counts only while this
check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
COUNTS = (
    "encoder.forward_branch.calls", "encoder.encode.calls",
    "encoder.tokens_encoded", "encoder.matmul_gflop",
    "encoder.matmul_unparsed_calls", "data.augment.calls",
    "sampling.padded_draws", "sampling.weighted_sample_without_replacement.calls",
    "asymmetry.trials", "optim.clip_trigger_share", "serialize.bytes_written",
)


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: result["metrics"][k]["value"] for k in COUNTS}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    ok = True
    for workload in workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        for name in COUNTS:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:<16} {name:<52} {first[name]!r:>14} "
                  f"{'repeats' if same else 'DIFFERS: ' + repr(second[name])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
