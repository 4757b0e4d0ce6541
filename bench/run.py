"""Benchmark entry point; run it from the repository root:

    python3 bench/run.py --workload train-smoke --seed 0 --seconds 20 --trace 0

Builds nothing (the package is pure Python under ``src/``). With ``--trace 0``
it takes several set-up samples in fresh processes, then runs the workload
untraced in one more process and prints every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it runs the traced measurement and
prints every per-layer metric. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See
``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_SAMPLES = 5      # fresh processes per run; set-up time is their median
BLAS_THREADS = 1       # at or below nproc; one thread keeps step times steady
# Every child is killed once the run has taken DEADLINE_S, or twice --seconds
# plus a margin if that is longer, so a run at the benchmark's run_seconds
# ends within 180 s while a longer --seconds is still measured.
DEADLINE_S = 170.0
DEADLINE_MARGIN_S = 60.0


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def child_env(root):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, root, env, scratch, mode, deadline):
    """Start one worker; returns (set-up seconds, result payload or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--scratch", scratch]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    killer.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith("@@bench ready"):
                setup_s = time.perf_counter() - start
            elif line.startswith("@@bench result "):
                result = json.loads(line[len("@@bench result "):])
    finally:
        proc.stdout.close()
        code = proc.wait()
        killer.cancel()
    if code != 0 or setup_s is None:
        return None, None
    return setup_s, result


def machine_facts(worker_facts):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "platform": platform.platform(), **worker_facts}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "asympatch", "__init__.py")):
        return fail(f"no src/asympatch under {root}; run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env(root)
    work_dir = os.path.join(root, ".bench_run")
    os.makedirs(work_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=work_dir)
    deadline = start + max(DEADLINE_S, 2.0 * args.seconds + DEADLINE_MARGIN_S)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_s, _ = run_worker(args, root, env, scratch, "setup", deadline)
                if setup_s is None:
                    return fail("set-up process failed")
                setups.append(setup_s)
        setup_s, result = run_worker(args, root, env, scratch,
                                     "trace" if args.trace else "run", deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if result is None:
        return fail("workload process failed or timed out")
    measured = dict(result["metrics"])
    if not args.trace:
        setups.append(setup_s)
        measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"workload did not measure {missing}")

    facts = machine_facts(result["machine"])
    print("# machine " + json.dumps(facts, sort_keys=True))
    print("# info " + json.dumps(result["info"], sort_keys=True))
    for reason in result["reasons"]:
        print(f"# failed: {reason}")
    for m in wanted:
        print(f"{m['name']:<48} {measured[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
