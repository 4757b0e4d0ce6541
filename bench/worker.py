"""One workload process of the benchmark; started by ``bench/run.py``.

Protocol on standard output: the line ``@@bench ready`` once imports and
inputs are built (the parent stamps set-up time on it), then, unless
``--mode setup``, one line ``@@bench result <json>``. Output of the program
under test is kept off standard output.

Modes:
  setup  build the first job's inputs and exit (one set-up time sample);
  run    untraced end-to-end measurement for ``--seconds``;
  trace  a fixed amount of work untraced, then the same work (same seeds)
         under the span tracer; reports the per-layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import asympatch  # noqa: E402
from asympatch import asymmetry, cli, train  # noqa: E402
from asympatch.sampling import SamplerConfig  # noqa: E402

import tracer as tracing  # noqa: E402

WORKLOADS = ("train-smoke", "train-multiview", "analyze-mc")
TRAIN_STEPS = 100          # so that p90 of one job has 10 samples beyond it
MC_S = 0.25
MC_GAMMAS = (0.0, 1.0, 2.0, 3.0, 4.0)
MC_TRIALS = 8192           # two full 4096-row chunks per configuration: the
                           # CLI default (20000) runs several chunks per call,
                           # and its peak RSS comes from the second chunk on
MC_GRID = 32
TRACE_ANALYZE_JOBS = 2     # fixed work of a traced analyze-mc run


def emit(kind, payload=None):
    suffix = "" if payload is None else " " + json.dumps(payload)
    print(f"@@bench {kind}{suffix}", flush=True)


def derive_seeds(seed):
    """Endless stream of seeds derived from one seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


class Ledger:
    """Operations attempted and failed, with the reason of each failure. A
    run is correct only if no reason was recorded."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, ok, reason, n=1):
        self.attempted += n
        if not ok:
            self.fail(reason, n)

    def fail(self, reason, n=0):
        """Record a failed check on ``n`` operations already attempted."""
        self.failed += n
        self.reasons.append(reason)


# ---------------------------------------------------------------------------
# training workloads

def train_config(workload, seed):
    data_seed, train_seed = itertools.islice(derive_seeds(seed), 2)
    dataset = train.DatasetSpec(kind="synthetic", n_classes=2, n_per_class=128,
                                image_size=16, seed=data_seed)
    cfg = train.smoke_config(total_steps=TRAIN_STEPS, dataset=dataset,
                             seed=train_seed)
    if workload == "train-multiview":
        # batch 16 keeps 100 steps of 8 encoder forwards within the run budget
        cfg = dataclasses.replace(
            cfg, batch_size=16, clip_enabled=True, momentum_encoder=True,
            checkpoint_every=25,
            sampler=SamplerConfig(s1=0.25, s2=0.25, gamma=3.0, n_views=4))
    return cfg


class TrainJob:
    """``run_training`` into a temp dir, then the kNN probe, as
    ``asympatch train`` does."""

    def __init__(self, workload, seed):
        self.config = train_config(workload, seed)
        self.records = train.load_dataset(self.config.dataset)
        self.state = train.init_train_state(self.config)
        self.items = self.config.batch_size * self.config.total_steps

    def run(self, scratch):
        cfg = self.config
        self.out = tempfile.mkdtemp(dir=scratch)
        self.error = self.acc = None
        t0 = time.perf_counter()
        try:
            train.run_training(cfg, out_dir=self.out, state=self.state)
            t1 = time.perf_counter()
            ref, held = train.probe_split(self.records, cfg)
            self.acc = train.knn_probe(cfg, self.state.params, ref, held)
        except Exception as exc:  # noqa: BLE001 -- reported as failed operations
            self.error = repr(exc)
            t1 = time.perf_counter()
        t2 = time.perf_counter()
        self.work_s, self.job_s = t1 - t0, t2 - t0

    def check(self, ledger):
        """Output checks; returns the mean loss over the last tenth of steps."""
        cfg, state = self.config, self.state
        losses = [row[2] for row in state.metrics]
        for i, loss in enumerate(losses):
            ledger.op(math.isfinite(loss), f"step {i}: loss {loss}")
        if len(losses) < cfg.total_steps:
            ledger.op(False, f"training stopped at step {len(losses)}: {self.error}",
                      n=cfg.total_steps - len(losses))
        rows = _csv_rows(os.path.join(self.out, "metrics.csv"))
        ledger.op(rows == [(int(r[0]), r[2]) for r in state.metrics]
                  and len(rows) == cfg.total_steps,
                  "metrics.csv does not hold one row per step")
        ledger.op(self.acc is not None and 0.0 <= self.acc <= 1.0,
                  f"probe accuracy {self.acc} ({self.error})")
        every = cfg.checkpoint_every
        ckpts = [(f"step{s:06d}.ckpt", s)
                 for s in range(every, cfg.total_steps + 1, every)] if every else []
        ckpts.append(("final.ckpt", cfg.total_steps))
        for name, step in ckpts:
            path = os.path.join(self.out, name)
            ok = _checkpoint_ok(path, step, state if name == "final.ckpt" else None)
            ledger.op(ok, f"{name} does not load back at step {step}")
        shutil.rmtree(self.out, ignore_errors=True)
        tail = losses[-max(1, len(losses) // 10):]
        return statistics.fmean(tail) if losses else math.nan


def _csv_rows(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()[1:]
        return [(int(f[0]), float(f[2])) for f in (ln.split(",") for ln in lines)]
    except (OSError, ValueError, IndexError):
        return None


def _checkpoint_ok(path, step, state):
    try:
        loaded = train.checkpoint_load(path)
    except (OSError, KeyError, ValueError, train.CheckpointError):
        return False
    if loaded.step != step:
        return False
    return state is None or all(np.array_equal(loaded.params[k], v)
                                for k, v in state.params.items())


# ---------------------------------------------------------------------------
# analyze-mc

class AnalyzeJob:
    """``asympatch analyze`` through ``cli.main`` on grid 32: naive/identical
    plus selective/random at each gamma, CSVs written to a temp dir."""

    def __init__(self, seed, scratch):
        self.seed = seed
        self.config_path = os.path.join(scratch, "analyze.ini")
        with open(self.config_path, "w") as fh:
            fh.write(f"[analyze]\ns1 = {MC_S}\ns2 = {MC_S}\n"
                     f"gammas = {','.join(str(g) for g in MC_GAMMAS)}\n"
                     f"trials = {MC_TRIALS}\ngrid = {MC_GRID}\n"
                     "crop_model = random\n")
        self.items = (1 + len(MC_GAMMAS)) * MC_TRIALS

    def run(self, scratch):
        self.out = tempfile.mkdtemp(dir=scratch)
        argv = ["analyze", "--config", self.config_path, "--out", self.out,
                "--seed", str(self.seed)]
        self.error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                self.error = f"exit code {code}"
        except Exception as exc:  # noqa: BLE001 -- reported as failed operations
            self.error = repr(exc)
        self.work_s = self.job_s = time.perf_counter() - t0

    def check(self, ledger):
        """Per-configuration report checks; returns the report rows."""
        try:
            with open(os.path.join(self.out, "analyze_report.csv")) as fh:
                fields = [ln.split(",") for ln in fh.read().splitlines()[1:]]
            rows = [{"strategy": f[0], "gamma": float(f[4]), "trials": int(f[6]),
                     "estimate": float(f[8]), "std_error": float(f[9])}
                    for f in fields]
        except (OSError, ValueError, IndexError):
            rows = []
        for r in rows:
            ledger.op(math.isfinite(r["estimate"]) and r["std_error"] > 0.0
                      and r["trials"] == MC_TRIALS, f"bad report row {r}")
        missing = 1 + len(MC_GAMMAS) - len(rows)
        if missing > 0:
            ledger.op(False, f"{missing} report rows missing ({self.error})",
                      n=missing)
        shutil.rmtree(self.out, ignore_errors=True)
        return rows


def _pooled(rows, strategy, gamma):
    sel = [r for r in rows if r["strategy"] == strategy and r["gamma"] == gamma]
    n = sum(r["trials"] for r in sel)
    est = sum(r["estimate"] * r["trials"] for r in sel) / n
    se = math.sqrt(sum((r["std_error"] * r["trials"]) ** 2 for r in sel)) / n
    return est, se, len(sel)


def analyze_quality(rows, ledger):
    """Run-level checks on the reports pooled over the run's jobs; returns the
    gamma = 3 selective/naive overlap ratio.

    Criterion 2: the naive/identical estimate lies within 3 standard errors of
    s1*s2. Criterion 3 clause (b): the gamma = 3 selective/naive ratio lies in
    [0.15, 0.25]. Clause (a), against the idealized 0.0125, is known not to
    hold and is not checked. A failed check fails every configuration it
    pooled.
    """
    if not rows:
        return math.nan
    naive, naive_se, n_naive = _pooled(rows, "naive", 0.0)
    if abs(naive - MC_S * MC_S) > 3.0 * naive_se:
        ledger.fail(f"naive estimate {naive} +- {naive_se} vs {MC_S * MC_S}",
                    n=n_naive)
    selective, _, n_sel = _pooled(rows, "selective", 3.0)
    ratio = selective / naive
    if not 0.15 <= ratio <= 0.25:
        ledger.fail(f"gamma=3 selective/naive ratio {ratio}", n=n_sel)
    return ratio


def make_job(workload, seed, scratch):
    if workload == "analyze-mc":
        return AnalyzeJob(seed, scratch)
    return TrainJob(workload, seed)


# ---------------------------------------------------------------------------
# untraced run

def time_calls(module, name, sink):
    """Rebind ``module.name`` to a wrapper appending each call's ms to sink."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((time.perf_counter() - t0) * 1e3)

    setattr(module, name, timed)


def measure_run(workload, seed, seconds, scratch, job):
    """Closed loop of jobs for ``seconds``: the next job starts only while
    one as long as the last still fits. Returns the end-to-end metrics."""
    ledger = Ledger()
    step_ms, jobs, quality, rows = [], [], [], []
    if workload == "analyze-mc":
        time_calls(asymmetry, "monte_carlo_overlap", step_ms)
    else:
        time_calls(train, "train_step", step_ms)
    seeds = derive_seeds(seed)
    next(seeds)                            # the first job's, built in set-up
    start = time.perf_counter()
    while True:
        job.run(scratch)
        jobs.append(job)
        if workload == "analyze-mc":
            rows += job.check(ledger)
        else:
            quality.append(job.check(ledger))
        if time.perf_counter() - start + job.job_s > seconds:
            break
        job = make_job(workload, next(seeds), scratch)
    if workload == "analyze-mc":
        quality.append(analyze_quality(rows, ledger))
    metrics = {
        "items_per_s": sum(j.items for j in jobs if j.error is None)
        / sum(j.work_s for j in jobs),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": statistics.quantiles(step_ms, n=10, method="inclusive")[8],
        "job_s": statistics.median(j.job_s for j in jobs),
        "quality": statistics.fmean(quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - ledger.failed / max(ledger.attempted, 1),
    }
    return metrics, ledger, {"jobs": len(jobs), "steps": len(step_ms)}


# ---------------------------------------------------------------------------
# traced run

def measure_trace(workload, seed, scratch, spans_dir):
    """Fixed work (one training job, or TRACE_ANALYZE_JOBS analyze jobs) run
    three times with the same seeds: untraced, traced, untraced. The mean of
    the two untraced passes cancels a linear drift in machine speed when it is
    compared with the traced pass. The spans are written to ``spans_dir``."""
    ledger = Ledger()
    n_jobs = TRACE_ANALYZE_JOBS if workload == "analyze-mc" else 1
    seeds = list(itertools.islice(derive_seeds(seed), n_jobs))

    def run_all(jobs):
        t0 = time.perf_counter()
        for job in jobs:
            job.run(scratch)
        return time.perf_counter() - t0

    def untraced_pass():
        jobs = [make_job(workload, s, scratch) for s in seeds]
        wall = run_all(jobs)
        for job in jobs:
            shutil.rmtree(job.out, ignore_errors=True)
        return wall

    tr = tracing.Tracer()
    tracing.install(tr)                    # disabled wrappers only pass calls on
    before_s = untraced_pass()
    jobs = [make_job(workload, s, scratch) for s in seeds]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tr.enabled = True
        traced_s = run_all(jobs)
        tr.enabled = False
    untraced_s = (before_s + untraced_pass()) / 2.0
    checked = [job.check(ledger) for job in jobs]
    if workload == "analyze-mc":
        analyze_quality([row for rows in checked for row in rows], ledger)
    tr.dump(os.path.join(spans_dir, f"spans-{workload}-seed{seed}.jsonl"))
    padded = sum("padding" in str(w.message) for w in caught)
    metrics = layer_metrics(workload, tr, jobs, padded)
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    metrics["trace.accounted_share"] = \
        sum(tr.profile()[0].values()) * 1e-9 / traced_s
    if abs(metrics["trace.accounted_share"] - 1.0) > 0.05:
        ledger.fail("layer self times do not sum to the traced wall time: "
                    f"{metrics['trace.accounted_share']}")
    for problem in tr.problems():
        ledger.fail(f"tracer: {problem}")
    return metrics, ledger, {"jobs": n_jobs, "spans": len(tr.spans),
                             "traced_s": traced_s, "untraced_s": untraced_s}


LAYERS = ("encoder", "data", "sampling", "geometry", "asymmetry", "objective",
          "optim", "serialize", "train", "cli")
SELF_MS = tuple(
    [f"encoder.{op}_{d}" for op in ("gelu", "attention", "linear", "layernorm",
                                     "batchnorm") for d in ("forward", "backward")]
    + ["encoder.patchify", "encoder.patchify_backward", "data.augment",
       "sampling.sample_sparse", "sampling.overlap_profile",
       "sampling.sample_selective_views", "sampling.sample_multi_view",
       "objective.multiview_loss", "optim.adamw_step", "optim.clip_update",
       "optim.momentum_encoder_update", "serialize.save_arrays",
       "train.train_step", "train.embed_records", "train.knn_probe"])
CALLS = ("encoder.forward_branch", "encoder.encode", "data.augment",
         "sampling.weighted_sample_without_replacement")
MS_PER_CALL = ("data.synth_dataset", "train.load_dataset")


def layer_metrics(workload, tr, jobs, padded):
    """The per-layer table. Times are per training step on train-* and per
    analyze invocation on analyze-mc; counts are totals over the traced work."""
    self_ns, incl_ns = tr.profile()
    is_train = workload != "analyze-mc"
    units = sum(j.config.total_steps for j in jobs) if is_train else len(jobs)
    ms = 1e-6 / units
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = ms * sum(
            v for k, v in self_ns.items() if k.split(".", 1)[0] == layer)
    for name in SELF_MS:
        m[f"{name}.self_ms"] = ms * self_ns.get(name, 0)
    for name in CALLS:
        m[f"{name}.calls"] = tr.counts[f"{name}.calls"]
    for name in MS_PER_CALL:
        calls = tr.counts[f"{name}.calls"]
        m[f"{name}.ms"] = 1e-6 * incl_ns.get(name, 0) / calls if calls else 0.0
    m["encoder.tokens_encoded"] = tr.counts["encoder.tokens_encoded"]
    m["encoder.matmul_gflop"] = tr.counts["encoder.matmul_flop"] / 1e9
    m["encoder.matmul_unparsed_calls"] = tr.counts["encoder.matmul_unparsed_calls"]
    m["sampling.padded_draws"] = padded
    m["serialize.bytes_written"] = tr.counts["serialize.bytes_written"]
    m["asymmetry.trials"] = sum(tr.trials.values())
    for strategy in ("naive", "selective"):
        n = tr.trials[strategy]
        m[f"asymmetry.{strategy}_us_per_trial"] = \
            1e-3 * tr.trial_ns[strategy] / n if n else 0.0
    hits = [row[4] for j in jobs for row in j.state.metrics] if is_train else []
    m["optim.clip_trigger_share"] = statistics.fmean(hits) if hits else 0.0
    m["train.probe_ms"] = 1e-6 * sum(
        incl_ns.get(n, 0) for n in ("train.probe_split", "train.knn_probe")) / len(jobs)
    return m


# ---------------------------------------------------------------------------

def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--scratch", required=True,
                   help="temp dir for job outputs; the caller removes it")
    args = p.parse_args(argv)
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(asympatch.__file__).startswith(src + os.sep):
        print(f"error: asympatch imported from {asympatch.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.mode == "trace":
        emit("ready")
        metrics, ledger, info = measure_trace(
            args.workload, args.seed, args.scratch, os.path.join(ROOT, ".bench_run"))
    else:
        job = make_job(args.workload, next(derive_seeds(args.seed)), args.scratch)
        emit("ready")
        if args.mode == "setup":
            return 0
        metrics, ledger, info = measure_run(args.workload, args.seed,
                                            args.seconds, args.scratch, job)
    emit("result", {"metrics": metrics, "correct": not ledger.reasons,
                    "attempted": ledger.attempted, "failed": ledger.failed,
                    "reasons": ledger.reasons[:20],
                    "info": info, "machine": machine_facts()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
