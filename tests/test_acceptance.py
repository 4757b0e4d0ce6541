"""Acceptance gate: one test per criterion, each printing a pass/fail line
with the measured values. Run with ``pytest tests/test_acceptance.py -v``.

Criterion 3's first clause (the idealized closed form 0.0125 within 10%)
is known not to hold under the realized crop geometry; the test states the
criterion as specified and is expected to fail there, with both measurement
routes printed. See README "Install and test" for the analysis.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from conftest import fd_directional

import asympatch as ap
from asympatch.asymmetry import (mechanism_expectation, monte_carlo_overlap,
                                 pdf_normalization, reports_to_csv)
from asympatch.encoder import (BACKBONES, HEADS, backward_branch,
                               forward_branch, init_params)
from asympatch.objective import contrastive_loss, info_nce
from asympatch.optim import ClipState, clip_update
from asympatch.sampling import SamplerConfig
from asympatch.train import (DatasetSpec, TrainConfig, init_train_state,
                             knn_probe, load_dataset, metrics_csv,
                             probe_split, run_training, smoke_config,
                             train_step)

TRIALS = 100_000
GRID = 32
S = 0.25
GAMMA = 3.0


def report(n, verdict, detail):
    print(f"[criterion {n}] {verdict}: {detail}")


@pytest.fixture(scope="module")
def naive_identical():
    return monte_carlo_overlap("naive", S, S, 0.0, "identical", GRID, TRIALS,
                               seed=0)


@pytest.fixture(scope="module")
def smoke_run():
    start = time.time()
    config = smoke_config()
    state = run_training(config)
    return config, state, time.time() - start


def test_criterion_1_normalization_identity():
    start = time.time()
    worst = 0.0
    for gamma in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0):
        for s1 in (0.15, 0.25, 0.5, 1.0):
            worst = max(worst, abs(pdf_normalization(gamma, s1) - s1))
    elapsed = time.time() - start
    report(1, "PASS" if worst < 1e-6 else "FAIL",
           f"density integral vs s1, worst |err| {worst:.2e} "
           f"over 24 (gamma, s1) pairs in {elapsed:.3f}s")
    assert worst < 1e-6
    assert elapsed < 1.0


def test_criterion_2_naive_expectation(naive_identical):
    rep = naive_identical
    dev = abs(rep.estimate - 0.0625)
    report(2, "PASS" if dev < 3 * rep.std_error else "FAIL",
           f"identical-crop naive estimate {rep.estimate:.6f} "
           f"vs 0.0625, |dev| = {dev / rep.std_error:.2f} std errors "
           f"({rep.trials} trials)")
    assert dev < 3 * rep.std_error


def test_criterion_3_selective_expectation(naive_identical):
    start = time.time()
    rep = monte_carlo_overlap("selective", S, S, GAMMA, "random", GRID,
                              TRIALS, seed=0)
    elapsed = time.time() - start
    ideal = ap.expected_overlap_selective(S, S, GAMMA)
    confirm = mechanism_expectation(S, S, GAMMA, "random", GRID, 40_000,
                                    seed=0)
    ratio = rep.estimate / naive_identical.estimate
    rel = abs(rep.estimate - ideal) / ideal
    clause_a = rel <= 0.10
    clause_b = 0.15 <= ratio <= 0.25
    report(3, "PASS" if clause_a and clause_b else "FAIL",
           f"selective estimate {rep.estimate:.6f} vs idealized {ideal:.6f} "
           f"(rel dev {rel * 100:.1f}%, clause<=10%: {clause_a}); "
           f"integration-route confirmation {confirm:.6f}; "
           f"selective/naive ratio {ratio:.4f} in [0.15, 0.25]: {clause_b}; "
           f"{elapsed:.1f}s")
    assert elapsed < 60.0
    assert clause_b, f"selective/naive ratio {ratio:.4f} outside [0.15, 0.25]"
    # Known-red clause: the idealized uniform-overlap model overstates the
    # realized expectation. Monte Carlo sits ~19% below it (~0.0102) and the
    # mean-field integration route ~26.5% below (~0.0092).
    assert clause_a, (
        f"selective estimate {rep.estimate:.6f} deviates {rel * 100:.1f}% "
        f"from the idealized {ideal}; the independent integration route "
        f"gives {confirm:.6f}, confirming the mechanism rather than the "
        f"idealized value"
    )


def test_criterion_4_gamma_zero_degeneracy():
    sel = monte_carlo_overlap("selective", S, S, 0.0, "random", GRID, TRIALS,
                              seed=11)
    nai = monte_carlo_overlap("naive", S, S, 0.0, "random", GRID, TRIALS,
                              seed=11)
    sigma = float(np.hypot(sel.std_error, nai.std_error))
    dev = abs(sel.estimate - nai.estimate)
    report(4, "PASS" if dev < 3 * sigma else "FAIL",
           f"gamma=0 selective {sel.estimate:.6f} vs naive {nai.estimate:.6f} "
           f"on paired ensembles, |dev| = {dev / sigma:.2f} sigma")
    assert dev < 3 * sigma


def test_criterion_5_gradient_exactness():
    # Directional derivatives (3 random unit directions per parameter
    # tensor), Richardson-extrapolated central differences, double
    # precision, 2-sample batch on the micro preset. Structurally-zero
    # directions (key biases cancel in softmax) are covered by the 1e-6
    # absolute term; everything else must agree to 1e-4 relative.
    bb = BACKBONES["vit-micro"]
    hc = HEADS["micro"]
    params = init_params(bb, hc, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    batch = 2
    tau = 0.1
    pix1 = rng.random((batch, bb.image_size, bb.image_size, 3))
    pix2 = rng.random((batch, bb.image_size, bb.image_size, 3))
    k = bb.n_patches // 4
    idx1 = np.stack([rng.choice(bb.n_patches, k, replace=False)
                     for _ in range(batch)])
    idx2 = np.stack([rng.choice(bb.n_patches, k, replace=False)
                     for _ in range(batch)])

    z1, q1, c1 = forward_branch(bb, hc, params, pix1, idx1)
    z2, q2, c2 = forward_branch(bb, hc, params, pix2, idx2)
    res = contrastive_loss(q1, z1, q2, z2, tau)
    assert np.all(res.grad_z1 == 0.0) and np.all(res.grad_z2 == 0.0)
    grads = backward_branch(bb, hc, c1, res.grad_q1)
    for name, g in backward_branch(bb, hc, c2, res.grad_q2).items():
        grads[name] = grads.get(name, 0.0) + g

    z1f, z2f = z1.copy(), z2.copy()

    def value(p):
        _, q1n, _ = forward_branch(bb, hc, p, pix1, idx1)
        _, q2n, _ = forward_branch(bb, hc, p, pix2, idx2)
        return tau * (info_nce(q1n, z2f, tau) + info_nce(q2n, z1f, tau))

    dir_rng = np.random.default_rng(2)
    worst = 0.0
    worst_name = ""
    for name in sorted(params):
        for _ in range(3):
            u = dir_rng.normal(size=params[name].shape)
            u /= np.linalg.norm(u)
            fd = fd_directional(value, params, name, u)
            analytic = float((grads[name] * u).sum())
            excess = abs(fd - analytic) - 1e-6      # absolute noise floor
            rel = excess / max(abs(fd), abs(analytic), 1e-6) if excess > 0 else 0.0
            if rel > worst:
                worst, worst_name = rel, name
    verdict = "PASS" if worst < 1e-4 else "FAIL"
    report(5, verdict,
           f"full-stack directional finite differences over {len(params)} "
           f"tensors, max rel err {worst:.2e} (worst tensor: {worst_name}); "
           f"stop-gradient partials identically zero")
    assert worst < 1e-4


def test_criterion_6_clip_behavior():
    # untriggered: bitwise passthrough
    state = ClipState(m=0.4, alpha=1.05, ema_grad=np.array([2.0, 0.0, 0.0]))
    g = np.array([0.5, 0.5, 0.5])
    out = clip_update(state, g)
    untriggered_ok = out is g
    # triggered: output norm equals the previous EMA norm within 1e-6 rel
    ema = np.array([1.0, 2.0, 2.0])
    state = ClipState(m=0.4, alpha=1.05, ema_grad=ema.copy())
    big = np.array([30.0, -40.0, 0.0])
    out = clip_update(state, big)
    norm_err = abs(np.linalg.norm(out) - np.linalg.norm(ema)) \
        / np.linalg.norm(ema)
    triggered_ok = norm_err < 1e-6
    # EMA closed form for constant streams, 1e-12
    m = 0.4
    ema0 = np.array([0.3, -0.2, 0.7])
    const = np.array([1.5, 0.5, -1.0])
    state = ClipState(m=m, alpha=1e9, ema_grad=ema0.copy())
    worst = 0.0
    for t in range(1, 16):
        clip_update(state, const)
        closed = (m ** t) * ema0 + (1.0 - m ** t) * const
        worst = max(worst, float(np.max(np.abs(state.ema_grad - closed))))
    ema_ok = worst < 1e-12
    verdict = "PASS" if untriggered_ok and triggered_ok and ema_ok else "FAIL"
    report(6, verdict,
           f"untriggered passthrough bitwise: {untriggered_ok}; "
           f"triggered norm rel err {norm_err:.2e}; "
           f"EMA closed-form max err {worst:.2e}")
    assert untriggered_ok and triggered_ok and ema_ok


def test_criterion_7_smoke_training(smoke_run):
    config, state, elapsed = smoke_run
    losses = [row[2] for row in state.metrics]
    first20 = float(np.mean(losses[:20]))
    last20 = float(np.mean(losses[-20:]))
    records = load_dataset(config.dataset)
    ref, held = probe_split(records, config)
    acc = knn_probe(config, state.params, ref, held)
    rng = np.random.default_rng(99)
    baselines = []
    for _ in range(10):
        perm = rng.permutation(len(ref))
        shuffled = [ap.ImageRecord(pixels=r.pixels, label=ref[p].label,
                                   source_id=r.source_id)
                    for r, p in zip(ref, perm)]
        baselines.append(knn_probe(config, state.params, shuffled, held))
    baseline = float(np.mean(baselines))
    margin = (acc - baseline) * 100.0
    ok = last20 < first20 and margin >= 15.0 and elapsed < 300.0 \
        and state.step <= 200
    report(7, "PASS" if ok else "FAIL",
           f"{state.step} steps in {elapsed:.0f}s; windowed loss "
           f"{first20:.3f} -> {last20:.3f}; knn {acc:.3f} vs shuffled "
           f"{baseline:.3f} (margin {margin:.1f} pts, need >= 15)")
    assert state.step <= 200
    assert elapsed < 300.0
    assert last20 < first20
    assert margin >= 15.0


def test_criterion_8_determinism():
    def tiny():
        cfg = TrainConfig(
            backbone="vit-micro", heads="micro",
            dataset=DatasetSpec(kind="synthetic", n_classes=2, n_per_class=16,
                                image_size=16, seed=3),
            sampler=SamplerConfig(), batch_size=8, warmup_steps=1,
            total_steps=3, seed=21,
        )
        state = init_train_state(cfg)
        records = load_dataset(cfg.dataset)
        for _ in range(3):
            pick = state.rng.choice(len(records), size=8, replace=False)
            train_step(state, [records[i] for i in pick])
        return metrics_csv(state.metrics)

    log_a, log_b = tiny(), tiny()
    rep_a = reports_to_csv([monte_carlo_overlap("selective", S, S, GAMMA,
                                                "random", 16, 5000, seed=4)])
    rep_b = reports_to_csv([monte_carlo_overlap("selective", S, S, GAMMA,
                                                "random", 16, 5000, seed=4)])
    logs_ok = log_a == log_b
    reps_ok = rep_a == rep_b
    report(8, "PASS" if logs_ok and reps_ok else "FAIL",
           f"metric logs identical: {logs_ok}; analyzer CSVs identical: "
           f"{reps_ok}")
    assert logs_ok and reps_ok


def test_criterion_9_scale_statement():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text().replace("*", "").split())
    markers = ["not reproducible at desk scale", "82.6%", "84.7%", "97.4%",
               "83.9%", "51.8"]
    missing = [m for m in markers if m not in text]
    report(9, "PASS" if not missing else "FAIL",
           "README states that full-scale pretraining benchmarks are not "
           "reproducible at desk scale and the property suite substitutes"
           + (f"; missing markers: {missing}" if missing else ""))
    assert not missing
