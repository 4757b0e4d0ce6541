import ctypes
import dataclasses
import functools
import multiprocessing.connection
import os
import time
import warnings

import numpy as np
import pytest
from multiprocessing.reduction import ForkingPickler

import asympatch.pool as pool_mod
import asympatch.train as train_mod
from asympatch import asymmetry
from asympatch.asymmetry import monte_carlo_overlap
from asympatch.data import render_views
from asympatch.encoder import (accumulate_grads, backward_branch, encode,
                               forward_branch, patchify, project)
from asympatch.objective import MultiviewLossResult, contrastive_loss, multiview_loss
from asympatch.optim import (EmaSchedule, adamw_step, cosine_lr,
                             momentum_encoder_update)
from asympatch.sampling import SamplerConfig, sample_views
from asympatch.serialize import CheckpointError, load_arrays, save_arrays
from asympatch.train import (DatasetSpec, TrainConfig, checkpoint_load,
                             checkpoint_save, cifar_config, clip_group_of,
                             init_train_state, knn_probe, load_dataset,
                             metrics_csv, probe_split, run_training,
                             train_step)


def tiny_config(**overrides):
    base = dict(
        backbone="vit-micro",
        heads="micro",
        dataset=DatasetSpec(kind="synthetic", n_classes=2, n_per_class=16,
                            image_size=16, seed=3),
        sampler=SamplerConfig(s1=0.25, s2=0.25, gamma=3.0, n_views=2),
        batch_size=8,
        warmup_steps=2,
        total_steps=10,
        base_lr=1e-3,
        seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


def run_steps(config, n, state=None):
    if state is None:
        state = init_train_state(config)
    records = load_dataset(config.dataset)
    losses = []
    for _ in range(n):
        pick = state.rng.choice(len(records), size=config.batch_size,
                                replace=False)
        losses.append(train_step(state, [records[i] for i in pick]))
    return state, losses


def assert_same_state(a, b):
    """Two training states hold equal values: step, optimizer, clip EMAs,
    online and target networks, metrics and the generator."""
    assert a.step == b.step and a.opt.step == b.opt.step
    assert a.metrics == b.metrics
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert (a.target_params is None) == (b.target_params is None)
    for x, y in [(a.params, b.params), (a.opt.m, b.opt.m), (a.opt.v, b.opt.v),
                 (a.target_params or {}, b.target_params or {})]:
        assert x.keys() == y.keys()
        assert all(np.array_equal(x[k], y[k]) for k in x)
    assert a.clip.keys() == b.clip.keys()
    for g, c in a.clip.items():
        assert (c.m, c.alpha) == (b.clip[g].m, b.clip[g].alpha)
        assert np.array_equal(c.ema_grad, b.clip[g].ema_grad)


class TestPresets:
    def test_cifar_preset_mirrors_recipe(self):
        cfg = cifar_config(dataset_path="unused.bin")
        assert cfg.tau == 0.1
        assert cfg.sampler.s1 == cfg.sampler.s2 == 0.25
        assert cfg.sampler.gamma == 3.0
        assert cfg.batch_size == 512
        assert cfg.base_lr == 1e-3
        assert cfg.weight_decay == 0.05
        assert cfg.clip_enabled is False
        assert cfg.momentum_encoder is False
        steps_per_epoch = (50_000 + 511) // 512
        assert cfg.warmup_steps == 20 * steps_per_epoch
        assert cfg.total_steps == 1600 * steps_per_epoch
        assert cfg.backbone == "vit-tiny-2"

    def test_clip_groups(self):
        assert clip_group_of("blocks.3.attn.w_qkv") == "block3"
        assert clip_group_of("proj.0.w") == "proj"
        assert clip_group_of("pred.bn1.g") == "pred"
        assert clip_group_of("embed.w") == "stem"


class TestTrainStep:
    def test_zero_lr_leaves_parameters_unchanged(self):
        # a base_lr of 0 is rejected; the warmup's first step runs at lr 0
        cfg = tiny_config(warmup_steps=2)
        state = init_train_state(cfg)
        before = {k: v.copy() for k, v in state.params.items()}
        records = load_dataset(cfg.dataset)
        loss = train_step(state, records[:cfg.batch_size])
        assert np.isfinite(loss)
        assert state.metrics[0][1] == 0.0
        for k in before:
            assert np.array_equal(state.params[k], before[k])

    def test_identical_seeds_identical_traces(self):
        _, la = run_steps(tiny_config(), 3)
        _, lb = run_steps(tiny_config(), 3)
        assert la == lb

    def test_different_seeds_differ(self):
        _, la = run_steps(tiny_config(), 2)
        _, lb = run_steps(tiny_config(seed=6), 2)
        assert la != lb

    def test_loss_finite_and_metrics_recorded(self):
        state, losses = run_steps(tiny_config(), 3)
        assert all(np.isfinite(l) for l in losses)
        assert len(state.metrics) == 3
        csv = metrics_csv(state.metrics)
        assert csv.splitlines()[0] == "step,lr,loss,grad_norm,clip_triggered"
        assert len(csv.splitlines()) == 4

    def test_four_views_run_and_learn_shapes(self):
        cfg = tiny_config(sampler=SamplerConfig(s1=0.25, s2=0.25, gamma=3.0,
                                                n_views=4))
        state, losses = run_steps(cfg, 2)
        assert all(np.isfinite(l) for l in losses)

    def test_clip_enabled_path(self):
        cfg = tiny_config(clip_enabled=True, clip_m=0.4, clip_alpha=1.05)
        state, losses = run_steps(cfg, 3)
        assert state.clip            # groups were created
        assert all(np.isfinite(l) for l in losses)

    def test_momentum_encoder_path(self):
        cfg = tiny_config(momentum_encoder=True)
        state, losses = run_steps(cfg, 2)
        assert state.target_params is not None
        online = state.params["embed.w"]
        target = state.target_params["embed.w"]
        assert not np.array_equal(online, target)   # target lags the online
        assert all(np.isfinite(l) for l in losses)

    def test_golden_losses_pin_the_draw_order(self):
        # criterion 8's tiny run; any change to the order or number of the
        # generator's draws (batch pick, crops, flips, colour, sampling)
        # moves these values far beyond float reassociation noise. Recorded
        # with every view's draws taken as arrays (see augment_batch and
        # sample_views for the order).
        cfg = TrainConfig(
            backbone="vit-micro", heads="micro",
            dataset=DatasetSpec(kind="synthetic", n_classes=2, n_per_class=16,
                                image_size=16, seed=3),
            sampler=SamplerConfig(), batch_size=8, warmup_steps=1,
            total_steps=3, seed=21,
        )
        _, losses = run_steps(cfg, 3)
        golden = [2.1251761983053274, 2.0774438773762265, 2.149389845817057]
        assert losses == pytest.approx(golden, rel=1e-9)

    def test_non_finite_loss_aborts_with_dump(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        state = init_train_state(cfg)
        records = load_dataset(cfg.dataset)

        def bad_loss(pairs, tau, ordered_pairs=None):
            n = len(pairs)
            shape = pairs[0][0].shape
            return MultiviewLossResult(
                value=float("nan"),
                grad_q=[np.zeros(shape) for _ in range(n)],
                grad_z=[np.zeros(shape) for _ in range(n)],
            )

        monkeypatch.setattr(train_mod, "multiview_loss", bad_loss)
        dump = tmp_path / "dump.ckpt"
        with pytest.raises(RuntimeError, match="non-finite"):
            train_step(state, records[:cfg.batch_size], dump_path=str(dump))
        assert dump.exists()


@pytest.fixture
def workers(monkeypatch):
    """Set how many processes run encoder and chunk jobs, the caller's
    included (on fresh worker processes), so the parallel path runs whatever
    the host's core count."""
    def use(n):
        pool_mod._stop_workers()
        monkeypatch.setattr(pool_mod, "_CORES", n)
    yield use
    pool_mod._stop_workers()


def serial_step(state, batch):
    """Reference step: every view's whole forward_branch in view order, the
    momentum target's passes after them, then backward_branch and
    accumulate_grads in view order, all on the calling thread."""
    cfg = state.config
    bb, hc = cfg.backbone_config(), cfg.head_config()
    crop1, crop2, views1, views2, _ = train_mod._draw(state, batch)
    pix1, pix2 = render_views(*crop1), render_views(*crop2)
    views = [(pix1, idx) for idx in views1] + [(pix2, idx) for idx in views2]
    branch = [list(forward_branch(bb, hc, state.params, pix, idx))
              for pix, idx in views]
    if cfg.momentum_encoder:
        for entry, (pix, idx) in zip(branch, views):
            tokens, _ = patchify(bb, state.target_params, pix, idx)
            rep, _ = encode(bb, state.target_params, tokens)
            entry[0], _ = project(hc, state.target_params, rep)
    n1 = len(views1)
    ordered = [(j, k) for j in range(n1) for k in range(n1, len(views))]
    ordered += [(k, j) for j, k in ordered]
    result = multiview_loss([(q, z) for z, q, _ in branch], cfg.tau,
                            ordered_pairs=ordered)
    grads = {}
    for (_, _, cache), dq in zip(branch, result.grad_q):
        accumulate_grads(grads, backward_branch(bb, hc, cache, dq))
    for name, p in state.params.items():
        grads.setdefault(name, np.zeros_like(p))
    clip_hit = cfg.clip_enabled and train_mod._clip_groups(state, grads)
    grad_norm = float(np.sqrt(sum(float((g * g).sum())
                                  for g in grads.values())))
    lr = cosine_lr(state.step, cfg.warmup_steps, cfg.total_steps, cfg.base_lr)
    adamw_step(state.opt, state.params, grads, lr)
    if cfg.momentum_encoder:
        sched = EmaSchedule(cfg.ema_start, cfg.ema_end, cfg.total_steps)
        momentum_encoder_update(state.params, state.target_params,
                                sched.coefficient(state.step))
    state.metrics.append((state.step, lr, result.value, grad_norm,
                          float(clip_hit)))
    state.step += 1


def same_bytes(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


BB = train_mod.enc.BACKBONES["vit-micro"]


def fake_encode_view(bb, params, pixels, indices, cache=True):
    """A stand-in for ``enc.encode_view``: the representation is this
    process's id, the sum of the network's arrays, then ``pixels / indices``;
    the cache is the network."""
    rep = np.concatenate([[os.getpid(), sum(float(a.sum())
                                            for a in params.values())],
                          pixels / indices])
    return rep, (params if cache else None)


def fake_encode_view_backward(bb, drep, cache):
    """A stand-in for ``enc.encode_view_backward``: the network times
    ``drep``, its arrays in reverse order."""
    return {name: cache[name] * drep for name in reversed(cache)}


@pytest.fixture
def fake_encoder(monkeypatch):
    """Encoder jobs run the fakes above, on their crops' sources as they
    are, in the caller and, forked with them, in the workers; jobs are data,
    so the fakes are never pickled."""
    monkeypatch.setattr(pool_mod.data, "render_views",
                        lambda sources, draws: sources)
    monkeypatch.setattr(train_mod.enc, "encode_view", fake_encode_view)
    monkeypatch.setattr(train_mod.enc, "encode_view_backward",
                        fake_encode_view_backward)


def small_net():
    """A small network; the sum of its arrays is 19."""
    return {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}


def job(x, net=0, keep=False):
    """A job whose ``pixels / indices`` is ``[x]`` under the fake encoder."""
    return (net, np.full(1, float(x)), np.ones(1), keep)


def run_jobs(nets, jobs):
    """``pool._encode`` of jobs ``(net, pixels, indices, keep)``, each job's
    pixels its own crop, used as they are under :func:`fake_encoder`."""
    return pool_mod._encode(BB, nets, [(pix, None) for _, pix, _, _ in jobs],
                            [(net, c, idx, keep)
                             for c, (net, _, idx, keep) in enumerate(jobs)])


def draw_batch(state, records):
    pick = state.rng.choice(len(records), size=state.config.batch_size,
                            replace=False)
    return [records[i] for i in pick]


def arrays_in(obj) -> list:
    """Every numpy array in ``obj``, through tuples, lists, dict values and
    dataclass fields."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    elif not isinstance(obj, (tuple, list)):
        return []
    return [a for item in obj for a in arrays_in(item)]


def record_sends(monkeypatch) -> list:
    """From now on, every object sent through a pipe, in order."""
    sent = []
    send = multiprocessing.connection.Connection.send

    def recording(conn, obj):
        sent.append(obj)
        send(conn, obj)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                        recording)
    return sent


def count_calls(monkeypatch, name) -> list:
    """From now on, one entry per call of ``train_mod.<name>``."""
    calls, fn = [], getattr(train_mod, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(train_mod, name, counting)
    return calls


def assert_same_bytes(parallel, serial):
    """Two states hold byte-equal values, as ``serial_step`` leaves them."""
    assert parallel.metrics == serial.metrics
    assert parallel.rng.bit_generator.state == serial.rng.bit_generator.state
    for a, b in [(parallel.params, serial.params),
                 (parallel.opt.m, serial.opt.m),
                 (parallel.opt.v, serial.opt.v),
                 (parallel.target_params or {}, serial.target_params or {}),
                 ({k: c.ema_grad for k, c in parallel.clip.items()},
                  {k: c.ema_grad for k, c in serial.clip.items()})]:
        assert same_bytes(a, b)


MULTIVIEW = dict(batch_size=16, clip_enabled=True, momentum_encoder=True,
                 sampler=SamplerConfig(s1=0.25, s2=0.25, gamma=3.0,
                                       n_views=4))


class TestParallelStep:
    @pytest.mark.parametrize("overrides,n", [
        ({}, 2), (MULTIVIEW, 2), (MULTIVIEW, 3)],
        ids=["smoke", "multiview", "multiview-3-processes"])
    def test_matches_the_serial_per_view_step_bit_for_bit(self, workers,
                                                          overrides, n):
        workers(n)
        cfg = train_mod.smoke_config(total_steps=20, **overrides)
        records = load_dataset(cfg.dataset)
        parallel, serial = init_train_state(cfg), init_train_state(cfg)
        for _ in range(4):
            for state, step in ((parallel, train_step),
                                (serial, serial_step)):
                pick = state.rng.choice(len(records),
                                        size=cfg.batch_size, replace=False)
                step(state, [records[i] for i in pick])
        assert len(pool_mod._procs) == n - 1       # the workers ran jobs
        assert parallel.metrics == serial.metrics
        assert same_bytes(parallel.params, serial.params)
        assert same_bytes(parallel.opt.m, serial.opt.m)
        assert same_bytes(parallel.opt.v, serial.opt.v)
        if cfg.momentum_encoder:
            assert same_bytes(parallel.target_params, serial.target_params)
        if cfg.clip_enabled:
            assert any(row[4] for row in serial.metrics)
            assert same_bytes(
                {k: c.ema_grad for k, c in parallel.clip.items()},
                {k: c.ema_grad for k, c in serial.clip.items()})

    @pytest.mark.parametrize("setter,environ,cores,expected", [
        ("scipy_openblas_set_num_threads64_", {}, 2, 2),
        ("scipy_openblas_set_num_threads64_", {"OPENBLAS_NUM_THREADS": "1"},
         2, 2),
        ("openblas_set_num_threads", {"OMP_NUM_THREADS": "1"}, 4, 4),
        ("openblas_set_num_threads", {"GOTO_NUM_THREADS": "2"}, 4, 4),
        ("openblas_set_num_threads64_",
         {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 4),
        ("openblas_set_num_threads64_",
         {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
        ("openblas_set_num_threads", {"MKL_NUM_THREADS": "1"}, 2, 2),
        (None, {"MKL_NUM_THREADS": "2"}, 4, 1),         # MKL: serial
        (None, {"OPENBLAS_NUM_THREADS": "1"}, 2, 1),
        (None, {"OMP_NUM_THREADS": "1"}, 2, 1),          # unknown family
        ("openblas_set_num_threads", {"OPENBLAS_NUM_THREADS": "x"}, 2, 2),
        ("openblas_set_num_threads", {"OPENBLAS_NUM_THREADS": "8"}, 2, 2),
        ("openblas_set_num_threads", {"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ])
    def test_pool_fills_the_cores_whatever_the_blas_variables(
            self, monkeypatch, setter, environ, cores, expected):
        # each OpenBLAS setter name is set to one thread and the jobs run on
        # every core; with none found they stay serial
        calls = []
        lib = type("Lib", (), {} if setter is None else
                   {setter: staticmethod(calls.append)})()
        monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in environ.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(pool_mod, "_CORES", cores)
        pool_mod._one_blas_thread.cache_clear()
        try:
            assert pool_mod._processes([()] * cores) == expected
            assert pool_mod._processes([(), ()]) == min(expected, 2)
            assert pool_mod._processes([()]) == 1
        finally:
            pool_mod._one_blas_thread.cache_clear()
        assert calls == ([] if setter is None else [1])

    def test_tasks_stay_on_the_caller_while_the_encoder_is_wrapped(
            self, fake_encoder, workers, monkeypatch):
        # a span-timing wrapper keeps its spans in the calling process
        workers(2)
        monkeypatch.setattr(train_mod.enc, "encode_view",
                            functools.wraps(fake_encode_view)(
                                lambda *a, **k: fake_encode_view(*a, **k)))
        reps = run_jobs([small_net()], [job(i, keep=True) for i in range(4)])
        assert [r[0] for r in reps] == [os.getpid()] * 4
        grads = pool_mod._encode_backward(BB, [2.0, 3.0])
        assert [g["w"].tolist() for g in grads] == \
            [(small_net()["w"] * f).tolist() for f in (2.0, 3.0)]
        assert pool_mod._procs == []

    @pytest.mark.parametrize("mode", ["raise", "ignore", "warn"])
    def test_tasks_run_under_the_callers_errstate(self, fake_encoder, workers,
                                                  mode):
        # the worker, forked under numpy's default errstate, divides by zero
        workers(2)
        jobs = [job(1.0), (0, np.full(3, 2.0), np.zeros(3), False)]
        run_jobs([small_net()], [job(0.0)] * 2)
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(all=mode):
            warnings.simplefilter("always")
            if mode == "raise":
                with pytest.raises(FloatingPointError):
                    run_jobs([small_net()], jobs)
            else:
                here, there = run_jobs([small_net()], jobs)
                assert np.isinf(there[2:]).all()
                assert there[0] != here[0] == os.getpid()
        # a worker's warning is issued again in the caller
        assert [w.category for w in caught] == \
            ([RuntimeWarning] if mode == "warn" else [])

    def test_encode_raises_the_first_error_in_job_order_after_all_end(
            self, fake_encoder, workers, monkeypatch, tmp_path):
        def mark_then_fail(bb, params, pixels, indices, cache=True):
            # job i waits (job 1 least), leaves a file, fails if i < 2
            i = int(pixels[0])
            time.sleep(0.2 * (i != 1))
            (tmp_path / f"ended-{i}").touch()
            if i < 2:
                raise ValueError(f"job {i}")
            return pixels, None

        monkeypatch.setattr(train_mod.enc, "encode_view", mark_then_fail)
        workers(2)
        with pytest.raises(ValueError, match="job 0"):
            run_jobs([small_net()], [job(i) for i in range(4)])
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [f"ended-{i}" for i in range(4)]
        reps = run_jobs([small_net()], [job(i) for i in range(2, 7)])
        assert [r[0] for r in reps] == [2, 3, 4, 5, 6]

    def test_a_lost_worker_fails_the_call_and_is_replaced(self, fake_encoder,
                                                          workers):
        workers(2)
        jobs = [job(i, keep=True) for i in range(2)]
        lost = []
        for call in (lambda: pool_mod._encode_backward(BB, [1.0, 1.0]),
                     lambda: run_jobs([small_net()], jobs)):
            assert run_jobs([small_net()], jobs)
            (proc, _), = pool_mod._procs
            proc.kill()
            proc.join(timeout=10)
            assert not proc.is_alive()
            with pytest.raises(RuntimeError, match="worker process ended"):
                call()
            lost.append(proc.pid)
        mine, theirs = (r[0] for r in run_jobs([small_net()], jobs))
        assert mine == os.getpid() and theirs not in [mine] + lost

    def test_workers_read_the_networks_as_they_are_at_each_encode(
            self, fake_encoder, workers):
        workers(2)
        online = small_net()
        target = {name: 2.0 * a for name, a in online.items()}
        jobs = [job(0), job(0), job(0, net=1), job(0, net=1)]
        first = run_jobs([online, target], jobs)
        online["w"] += 10.0                     # in place, between two encodes
        second = run_jobs([online, target], jobs)
        assert [r[1] for r in first] == [19.0, 19.0, 38.0, 38.0]
        assert [r[1] for r in second] == [79.0, 79.0, 38.0, 38.0]
        here, there = second[0][0], second[1][0]
        assert here == os.getpid() != there
        assert [r[0] for r in second] == [here, there] * 2

    def test_an_encode_that_outgrows_the_buffer_restarts_the_workers(
            self, fake_encoder, workers):
        workers(2)
        assert run_jobs([small_net()], [job(0)] * 2)[1][1] == 19.0
        (proc, _), = pool_mod._procs
        big = {"v": np.ones((3, 5)), "w": np.arange(200_000.0)}
        assert big["w"].nbytes > len(pool_mod._buffer)
        mine, theirs, _ = run_jobs([big], [job(0, keep=True),
                                           job(0, keep=True), job(0)])
        (again, _), = pool_mod._procs
        assert not proc.is_alive() and again.pid == theirs[0] != proc.pid
        assert mine[0] == os.getpid()
        assert mine[1] == theirs[1] == float(big["w"].sum() + 15)
        # a worker's gradients come back through its job's slot of the
        # buffer, in the order the encoder gave them
        here, there = pool_mod._encode_backward(BB, [2.0, 3.0])
        for out, factor in ((here, 2.0), (there, 3.0)):
            assert list(out) == ["w", "v"]
            assert out["w"].tobytes() == (big["w"] * factor).tobytes()
            assert out["v"].tobytes() == (big["v"] * factor).tobytes()
        assert isinstance(there["w"].base, type(pool_mod._buffer))

    def test_a_worker_lost_between_steps_fails_one_step_only(self, workers):
        workers(2)
        cfg = train_mod.smoke_config(total_steps=20, **MULTIVIEW)
        records = load_dataset(cfg.dataset)
        parallel, serial = init_train_state(cfg), init_train_state(cfg)
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        (proc, _), = pool_mod._procs
        proc.kill()
        proc.join(timeout=10)
        assert not proc.is_alive()
        with pytest.raises(RuntimeError, match="worker process ended"):
            train_step(parallel, draw_batch(parallel, records))
        # the failed step drew its batch and views and changed nothing else
        train_mod._draw(serial, draw_batch(serial, records))
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        (again, _), = pool_mod._procs
        assert again.pid != proc.pid
        assert_same_bytes(parallel, serial)

    @pytest.mark.parametrize("name", ["encode_view", "encode_view_backward"])
    def test_a_worker_lost_during_an_encode_fails_that_step_only(
            self, workers, monkeypatch, tmp_path, name):
        # once the flag is set, a worker ends in its first encoder job of
        # that kind: the forward, or the backward after the heads have run
        fn, caller = getattr(train_mod.enc, name), os.getpid()
        flag = tmp_path / "end-in-the-encode"

        def lost_when_flagged(*args, **kwargs):
            if os.getpid() != caller and flag.exists():
                os._exit(1)
            return fn(*args, **kwargs)

        monkeypatch.setattr(train_mod.enc, name, lost_when_flagged)
        workers(2)
        cfg = tiny_config(**MULTIVIEW)
        records = load_dataset(cfg.dataset)
        parallel, serial = init_train_state(cfg), init_train_state(cfg)
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        (proc, _), = pool_mod._procs
        flag.touch()
        with pytest.raises(RuntimeError, match="worker process ended"):
            train_step(parallel, draw_batch(parallel, records))
        flag.unlink()
        assert not proc.is_alive() and not pool_mod._procs
        # the failed step drew its batch and views and changed nothing else
        train_mod._draw(serial, draw_batch(serial, records))
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        (again, _), = pool_mod._procs
        assert again.pid != proc.pid
        assert_same_bytes(parallel, serial)

    def test_each_process_renders_the_crops_its_jobs_read_once(
            self, fake_encoder, workers, monkeypatch, tmp_path):
        def render(sources, draws):
            with open(tmp_path / "renders", "a") as fh:
                fh.write(f"{os.getpid()} {draws}\n")
            return 10.0 * sources

        monkeypatch.setattr(pool_mod.data, "render_views", render)
        workers(2)
        sent = record_sends(monkeypatch)
        crops = [(np.full(1, float(x)), name)
                 for x, name in ((1, "a"), (2, "b"), (3, "c"))]
        jobs = [(0, c, np.ones(1), False) for c in (0, 1, 0, 1, 1)]
        reps = pool_mod._encode(BB, [small_net()], crops, jobs)
        assert [r[2] for r in reps] == [10.0, 20.0, 10.0, 20.0, 20.0]
        here, there = int(reps[0][0]), int(reps[1][0])
        # jobs 0, 2 and 4 ran here, 1 and 3 on the worker, which was sent
        # crop 1 alone; crop 2, which no job reads, was never rendered
        message, = [m for m in sent if m[0] == "encode"]
        assert list(message[4]) == [1]
        renders = (tmp_path / "renders").read_text().splitlines()
        assert sorted(renders) == sorted([f"{here} a", f"{here} b",
                                          f"{there} b"])

    @pytest.mark.parametrize("overrides", [{}, MULTIVIEW],
                             ids=["smoke", "multiview"])
    def test_a_step_sends_workers_no_parameters(self, workers, monkeypatch,
                                                overrides):
        # a step sends one encode and one backward message; the encode holds
        # the one crop its jobs read, the batch's sources and their draws,
        # and patch indices, the backward the representations' gradients,
        # and beyond their arrays each holds only names, a layout and the like
        workers(2)
        cfg = train_mod.smoke_config(total_steps=20, **overrides)
        records = load_dataset(cfg.dataset)
        state = init_train_state(cfg)
        train_step(state, draw_batch(state, records))   # workers started
        sent = record_sends(monkeypatch)
        train_step(state, draw_batch(state, records))
        assert [obj[0] for obj in sent] == ["encode", "backward"]
        for message in sent:
            arrays = {id(a): a for a in arrays_in(message)}
            data = sum(a.nbytes for a in arrays.values())
            size = len(ForkingPickler.dumps(message))
            assert size <= data + 8 * 1024, (size, data)
        # crop by crop, alternating: the worker renders crop 2 alone
        sources, _ = sent[0][4][1]
        assert list(sent[0][4]) == [1]
        assert sources.shape == (cfg.batch_size, 16, 16, 3)

    def test_first_failing_view_in_order_names_the_block(self, workers,
                                                         monkeypatch):
        # view 0 (crop 1) goes non-finite after block 2 and view 1 (crop 2,
        # its sources poisoned) already after block 0; the serial loop
        # reports view 0's block, and so must the parallel step, although
        # view 1 fails sooner
        workers(2)
        cfg = tiny_config()
        draw = train_mod._draw

        def poisoned(state, batch):
            crop1, (sources, draws), *rest = draw(state, batch)
            return (crop1, (np.full_like(sources, np.inf), draws), *rest)

        monkeypatch.setattr(train_mod, "_draw", poisoned)
        records = load_dataset(cfg.dataset)[:cfg.batch_size]
        messages = []
        for step in (serial_step, train_step):
            state = init_train_state(cfg)
            state.params["blocks.2.mlp.b2"][:] = np.inf
            with np.errstate(all="ignore"), \
                    pytest.raises(FloatingPointError) as err:
                step(state, records)
            messages.append(str(err.value))
        assert messages == ["non-finite activations after block 2"] * 2
        assert pool_mod._procs


def run_files(cfg, out) -> dict:
    """``run_training`` of ``cfg`` into the new directory ``out``: the bytes
    of every file it writes, by name."""
    out.mkdir()
    run_training(cfg, out_dir=str(out))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


PADDING = dict(sampler=SamplerConfig(s1=0.5, s2=0.5, gamma=3.0, n_views=4))


class TestPooledRun:
    """Whole runs on the pool, with the caller and a worker each rendering
    the crops its encoder jobs read."""

    @pytest.mark.parametrize("overrides", [{}, MULTIVIEW],
                             ids=["smoke", "multiview"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_a_run_writes_the_serial_runs_bytes(self, workers, monkeypatch,
                                                tmp_path, overrides, n):
        cfg = train_mod.smoke_config(total_steps=4, warmup_steps=2,
                                     checkpoint_every=2, **overrides)
        workers(1)
        serial = run_files(cfg, tmp_path / "serial")
        workers(n)
        sent = record_sends(monkeypatch)
        parallel = run_files(cfg, tmp_path / "parallel")
        assert list(serial) == ["dataset_manifest.txt", "final.ckpt",
                                "metrics.csv", "step000002.ckpt",
                                "step000004.ckpt"]
        assert parallel == serial
        # the workers ran encoder jobs and their backward, nothing else; a
        # smoke step's two jobs take two processes
        assert {obj[0] for obj in sent} == {"encode", "backward"}
        assert len(pool_mod._procs) == (n - 1 if overrides else 1)

    def test_a_resumed_run_equals_the_unbroken_run(self, workers, tmp_path):
        workers(2)
        cfg = tiny_config(total_steps=4, checkpoint_every=1, **MULTIVIEW)
        unbroken = run_files(cfg, tmp_path / "unbroken")
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        state = checkpoint_load(tmp_path / "unbroken" / "step000002.ckpt")
        run_training(cfg, out_dir=str(resumed), state=state, steps=1)
        run_training(cfg, out_dir=str(resumed), state=state)
        for name in ("step000003.ckpt", "step000004.ckpt", "final.ckpt",
                     "metrics.csv"):
            assert (resumed / name).read_bytes() == unbroken[name]

    def test_a_padded_draw_warns_in_the_step_that_draws_it(self, workers):
        # four views at s = 0.5 leave the rows too few positive weights, so
        # the draw pads them and warns
        workers(2)
        cfg = tiny_config(**PADDING)
        records = load_dataset(cfg.dataset)
        parallel, serial = init_train_state(cfg), init_train_state(cfg)
        caught = []
        for step, state in ((train_step, parallel), (serial_step, serial)):
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                step(state, draw_batch(state, records))
            caught.append([str(w.message) for w in got])
        assert caught[0] == caught[1]
        assert any("padding" in message for message in caught[0])
        assert pool_mod._procs
        assert_same_bytes(parallel, serial)


def mc_overlaps():
    """Three chunks of grid-8 selective pair overlaps."""
    return asymmetry._simulate_pair_overlaps(
        "selective", 0.25, 0.25, 3.0, "random", 8, 2500, 21, 1000,
        asymmetry.DEFAULT_AREA_RANGE, asymmetry.DEFAULT_ASPECT_RANGE)


class TestSharedPool:
    """The trainer and the analyzer run their jobs on one worker pool."""

    def test_an_analyze_between_steps(self, workers):
        # the same workers run a step's encoder jobs, then the chunks, then
        # the next step's jobs
        workers(1)
        expected = mc_overlaps()
        workers(2)
        cfg = tiny_config(**MULTIVIEW)
        records = load_dataset(cfg.dataset)
        parallel, serial = init_train_state(cfg), init_train_state(cfg)
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        (proc, _), = pool_mod._procs
        assert mc_overlaps().tobytes() == expected.tobytes()
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        assert_same_bytes(parallel, serial)
        (same, _), = pool_mod._procs
        assert same is proc

    def test_without_an_openblas_setter_jobs_fork_no_worker(
            self, fake_encoder, workers, monkeypatch):
        # another BLAS may run each product on every core: jobs stay serial
        workers(2)
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        pool_mod._one_blas_thread.cache_clear()
        try:
            reps = run_jobs([small_net()], [job(i) for i in range(4)])
            overlaps = mc_overlaps()
        finally:
            pool_mod._one_blas_thread.cache_clear()
        assert [r[0] for r in reps] == [os.getpid()] * 4
        assert overlaps.size == 2500 and pool_mod._procs == []

    def test_an_encode_between_steps(self, workers):
        # the probe's encode runs on the step's workers and leaves the next
        # step as the serial step
        workers(2)
        cfg = tiny_config(**MULTIVIEW)
        records = load_dataset(cfg.dataset)
        parallel, serial = init_train_state(cfg), init_train_state(cfg)
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        (proc, _), = pool_mod._procs
        embedded = train_mod.embed_records(cfg, parallel.params, records)
        params = {k: v.copy() for k, v in parallel.params.items()}
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        assert_same_bytes(parallel, serial)
        (same, _), = pool_mod._procs
        assert same is proc
        workers(1)
        assert embedded.tobytes() == \
            train_mod.embed_records(cfg, params, records).tobytes()

    def test_a_process_per_job_and_the_pool_never_shrinks(self, workers):
        # on four cores a 2-view step forks one worker and a probe over four
        # chunks three, which the next step keeps
        workers(4)
        cfg = train_mod.smoke_config(total_steps=20)
        records = load_dataset(cfg.dataset)
        parallel, serial = init_train_state(cfg), init_train_state(cfg)
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        assert len(pool_mod._procs) == 1
        train_mod.embed_records(cfg, parallel.params, records[:64])
        pids = [proc.pid for proc, _ in pool_mod._procs]
        assert len(pids) == 3
        train_step(parallel, draw_batch(parallel, records))
        serial_step(serial, draw_batch(serial, records))
        assert [proc.pid for proc, _ in pool_mod._procs] == pids
        assert_same_bytes(parallel, serial)

    def test_a_run_after_an_analyze_writes_the_serial_runs_bytes(
            self, workers, tmp_path):
        cfg = tiny_config(total_steps=3, checkpoint_every=2)
        workers(1)
        serial = run_files(cfg, tmp_path / "serial")
        workers(2)
        mc_overlaps()                   # forks the worker, with a small buffer
        (proc, _), = pool_mod._procs
        assert run_files(cfg, tmp_path / "parallel") == serial
        (again, _), = pool_mod._procs
        assert again is not proc and not proc.is_alive()


class TestRealizedOverlap:
    def test_trainer_pairs_match_the_analyzer(self):
        # the trainer and the analyzer share one crop law and one sampler:
        # over the smoke recipe's sampled pairs (grid 8, s = 0.25, gamma = 3)
        # the mean realized overlap sum_i r_i / N of view 2 matches the
        # Monte Carlo estimate at grid 8 with random crops
        cfg = train_mod.smoke_config(seed=3)
        assert cfg.backbone_config().grid_side == 8
        state = init_train_state(cfg)
        records = load_dataset(cfg.dataset)[:64]
        values = []
        for _ in range(64):
            _, _, _, views2, profiles = train_mod._draw(state, records)
            values.append(np.take_along_axis(profiles, views2[0], axis=1)
                          .sum(axis=1) / 64)
        values = np.concatenate(values)
        mean = values.mean()
        se = values.std(ddof=1) / np.sqrt(values.size)
        mc = monte_carlo_overlap("selective", 0.25, 0.25, 3.0, "random", 8,
                                 20_000, seed=4)
        assert abs(mean - mc.estimate) < 3.0 * np.hypot(se, mc.std_error)


class TestDegenerateAnchor:
    def test_full_sampling_identity_crops_reduce_to_two_view_step(self):
        # s = 1 and gamma = 0 with identical crops: nothing is dropped and
        # the objective equals the plain two-view contrastive loss
        cfg = tiny_config(sampler=SamplerConfig(s1=1.0, s2=1.0, gamma=0.0,
                                                n_views=2))
        bb = cfg.backbone_config()
        hc = cfg.head_config()
        state = init_train_state(cfg)
        records = load_dataset(cfg.dataset)[:4]
        pix = np.stack([r.pixels for r in records])
        full = np.zeros((4, 4))
        full[2:] = bb.image_size
        n = bb.image_size // bb.patch_size
        (set1,), (set2,), _ = sample_views(np.random.default_rng(0), full,
                                           full, n, cfg.sampler)
        idx = np.tile(np.arange(bb.n_patches), (4, 1))
        assert set1.tolist() == set2.tolist() == idx.tolist()
        z1, q1, _ = forward_branch(bb, hc, state.params, pix, idx)
        z2, q2, _ = forward_branch(bb, hc, state.params, pix, idx)
        full = contrastive_loss(q1, z1, q2, z2, cfg.tau)
        mv = multiview_loss([(q1, z1), (q2, z2)], cfg.tau)
        assert mv.value == pytest.approx(full.value / 2.0, rel=1e-12)

    def test_batch_order_invariance_of_loss(self):
        cfg = tiny_config()
        bb = cfg.backbone_config()
        hc = cfg.head_config()
        state = init_train_state(cfg)
        rng = np.random.default_rng(1)
        pix = rng.random((6, bb.image_size, bb.image_size, 3))
        idx = np.stack([rng.choice(bb.n_patches, 16, replace=False)
                        for _ in range(6)])
        def loss_of(order):
            z1, q1, _ = forward_branch(bb, hc, state.params, pix[order],
                                       idx[order])
            z2, q2, _ = forward_branch(bb, hc, state.params, pix[order][::-1],
                                       idx[order][::-1])
            # fixed pairing: row i of view 1 with row i of view 2
            return contrastive_loss(q1, z1, q2[::-1], z2[::-1], cfg.tau).value
        base = loss_of(np.arange(6))
        perm = np.random.default_rng(2).permutation(6)
        assert abs(loss_of(perm) - base) < 1e-10


class TestCheckpointing:
    def test_round_trip_bit_exact(self, tmp_path):
        state, _ = run_steps(tiny_config(), 2)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        checkpoint_save(state, p1)
        loaded = checkpoint_load(p1)
        checkpoint_save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_reproduces_unbroken_run(self, tmp_path):
        # the two-view shape, then train-multiview's: 4 views, clip and the
        # momentum encoder, whose state the checkpoint restores too
        multiview = dict(sampler=SamplerConfig(s1=0.25, s2=0.25, gamma=3.0,
                                               n_views=4),
                         clip_enabled=True, momentum_encoder=True)
        for overrides in ({}, multiview):
            cfg = tiny_config(total_steps=6, **overrides)
            full_state, full_losses = run_steps(cfg, 6)
            # broken run: 3 steps, checkpoint, reload, 3 more
            state, first = run_steps(cfg, 3)
            path = tmp_path / "mid.ckpt"
            checkpoint_save(state, path)
            resumed, second = run_steps(cfg, 3, state=checkpoint_load(path))
            assert first + second == full_losses
            assert_same_state(resumed, full_state)

    def test_meta_keys_older_checkpoints_carry_are_ignored(self, tmp_path):
        state, _ = run_steps(tiny_config(clip_enabled=True,
                                         momentum_encoder=True), 2)
        path = tmp_path / "x.ckpt"
        checkpoint_save(state, path)
        arrays, meta = load_arrays(path)
        # the copies of what the config and step fix, as older versions
        # wrote them
        meta.update(opt_step=state.opt.step, has_target=True,
                    clip={g: {"m": c.m, "alpha": c.alpha}
                          for g, c in state.clip.items()})
        save_arrays(tmp_path / "old.ckpt", arrays, meta)
        loaded = checkpoint_load(tmp_path / "old.ckpt")
        assert_same_state(loaded, state)
        checkpoint_save(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_batch_norm_statistics_older_checkpoints_carry_are_dropped(
            self, tmp_path):
        # older versions also saved each head batch norm's running mean and
        # variance, online (bn.*) and target (target_bn.*), which no code read
        cfg = tiny_config(total_steps=6, clip_enabled=True,
                          momentum_encoder=True)
        full_state, full_losses = run_steps(cfg, 6)
        state, first = run_steps(cfg, 3)
        path = tmp_path / "x.ckpt"
        checkpoint_save(state, path)
        arrays, meta = load_arrays(path)
        hc = cfg.head_config()
        for prefix in ("bn", "target_bn"):
            for head, dims in (("proj", hc.proj_dims), ("pred", hc.pred_dims)):
                for i, width in enumerate(dims):
                    arrays[f"{prefix}.{head}.bn{i}.mean"] = np.zeros(width)
                    arrays[f"{prefix}.{head}.bn{i}.var"] = np.ones(width)
        save_arrays(tmp_path / "old.ckpt", arrays, meta)
        loaded = checkpoint_load(tmp_path / "old.ckpt")
        assert_same_state(loaded, state)
        checkpoint_save(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        resumed, second = run_steps(cfg, 3, state=loaded)
        assert first + second == full_losses
        assert_same_state(resumed, full_state)

    def test_corrupt_and_mismatched_files(self, tmp_path):
        state, _ = run_steps(tiny_config(), 1)
        path = tmp_path / "x.ckpt"
        checkpoint_save(state, path)
        blob = path.read_bytes()
        (tmp_path / "trunc.ckpt").write_bytes(blob[:200])
        with pytest.raises(CheckpointError):
            checkpoint_load(tmp_path / "trunc.ckpt")
        (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            checkpoint_load(tmp_path / "junk.ckpt")

    @pytest.mark.parametrize("key", ["config", "step", "rng_state"])
    def test_missing_meta_key_fails_closed(self, tmp_path, key):
        state, _ = run_steps(tiny_config(), 1)
        path = tmp_path / "x.ckpt"
        checkpoint_save(state, path)
        arrays, meta = load_arrays(path)
        del meta[key]
        save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointError, match=key):
            checkpoint_load(path)

    @pytest.mark.parametrize("key,value", [
        ("rng_state", {"bit_generator": "PCG64"}),
        ("rng_state", []),
        ("config", []),
        ("config", {"dataset": {}, "sampler": {}}),
        ("step", "x"),
        ("step", -1),
        ("step", 2.5),
        ("step", True),
    ], ids=["rng-no-state", "rng-list", "config-list", "config-incomplete",
            "step-str", "step-negative", "step-float", "step-bool"])
    def test_wrong_typed_meta_fails_closed(self, tmp_path, key, value):
        state, _ = run_steps(tiny_config(), 1)
        path = tmp_path / "x.ckpt"
        checkpoint_save(state, path)
        arrays, meta = load_arrays(path)
        meta[key] = value
        save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointError, match=key.split("_")[-1]):
            checkpoint_load(path)

    @pytest.mark.parametrize("change,steps,message", [
        ("del params.embed.w", 1, "missing params.embed.w"),
        ("del opt.v.cls", 1, "missing opt.v.cls"),
        ("del target.pos", 1, "missing target.pos"),
        ("del clip.block1", 1, "missing clip.block1"),
        ("add params.extra", 1, "unexpected params.extra"),
        ("add opt.m.cls", 0, "unexpected opt.m.cls"),
        ("add clip.stem", 0, "unexpected clip.stem"),
        ("reshape params.blocks.0.mlp.w1", 1,
         "wrong shape or dtype params.blocks.0.mlp.w1"),
        ("reshape opt.m.norm.g", 1, "wrong shape or dtype opt.m.norm.g"),
        ("reshape clip.proj", 1, "wrong shape or dtype clip.proj"),
        ("reshape metrics", 1, "wrong shape or dtype metrics"),
        ("float32 target.embed.b", 1, "wrong shape or dtype target.embed.b"),
    ])
    def test_arrays_that_do_not_match_the_config_fail_closed(
            self, tmp_path, change, steps, message):
        cfg = tiny_config(clip_enabled=True, momentum_encoder=True)
        state, _ = run_steps(cfg, steps)
        path = tmp_path / "x.ckpt"
        checkpoint_save(state, path)
        arrays, meta = load_arrays(path)
        checkpoint_load(path)                   # the file as saved loads
        how, name = change.split()
        if how == "del":
            del arrays[name]
        elif how == "add":
            arrays[name] = np.zeros(3)
        elif how == "reshape":
            arrays[name] = arrays[name].ravel()[1:]
        else:
            arrays[name] = arrays[name].astype(np.float32)
        save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointError, match=message):
            checkpoint_load(path)

    def test_warmup_beyond_total_rejected(self):
        with pytest.raises(ValueError, match="warmup_steps"):
            tiny_config(warmup_steps=11)
        with pytest.raises(ValueError, match="warmup_steps"):
            tiny_config(warmup_steps=-1)

    def test_run_training_calls_train_step_once_per_step(self, monkeypatch):
        # through the module attribute, which the benchmark's step timer
        # wraps
        calls = count_calls(monkeypatch, "train_step")
        state = run_training(tiny_config(total_steps=5), steps=3)
        assert len(calls) == 3
        run_training(tiny_config(total_steps=5), state=state)
        assert len(calls) == 5

    def test_run_training_writes_artifacts(self, tmp_path):
        cfg = tiny_config(total_steps=4, checkpoint_every=2)
        out = tmp_path / "run"
        out.mkdir()
        run_training(cfg, out_dir=str(out))
        assert (out / "metrics.csv").exists()
        assert (out / "final.ckpt").exists()
        assert (out / "step000002.ckpt").exists()


class TestKnnProbe:
    def test_returns_value_in_range(self):
        cfg = tiny_config()
        state = init_train_state(cfg)
        records = load_dataset(cfg.dataset)
        ref, held = probe_split(records, cfg)
        acc = knn_probe(cfg, state.params, ref, held)
        assert 0.0 <= acc <= 1.0

    def test_shuffled_labels_are_chance(self):
        # Eval points share reference neighbors, so per-permutation accuracy
        # fluctuates with the assigned label fractions, not with 1/sqrt(n_eval);
        # averaging over permutations brings the noise down to the 3-sigma
        # band computed from the per-permutation spread.
        cfg = tiny_config(dataset=DatasetSpec(kind="synthetic", n_classes=2,
                                              n_per_class=32, image_size=16,
                                              seed=3))
        state = init_train_state(cfg)
        records = load_dataset(cfg.dataset)
        ref, held = probe_split(records, cfg)
        rng = np.random.default_rng(0)
        accs = []
        for _ in range(16):
            perm = rng.permutation(len(ref))
            shuffled = [
                train_mod.ImageRecord(pixels=r.pixels,
                                      label=ref[p].label,
                                      source_id=r.source_id)
                for r, p in zip(ref, perm)
            ]
            accs.append(knn_probe(cfg, state.params, shuffled, held))
        mean = float(np.mean(accs))
        sigma = float(np.std(accs, ddof=1)) / np.sqrt(len(accs))
        assert abs(mean - 0.5) < max(3 * sigma, 0.1)

    def test_embeddings_do_not_depend_on_chunk_size(self, workers,
                                                    monkeypatch):
        # 37 records: the default chunk of 16 leaves a remainder chunk of 5
        workers(2)
        cfg = tiny_config(dataset=DatasetSpec(kind="synthetic", n_classes=2,
                                              n_per_class=20, image_size=16,
                                              seed=3))
        state = init_train_state(cfg)
        records = load_dataset(cfg.dataset)[:37]
        reps = [train_mod.embed_records(cfg, state.params, records, batch=b)
                for b in (16, 64, 1)]
        assert reps[0].shape == (37, cfg.backbone_config().token_dim)
        assert all(r.tobytes() == reps[0].tobytes() for r in reps)
        assert train_mod.embed_records(cfg, state.params, records).tobytes() \
            == reps[0].tobytes()
        ref, held = probe_split(records, cfg)
        parallel = knn_probe(cfg, state.params, ref, held)
        assert pool_mod._procs
        monkeypatch.setattr(pool_mod, "_CORES", 1)
        assert knn_probe(cfg, state.params, ref, held) == parallel

    def test_k_larger_than_reference_rejected(self):
        cfg = tiny_config()
        state = init_train_state(cfg)
        records = load_dataset(cfg.dataset)
        with pytest.raises(ValueError):
            knn_probe(cfg, state.params, records[:3], records[3:6], k=10)

    def test_probe_split_deterministic(self):
        cfg = tiny_config()
        records = load_dataset(cfg.dataset)
        a1, b1 = probe_split(records, cfg)
        a2, b2 = probe_split(records, cfg)
        assert [r.source_id for r in a1] == [r.source_id for r in a2]
        assert [r.source_id for r in b1] == [r.source_id for r in b2]
