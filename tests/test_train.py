import numpy as np
import pytest

import asympatch.train as train_mod
from asympatch.asymmetry import monte_carlo_overlap
from asympatch.encoder import forward_branch
from asympatch.geometry import PatchGrid, full_image_crop
from asympatch.objective import MultiviewLossResult, contrastive_loss, multiview_loss
from asympatch.sampling import SamplerConfig, sample_sparse
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


def run_steps(config, n):
    state = init_train_state(config)
    records = load_dataset(config.dataset)
    losses = []
    for _ in range(n):
        pick = state.rng.choice(len(records), size=config.batch_size,
                                replace=False)
        losses.append(train_step(state, [records[i] for i in pick]))
    return state, losses


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
        cfg = tiny_config(base_lr=0.0, warmup_steps=0)
        state = init_train_state(cfg)
        before = {k: v.copy() for k, v in state.params.items()}
        records = load_dataset(cfg.dataset)
        loss = train_step(state, records[:cfg.batch_size])
        assert np.isfinite(loss)
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
            _, _, _, views2, profiles = train_mod._draw_views(state, records)
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
        grid = PatchGrid(crop=full_image_crop(bb.image_size),
                         patch_size=bb.patch_size)
        rng = np.random.default_rng(0)
        set1 = sample_sparse(grid, 1.0, rng)
        assert set1.indices == tuple(range(bb.n_patches))
        idx = np.tile(np.arange(bb.n_patches), (4, 1))
        bn1 = {k: v.copy() for k, v in state.bn_stats.items()}
        bn2 = {k: v.copy() for k, v in state.bn_stats.items()}
        z1, q1, _ = forward_branch(bb, hc, state.params, bn1, pix, idx)
        z2, q2, _ = forward_branch(bb, hc, state.params, bn2, pix, idx)
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
            bn = {k: v.copy() for k, v in state.bn_stats.items()}
            z1, q1, _ = forward_branch(bb, hc, state.params, bn,
                                       pix[order], idx[order])
            z2, q2, _ = forward_branch(bb, hc, state.params, bn,
                                       pix[order][::-1], idx[order][::-1])
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
        cfg = tiny_config(total_steps=6)
        # unbroken run
        full_state, full_losses = run_steps(cfg, 6)
        # broken run: 3 steps, checkpoint, reload, 3 more
        state, first = run_steps(cfg, 3)
        path = tmp_path / "mid.ckpt"
        checkpoint_save(state, path)
        resumed = checkpoint_load(path)
        records = load_dataset(cfg.dataset)
        second = []
        for _ in range(3):
            pick = resumed.rng.choice(len(records), size=cfg.batch_size,
                                      replace=False)
            second.append(train_step(resumed, [records[i] for i in pick]))
        assert first + second == full_losses

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

    @pytest.mark.parametrize("key", ["config", "step", "opt_step", "clip",
                                     "rng_state"])
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
        ("clip", []),
        ("clip", {"block0": {"m": "x", "alpha": 1.05}}),
        ("clip", {"block0": {"m": 1.5, "alpha": 1.05}}),
        ("rng_state", {"bit_generator": "PCG64"}),
        ("rng_state", []),
        ("config", []),
        ("config", {"dataset": {}, "sampler": {}}),
        ("step", "x"),
        ("step", -1),
        ("opt_step", 2.5),
        ("opt_step", True),
    ], ids=["clip-list", "clip-m-str", "clip-m-range", "rng-no-state",
            "rng-list", "config-list", "config-incomplete", "step-str",
            "step-negative", "opt-step-float", "opt-step-bool"])
    def test_wrong_typed_meta_fails_closed(self, tmp_path, key, value):
        state, _ = run_steps(tiny_config(), 1)
        path = tmp_path / "x.ckpt"
        checkpoint_save(state, path)
        arrays, meta = load_arrays(path)
        meta[key] = value
        save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointError, match=key.split("_")[-1]):
            checkpoint_load(path)

    def test_warmup_beyond_total_rejected(self):
        with pytest.raises(ValueError, match="warmup_steps"):
            tiny_config(warmup_steps=11)
        with pytest.raises(ValueError, match="warmup_steps"):
            tiny_config(warmup_steps=-1)

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
