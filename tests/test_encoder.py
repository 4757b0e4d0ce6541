import tracemalloc

import numpy as np
import pytest
from conftest import fd_gradient, micro_batch, micro_model, rel_err, sample_coords

from asympatch.encoder import (BACKBONES, HEADS, BackboneConfig, HeadConfig,
                               _block_backward, _block_forward,
                               attention_backward, attention_forward,
                               backward_branch, encode, encode_backward,
                               encode_view, forward_branch, init_params,
                               layernorm_backward, layernorm_forward,
                               param_shapes, patchify, patchify_backward,
                               predict, project, sincos_position_table)


def full_block_encode(cfg, params, tokens):
    """Reference encoder: every token queries in every block, and the final
    norm runs on all rows before the class token is picked."""
    x = tokens
    caches = []
    for i in range(cfg.n_blocks):
        x, c = _block_forward(cfg, params, f"blocks.{i}", x)
        caches.append(c)
    out, ln_c = layernorm_forward(x, params["norm.g"], params["norm.b"])
    return out[:, 0, :], (caches, ln_c, tokens.shape)


def full_block_encode_backward(cfg, drep, cache):
    caches, ln_c, shape = cache
    dout = np.zeros(shape)
    dout[:, 0, :] = drep
    grads = {}
    dx, grads["norm.g"], grads["norm.b"] = layernorm_backward(dout, ln_c)
    for i in reversed(range(cfg.n_blocks)):
        dx = _block_backward(cfg, f"blocks.{i}", dx, caches[i], grads)
    return dx, grads


def max_rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestConfigs:
    def test_tiny_preset_matches_published_shape(self):
        cfg = BACKBONES["vit-tiny-2"]
        assert (cfg.patch_size, cfg.n_blocks, cfg.n_heads, cfg.token_dim) \
            == (2, 12, 3, 192)

    def test_micro_preset(self):
        cfg = BACKBONES["vit-micro"]
        assert (cfg.n_blocks, cfg.n_heads, cfg.token_dim) == (4, 2, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackboneConfig(patch_size=2, n_blocks=1, n_heads=3, token_dim=64,
                           image_size=16)
        with pytest.raises(ValueError):
            BackboneConfig(patch_size=3, n_blocks=1, n_heads=2, token_dim=64,
                           image_size=16)
        with pytest.raises(ValueError):
            HeadConfig(proj_dims=(64, 32), pred_dims=(64, 16))

    @pytest.mark.parametrize("bb", [
        BACKBONES["vit-micro"],
        BackboneConfig(patch_size=4, n_blocks=2, n_heads=2, token_dim=16,
                       image_size=16, pos_mode="sincos")],
        ids=["micro", "sincos"])
    def test_param_shapes_are_init_params_shapes_in_order(self, bb):
        hc = HeadConfig(proj_dims=(8, 6), pred_dims=(6,))
        params, bn = init_params(bb, hc, np.random.default_rng(0))
        shapes, bn_shapes = param_shapes(bb, hc)
        assert list(shapes.items()) == [(k, a.shape) for k, a in params.items()]
        assert list(bn_shapes.items()) == [(k, a.shape) for k, a in bn.items()]

    def test_shapes_fully_determined_by_config(self):
        for name, cfg in BACKBONES.items():
            assert cfg.grid_side * cfg.patch_size == cfg.image_size
            assert cfg.n_patches == cfg.grid_side ** 2
            assert cfg.head_dim * cfg.n_heads == cfg.token_dim


class TestPatchify:
    def test_full_sampling_token_count(self):
        bb, hc, params, _ = micro_model()
        pixels, _ = micro_batch(batch=1)
        idx = np.arange(bb.n_patches)[None, :]
        tokens, _ = patchify(bb, params, pixels, idx)
        assert tokens.shape == (1, bb.n_patches + 1, bb.token_dim)

    def test_quarter_sampling_on_16x16_grid(self):
        cfg = BACKBONES["vit-tiny-2"]          # 16x16 grid of 2-pixel patches
        params, _ = init_params(cfg, HEADS["cifar"], np.random.default_rng(0))
        rng = np.random.default_rng(1)
        pixels = rng.random((1, 32, 32, 3))
        idx = rng.choice(256, size=64, replace=False)[None, :]
        tokens, _ = patchify(cfg, params, pixels, idx)
        assert tokens.shape[1] == 65

    def test_shared_patch_same_token_and_position(self):
        bb, hc, params, _ = micro_model()
        pixels, _ = micro_batch(batch=1)
        a = np.array([[0, 5, 9]])
        b = np.array([[5, 20, 33]])
        ta, _ = patchify(bb, params, pixels, a)
        tb, _ = patchify(bb, params, pixels, b)
        assert np.array_equal(ta[0, 2], tb[0, 1])     # patch 5 in both

    def test_index_out_of_grid(self):
        bb, hc, params, _ = micro_model()
        pixels, _ = micro_batch(batch=1)
        with pytest.raises(IndexError):
            patchify(bb, params, pixels, np.array([[bb.n_patches]]))

    def test_sincos_table_shape_and_cls_row(self):
        table = sincos_position_table(8, 64)
        assert table.shape == (65, 64)
        assert not table[0].any()


class TestEncode:
    def test_zero_output_projections_give_identity_residual(self):
        bb, hc, params, _ = micro_model()
        for i in range(bb.n_blocks):
            params[f"blocks.{i}.attn.w_out"][:] = 0.0
            params[f"blocks.{i}.attn.b_out"][:] = 0.0
            params[f"blocks.{i}.mlp.w2"][:] = 0.0
            params[f"blocks.{i}.mlp.b2"][:] = 0.0
        pixels, indices = micro_batch()
        tokens, _ = patchify(bb, params, pixels, indices)
        rep, _ = encode(bb, params, tokens)
        # residual path is the identity, so rep is the layer norm of token 0
        t0 = tokens[:, 0, :]
        mu = t0.mean(axis=1, keepdims=True)
        var = ((t0 - mu) ** 2).mean(axis=1, keepdims=True)
        expected = params["norm.g"] * (t0 - mu) / np.sqrt(var + 1e-6) \
            + params["norm.b"]
        assert np.allclose(rep, expected, atol=1e-12)

    def test_token_permutation_leaves_cls_output_unchanged(self):
        bb, hc, params, _ = micro_model()
        pixels, indices = micro_batch()
        rep_a, _ = encode(bb, params, patchify(bb, params, pixels, indices)[0])
        perm = np.random.default_rng(3).permutation(indices.shape[1])
        rep_b, _ = encode(bb, params,
                          patchify(bb, params, pixels, indices[:, perm])[0])
        assert np.allclose(rep_a, rep_b, atol=1e-10)

    def test_bitwise_determinism(self):
        bb, hc, params, _ = micro_model()
        pixels, indices = micro_batch()
        tokens, _ = patchify(bb, params, pixels, indices)
        rep_a, _ = encode(bb, params, tokens)
        rep_b, _ = encode(bb, params, tokens)
        assert np.array_equal(rep_a, rep_b)

    def test_non_finite_diagnostic_names_block(self):
        bb, hc, params, _ = micro_model()
        params["blocks.2.mlp.w2"][0, 0] = np.nan
        pixels, indices = micro_batch()
        tokens, _ = patchify(bb, params, pixels, indices)
        for cache in (True, False):
            with pytest.raises(FloatingPointError, match="block 2"):
                encode(bb, params, tokens, cache=cache)

    @pytest.mark.parametrize("ratio", [0.25, 1.0])
    def test_rep_without_caches_is_byte_equal(self, ratio):
        bb, hc, params, _ = micro_model()
        pixels, indices = micro_batch(batch=5, ratio=ratio)
        rep, cache = encode_view(bb, params, pixels, indices)
        bare, none = encode_view(bb, params, pixels, indices, cache=False)
        assert cache is not None and none is None
        assert bare.dtype == rep.dtype and bare.shape == rep.shape
        assert bare.tobytes() == rep.tobytes()

    def test_a_pass_without_caches_holds_one_block_at_a_time(self):
        bb, hc, params, _ = micro_model()
        pixels, indices = micro_batch(batch=16, ratio=1.0)
        tokens, _ = patchify(bb, params, pixels, indices)
        peaks = []
        for cache in (True, False):
            tracemalloc.start()
            out = encode(bb, params, tokens, cache=cache)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            del out
        # four blocks' intermediates against one block's at most
        assert peaks[1] < peaks[0] / 2, peaks


class TestClassTokenLastBlock:
    @pytest.mark.parametrize("bb", [
        BACKBONES["vit-micro"],
        # the vit-tiny-2 shape, cut to 3 blocks
        BackboneConfig(patch_size=2, n_blocks=3, n_heads=3, token_dim=192,
                       image_size=32),
    ], ids=["vit-micro", "vit-tiny-3-blocks"])
    def test_matches_full_block_reference(self, bb):
        params, _ = init_params(bb, HEADS["micro"], np.random.default_rng(0))
        rng = np.random.default_rng(1)
        tokens = rng.normal(size=(4, 1 + bb.n_patches // 4, bb.token_dim))
        drep = rng.normal(size=(4, bb.token_dim))
        rep, cache = encode(bb, params, tokens)
        rep_ref, cache_ref = full_block_encode(bb, params, tokens)
        assert max_rel(rep, rep_ref) < 1e-12
        dtok, grads = encode_backward(bb, drep, cache)
        dtok_ref, grads_ref = full_block_encode_backward(bb, drep, cache_ref)
        assert max_rel(dtok, dtok_ref) < 1e-12
        assert sorted(grads) == sorted(grads_ref)
        for name in grads_ref:
            assert max_rel(grads[name], grads_ref[name]) < 1e-12, name

    def test_one_query_row_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        batch, length, dim, heads = 3, 5, 8, 2
        p = {
            "x": rng.normal(size=(batch, length, dim)),
            "w_qkv": rng.normal(size=(dim, 3 * dim)) * 0.5,
            "b_qkv": rng.normal(size=3 * dim) * 0.5,
            "w_out": rng.normal(size=(dim, dim)) * 0.5,
            "b_out": rng.normal(size=dim) * 0.5,
        }
        probe = rng.normal(size=(batch, 1, dim))

        def run(q):
            return attention_forward(q["x"], q["w_qkv"], q["b_qkv"],
                                     q["w_out"], q["b_out"], heads, 1)

        out, cache = run(p)
        assert out.shape == (batch, 1, dim)
        dx, dw_qkv, db_qkv, dw_out, db_out = attention_backward(probe, cache,
                                                                heads)
        grads = {"x": dx, "w_qkv": dw_qkv, "b_qkv": db_qkv, "w_out": dw_out,
                 "b_out": db_out}
        value = lambda q: float((run(q)[0] * probe).sum())
        coords = {
            # the querying row and a key/value-only row
            "x": [(1, 0, 3), (2, 0, 6), (0, 3, 1), (2, 4, 5)],
            # query, key and value columns
            "w_qkv": [(2, 1), (5, dim + 3), (7, 2 * dim + 4)],
            # query and value biases; the key bias is checked below
            "b_qkv": [(0,), (2 * dim + 1,)],
            "w_out": [(3, 4)],
            "b_out": [(2,)],
        }
        worst = 0.0
        for name, cs in coords.items():
            for coord in cs:
                fd = fd_gradient(value, p, name, coord)
                worst = max(worst, rel_err(fd, grads[name][coord]))
        assert worst < 1e-4
        # a key bias shifts every score of a query by the same amount, which
        # softmax ignores: its true gradient is exactly zero
        assert np.abs(db_qkv[dim:2 * dim]).max() < 1e-12 * np.abs(db_qkv).max()
        # rows past the query get gradient only through keys and values
        assert dx[:, 1:].any()


class TestHeads:
    def test_identical_rows_collapse_to_zero(self):
        bb, hc, params, bn = micro_model()
        rep = np.tile(np.linspace(-1, 1, bb.token_dim), (3, 1))
        z, _ = project(hc, params, {k: v.copy() for k, v in bn.items()}, rep)
        assert np.allclose(z, 0.0)

    def test_output_widths_per_preset(self):
        assert HEADS["cifar"].proj_dims[-1] == 128
        assert HEADS["cifar"].pred_dims[-1] == 128
        assert HEADS["imagenet"].proj_dims[-1] == 256
        bb, hc, params, bn = micro_model()
        pixels, indices = micro_batch()
        z, q, _ = forward_branch(bb, hc, params, bn, pixels, indices)
        assert z.shape[1] == hc.proj_dims[-1]
        assert q.shape[1] == hc.pred_dims[-1]

    def test_eval_mode_idempotent(self):
        bb, hc, params, bn = micro_model()
        rng = np.random.default_rng(4)
        rep = rng.normal(size=(6, bb.token_dim))
        # train once to move the running stats off their init
        project(hc, params, bn, rep, train=True)
        frozen = {k: v.copy() for k, v in bn.items()}
        z1, _ = project(hc, params, bn, rep, train=False)
        z2, _ = project(hc, params, bn, rep, train=False)
        assert np.array_equal(z1, z2)
        for k in frozen:
            assert np.array_equal(bn[k], frozen[k])

    def test_train_mode_updates_running_stats(self):
        bb, hc, params, bn = micro_model()
        rep = np.random.default_rng(5).normal(size=(6, bb.token_dim))
        before = {k: v.copy() for k, v in bn.items()}
        project(hc, params, bn, rep, train=True)
        assert any(not np.array_equal(bn[k], before[k])
                   for k in bn if k.startswith("proj."))


class TestGradients:
    def test_encoder_gradients_match_finite_differences(self):
        bb, hc, params, _ = micro_model()
        pixels, indices = micro_batch()
        rng = np.random.default_rng(6)
        probe = rng.normal(size=(pixels.shape[0], bb.token_dim))

        def value(p):
            tokens, _ = patchify(bb, p, pixels, indices)
            rep, _ = encode(bb, p, tokens)
            return float((rep * probe).sum())

        tokens, patch_cache = patchify(bb, params, pixels, indices)
        rep, enc_cache = encode(bb, params, tokens)
        dtok, grads = encode_backward(bb, probe, enc_cache)
        grads.update(patchify_backward(bb, dtok, patch_cache))
        names = ["embed.w", "cls", "pos", "blocks.0.attn.w_qkv",
                 "blocks.1.mlp.w1", "blocks.3.ln2.g", "norm.g"]
        worst = 0.0
        for name in names:
            for coord in sample_coords(rng, params[name].shape, 3):
                fd = fd_gradient(value, params, name, coord)
                worst = max(worst, rel_err(fd, grads[name][coord]))
        assert worst < 1e-4

    def test_head_gradients_match_finite_differences(self):
        bb, hc, params, bn = micro_model()
        rng = np.random.default_rng(7)
        rep = rng.normal(size=(4, bb.token_dim))
        probe = rng.normal(size=(4, hc.pred_dims[-1]))

        def value(p):
            bnc = {k: v.copy() for k, v in bn.items()}
            z, zc = project(hc, p, bnc, rep)
            q, qc = predict(hc, p, bnc, z)
            return float((q * probe).sum())

        bnc = {k: v.copy() for k, v in bn.items()}
        z, proj_c = project(hc, params, bnc, rep)
        q, pred_c = predict(hc, params, bnc, z)
        grads = {}
        from asympatch.encoder import predict_backward, project_backward
        dz = predict_backward(hc, probe, pred_c, grads)
        project_backward(hc, dz, proj_c, grads)
        worst = 0.0
        for name in ["proj.0.w", "proj.bn0.g", "proj.2.w", "pred.1.w",
                     "pred.bn1.b", "pred.2.w"]:
            for coord in sample_coords(rng, params[name].shape, 3):
                fd = fd_gradient(value, params, name, coord)
                worst = max(worst, rel_err(fd, grads[name][coord]))
        assert worst < 1e-4

    def test_backward_linearity_and_zero(self):
        bb, hc, params, bn = micro_model()
        pixels, indices = micro_batch()
        bnc = {k: v.copy() for k, v in bn.items()}
        z, q, cache = forward_branch(bb, hc, params, bnc, pixels, indices)
        rng = np.random.default_rng(8)
        dq = rng.normal(size=q.shape)
        g1 = backward_branch(bb, hc, cache, dq)
        g2 = backward_branch(bb, hc, cache, 2.5 * dq)
        for name in g1:
            assert np.allclose(2.5 * g1[name], g2[name], atol=1e-10)
        g0 = backward_branch(bb, hc, cache, np.zeros_like(dq))
        for name in g0:
            assert not g0[name].any()


class TestForwardSweep:
    @pytest.mark.parametrize("bname,hname", [
        ("vit-micro", "micro"), ("vit-tiny-2", "cifar"),
        ("vit-small-16", "imagenet"),
    ])
    def test_presets_forward_consistent_shapes(self, bname, hname):
        bb = BACKBONES[bname]
        hc = HEADS[hname]
        params, bn = init_params(bb, hc, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        pixels = rng.random((2, bb.image_size, bb.image_size, 3))
        k = max(1, bb.n_patches // 4)
        idx = np.stack([rng.choice(bb.n_patches, size=k, replace=False)
                        for _ in range(2)])
        z, q, _ = forward_branch(bb, hc, params, bn, pixels, idx)
        assert z.shape == (2, hc.proj_dims[-1])
        assert q.shape == (2, hc.pred_dims[-1])
